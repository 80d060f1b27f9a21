"""Tri-level premium: insurer over charging station over grid operator.

The grid level couples to the two upper levels only through parameters: the
charging demand enters each day's OPF as fixed load, so the operator's
optimality conditions pin the distribution tariff before any premium or
charging-price decision is made. Both solvers here exploit that.

solve_trilevel_direct freezes the per-day tariffs at the station bus and
runs the robust bi-level fixed point against them. ccg_solve runs the
paper's column-and-constraint generation on the premium/price master for
the one round it takes: the principal (min premium + |lambda|^2 subject to
claim-loss coverage and tail feasibility) is the premium fixed point of
cvar.premium_fixed_point, because the coverage row binds at any optimum
(the objective is strictly increasing in the premium once lambda is chosen
minimally); the subproblem recomputes the station's minimum-norm response
at the principal's premium. With the tariff fixed both solve the same
price program at the same premium, so their values premium + |price|^2
agree and the round certifies the optimum; a bound gap above CCG_TOL is
raised rather than iterated on. The grid blocks eliminated from the
principal are verified verbatim on the composed solution: per-day primal
feasibility, dual feasibility, and strong duality must all hold within
1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analytic import TypicalDaySet
from .cvar import PremiumQuote, RiskConfig, RiskError, _certified, \
    premium_fixed_point, robust_premium_bilevel, solve_risk_averse_evcs
from .dcopf import DcopfError, Network, _max_abs, dual_feasibility_check, \
    evcs_tariff_cents, per_day_dlmps

DUALITY_GATE = 1e-8
CCG_TOL = 1e-6


class TrilevelError(ValueError):
    pass


@dataclass(frozen=True)
class CcgState:
    """Bounds after one principal/subproblem round.

    lower_bound is the subproblem value premium + |response|^2 and
    upper_bound the principal value premium + |principal price|^2; the
    response is the station's best reply at the principal's premium, so
    lower <= upper.
    """

    iteration: int
    lower_bound: float
    upper_bound: float
    premium: float

    def __post_init__(self):
        if self.iteration < 1:
            raise TrilevelError("iterations count from 1")
        if self.lower_bound > self.upper_bound + CCG_TOL * (
                1.0 + abs(self.upper_bound)) + 1e-9:
            raise TrilevelError(
                f"lower bound {self.lower_bound:g} above upper bound "
                f"{self.upper_bound:g} beyond tolerance")

    @property
    def gap(self):
        return self.upper_bound - self.lower_bound

    @property
    def relative_gap(self):
        return self.gap / (1.0 + abs(self.upper_bound))


@dataclass
class TrilevelQuote:
    """Premium quote with the frozen grid solution behind it."""

    quote: PremiumQuote
    dlmp: tuple                 # per-day DlmpResult, day_ids order
    tariff_cents: np.ndarray    # (S, 24) cents/kWh at the station bus
    duality_gaps: np.ndarray    # (S,) relative |C_LL - C_DLL| per day
    mode: str
    ccg_trace: tuple = ()

    def __post_init__(self):
        if self.mode not in ("direct", "ccg"):
            raise TrilevelError(f"unknown mode {self.mode!r}")
        gaps = np.asarray(self.duality_gaps, dtype=float)
        if gaps.size and float(gaps.max()) > DUALITY_GATE:
            raise TrilevelError(
                f"embedded strong-duality gap {float(gaps.max()):g} "
                f"exceeds {DUALITY_GATE:g}")

    @property
    def premium(self):
        return self.quote.premium

    @property
    def per_kwh(self):
        return self.quote.per_kwh


def single_level_residuals(network: Network, days: TypicalDaySet,
                           results) -> dict:
    """Worst verbatim-block residuals of a composed grid solution.

    Families: primal power balance, flow-angle coupling, generator and
    line limit violations, dual stationarity, dual sign violations, and
    the relative strong-duality gap. All families must sit within 1e-8
    for the composed point to stand in for the embedded grid blocks.
    """
    block = network._hour_block
    n_g, n_b = len(network.generators), len(network.buses)
    gcap, fcap = block.upper[:n_g, None], block.upper[n_g + n_b:, None]
    fam = dict.fromkeys(("balance", "flow_angle", "limits",
                         "dual_stationarity", "dual_sign", "duality_gap"), 0.0)
    for res in results:
        coupled = (block.reactance[:, None] * res.flows
                   - res.angles[block.line_from] + res.angles[block.line_to])
        over = (np.abs(res.flows) - fcap, res.dispatch - gcap, -res.dispatch)
        signs = (res.alpha_up, res.alpha_lo, res.delta_up, res.delta_lo)
        day = {
            "balance": res.balance_residual,
            "flow_angle": _max_abs(coupled),
            "limits": max(float(v.max(initial=0.0)) for v in over),
            "dual_stationarity":
                dual_feasibility_check(res, network).max_residual,
            "dual_sign": max(float((-v).max(initial=0.0)) for v in signs),
            "duality_gap": abs(res.c_ll - res.c_dll) / (1.0 + abs(res.c_ll)),
        }
        fam = {name: max(fam[name], day[name]) for name in fam}
    return fam


def _grid_blocks(network, days):
    """Per-day OPF results, station tariff table, and duality gaps."""
    results = per_day_dlmps(network, days)
    fam = single_level_residuals(network, days, results)
    worst = max(fam.values())
    if worst > DUALITY_GATE:
        bad = max(fam, key=fam.get)
        raise TrilevelError(
            f"grid block verification failed: {bad} residual "
            f"{fam[bad]:g} exceeds {DUALITY_GATE:g}")
    tariff = evcs_tariff_cents(network, results)
    gaps = np.array([abs(r.c_ll - r.c_dll) / (1.0 + abs(r.c_ll))
                     for r in results])
    return results, tariff, gaps


def solve_trilevel_direct(network: Network, days: TypicalDaySet,
                          config: RiskConfig):
    """Sequential oracle: freeze the tariff, then run the bi-level quote."""
    results, tariff, gaps = _grid_blocks(network, days)
    quote = robust_premium_bilevel(days, config, tariff)
    return TrilevelQuote(quote=quote, dlmp=tuple(results),
                         tariff_cents=tariff, duality_gaps=gaps,
                         mode="direct")


def ccg_solve(network: Network, days: TypicalDaySet, config: RiskConfig):
    """One certified column-and-constraint generation round.

    The principal is premium_fixed_point at the frozen tariff; the
    subproblem is the station's minimum-norm response at the principal's
    premium, seeded with the principal's active cuts. Their values
    premium + |price|^2 bound the optimum from below (subproblem) and
    above (principal). On this model they meet in round 1 whatever the
    data: the grid level only passes the tariff up, so both solve the same
    price program at the same premium, and the subproblem's program
    rechecks a principal that ended on a verified Newton point. CCG needs
    more rounds only when the recourse is coupled to the first-stage
    decision (Zeng & Zhao, Oper. Res. Lett. 2013); here a relative gap
    above CCG_TOL means that argument broke, and raises TrilevelError
    instead of iterating.
    """
    results, tariff, gaps = _grid_blocks(network, days)
    principal = premium_fixed_point(days, config, tariff)
    premium, price_p = principal.premium, principal.charging_price
    upper = premium + float(price_p @ price_p)
    sub = solve_risk_averse_evcs(
        days, principal.per_kwh, config, tariff,
        seed_cuts=principal.solution.active_cuts)
    lower = premium + float(sub.charging_price @ sub.charging_price)
    state = CcgState(iteration=1, lower_bound=lower, upper_bound=upper,
                     premium=premium)
    if state.relative_gap > CCG_TOL:
        raise TrilevelError(
            f"CCG round 1 left a relative bound gap of "
            f"{state.relative_gap:g} (tolerance {CCG_TOL:g})")

    quote = replace(principal, charging_price=sub.charging_price,
                    trace=(premium,), iterations=1, solution=sub,
                    kkt_max_residual=_certified(sub, days, principal.per_kwh,
                                                config, tariff))
    return TrilevelQuote(quote=quote, dlmp=tuple(results),
                         tariff_cents=tariff, duality_gaps=gaps,
                         mode="ccg", ccg_trace=(state,))


@dataclass(frozen=True)
class SweepRow:
    """One cell of the demand-scaling grid (prices in cents/kWh)."""

    scale: float
    alpha: float
    bound: str
    lambda_c_avg: float
    x_hat: float
    feasible: bool = True
    note: str = ""


def demand_scaling_sweep(network: Network, days: TypicalDaySet,
                         config: RiskConfig, *,
                         scales=(1, 100, 400, 800, 1000),
                         alphas=(1.0, 0.5, 0.0),
                         bounds=("lower", "expected", "upper"),
                         quotes=None):
    """Premium grid over demand scale, tail level, and factor bounds.

    Runs the direct tri-level mode cell by cell, reusing each scale's
    grid solution across its nine policy cells. A scale whose OPF (or
    whose break-even program) is infeasible produces flagged rows with
    the failure note instead of aborting the sweep. quotes, when given,
    maps a scale to the PremiumQuote of every (alpha, bound) cell already
    solved at that scale with this config (run_case passes its scale-1
    quotes); such a scale runs no OPF and no price program.
    """
    def flagged(scale, alpha, bound, exc):
        return SweepRow(scale=scale, alpha=alpha, bound=bound,
                        lambda_c_avg=float("nan"), x_hat=float("nan"),
                        feasible=False, note=str(exc))

    out = []
    for scale in scales:
        solved = (quotes or {}).get(scale)
        if solved is None:
            scaled = days.scaled(scale)
            try:
                _, tariff, _ = _grid_blocks(network, scaled)
            except (DcopfError, TrilevelError) as exc:
                out += [flagged(scale, alpha, bound, exc)
                        for alpha in alphas for bound in bounds]
                continue
        for alpha in alphas:
            for bound in bounds:
                if solved is not None:
                    quote = solved[(alpha, bound)]
                else:
                    cell = replace(config, alpha=alpha, bound_mode=bound)
                    try:
                        quote = robust_premium_bilevel(scaled, cell, tariff)
                    except RiskError as exc:
                        out.append(flagged(scale, alpha, bound, exc))
                        continue
                out.append(SweepRow(
                    scale=scale, alpha=alpha, bound=bound,
                    lambda_c_avg=float(quote.charging_price.mean()),
                    x_hat=quote.per_kwh))
    return out


def check_sweep_monotonicity(rows, slack=1e-9):
    """Violation messages for the documented sweep orderings (empty = ok).

    Checks, on the feasible cells: both value columns (lambda_c_avg and
    x_hat) nondecreasing in scale within each (alpha, bound) and
    nonincreasing in alpha within each (scale, bound); the upper-lower
    bound spread of x_hat nondecreasing as alpha falls, and strictly
    wider at the smallest alpha than at the largest, within each scale.
    """
    cells = {(r.scale, r.alpha, r.bound): r for r in rows if r.feasible}
    scales = sorted({r.scale for r in rows})
    alphas = sorted({r.alpha for r in rows}, reverse=True)
    bounds = []
    for r in rows:
        if r.bound not in bounds:
            bounds.append(r.bound)
    bad = []
    columns = (("lambda_c_avg", lambda r: r.lambda_c_avg),
               ("x_hat", lambda r: r.x_hat))

    for name, col in columns:
        for alpha in alphas:
            for bound in bounds:
                seq = [(s, col(cells[(s, alpha, bound)])) for s in scales
                       if (s, alpha, bound) in cells]
                for (s0, v0), (s1, v1) in zip(seq, seq[1:]):
                    if v1 < v0 - slack:
                        bad.append(
                            f"{name} falls with scale {s0}->{s1} at "
                            f"alpha={alpha} bound={bound}: {v0} -> {v1}")
        for scale in scales:
            for bound in bounds:
                seq = [(a, col(cells[(scale, a, bound)])) for a in alphas
                       if (scale, a, bound) in cells]
                for (a0, v0), (a1, v1) in zip(seq, seq[1:]):
                    if v1 < v0 - slack:
                        bad.append(
                            f"{name} falls as alpha drops {a0}->{a1} at "
                            f"scale={scale} bound={bound}: {v0} -> {v1}")
    if "lower" in bounds and "upper" in bounds:
        for scale in scales:
            spreads = []
            for a in alphas:
                lo = cells.get((scale, a, "lower"))
                hi = cells.get((scale, a, "upper"))
                if lo is not None and hi is not None:
                    spreads.append((a, hi.x_hat - lo.x_hat))
            for (a0, s0), (a1, s1) in zip(spreads, spreads[1:]):
                if s1 < s0 - slack:
                    bad.append(f"bound spread narrows as alpha drops "
                               f"{a0}->{a1} at scale={scale}: {s0} -> {s1}")
            if len(spreads) >= 2 and not spreads[-1][1] > spreads[0][1]:
                bad.append(f"bound spread at alpha={spreads[-1][0]} not "
                           f"strictly wider than at alpha={spreads[0][0]} "
                           f"for scale={scale}")
    return bad
