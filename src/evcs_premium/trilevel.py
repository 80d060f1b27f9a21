"""Tri-level premium: insurer over charging station over grid operator.

The grid level couples to the two upper levels only through parameters: the
charging demand enters each day's OPF as fixed load, so the operator's
optimality conditions pin the distribution tariff before any premium or
charging-price decision is made. Both solvers here exploit that.

solve_trilevel_direct freezes the per-day tariffs at the station bus and
runs the robust bi-level fixed point against them. ccg_solve runs a
column-and-constraint generation loop on the premium/price master problem:
the principal keeps the station's tail-cost feasibility rows plus the
accumulated price cuts (lambda_t >= previous response), the subproblem
recomputes the station's actual minimum-norm response at the principal's
premium, and the value gap between the two certifies optimality. Because
the norm cut on |lambda|^2 is implied componentwise by the price cuts, the
principal imposes the price cuts and the norm cuts are verified after the
fact.

The principal problem (min premium + |lambda|^2 subject to claim-loss
coverage, tail feasibility, and cuts) is solved through its optimality
structure rather than as one monolithic program: the coverage row binds at
any optimum (the objective is strictly increasing in the premium once
lambda is chosen minimally), which makes the optimal premium the unique
fixed point of premium -> claim_loss(min-norm cut-respecting price at that
premium). That is the premium fixed point of the bi-level quote with the
cut floor added, so both modes run cvar.premium_fixed_point; it converges
whenever the composite claim factor stays below the demand multiplier.
Its first principal and the subproblem solve the same program, so the
loop closes in round 1 (see ccg_solve). The grid blocks eliminated from
the principal are verified verbatim on the composed solution: per-day
primal feasibility, dual feasibility, and strong duality must all hold
within 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analytic import TypicalDaySet
from .backend import SolverOptions
from .cvar import PremiumQuote, RiskConfig, RiskError, _certified, \
    premium_fixed_point, robust_premium_bilevel, solve_risk_averse_evcs
from .dcopf import DcopfError, HOURS, Network, \
    dual_feasibility_check, evcs_tariff_cents, per_day_dlmps

DUALITY_GATE = 1e-8
CUT_SLACK = 1e-9


class TrilevelError(ValueError):
    pass


class CcgNonConvergenceError(TrilevelError):
    """Iteration limit hit; carries the bound trace for diagnosis."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = tuple(trace)


@dataclass(frozen=True)
class CcgCut:
    """One accumulated price cut: the station response of iteration k."""

    iteration: int
    charging_price: tuple
    norm_sq: float


@dataclass(frozen=True)
class CcgState:
    """Bounds and cut set after one principal/subproblem round.

    lower_bound is the subproblem value premium + |response|^2 and
    upper_bound the principal value premium + |principal price|^2; the
    principal price respects the cut floor while the response is free, so
    lower <= upper and both sequences rise toward the optimum as cuts
    accumulate. The cut list grows by exactly one per iteration (the
    response just produced); the first principal therefore runs cutless.
    """

    iteration: int
    lower_bound: float
    upper_bound: float
    premium: float
    cuts: tuple
    tolerance: float

    def __post_init__(self):
        if self.iteration < 1:
            raise TrilevelError("iterations count from 1")
        if len(self.cuts) != self.iteration:
            raise TrilevelError(
                f"iteration {self.iteration} must carry exactly "
                f"{self.iteration} cuts, got {len(self.cuts)}")
        if self.lower_bound > self.upper_bound + self.tolerance * (
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
    idx = network.bus_index()
    fam = {"balance": 0.0, "flow_angle": 0.0, "limits": 0.0,
           "dual_stationarity": 0.0, "dual_sign": 0.0, "duality_gap": 0.0}
    for s, res in enumerate(results):
        fam["balance"] = max(fam["balance"], res.balance_residual)
        for li, ln in enumerate(network.lines):
            coupled = (ln.reactance * res.flows[li]
                       - res.angles[idx[ln.from_bus]]
                       + res.angles[idx[ln.to_bus]])
            fam["flow_angle"] = max(fam["flow_angle"],
                                    float(np.max(np.abs(coupled))))
            over = np.abs(res.flows[li]) - ln.limit
            fam["limits"] = max(fam["limits"], float(np.max(over)))
        for gi, gen in enumerate(network.generators):
            g = res.dispatch[gi]
            fam["limits"] = max(fam["limits"],
                                float(np.max(g - gen.capacity)),
                                float(np.max(-g)))
        report = dual_feasibility_check(res, network)
        fam["dual_stationarity"] = max(fam["dual_stationarity"],
                                       report.max_residual)
        for block in (res.alpha_up, res.alpha_lo, res.delta_up,
                      res.delta_lo):
            fam["dual_sign"] = max(fam["dual_sign"],
                                   float(np.max(-block, initial=0.0)))
        gap = abs(res.c_ll - res.c_dll) / (1.0 + abs(res.c_ll))
        fam["duality_gap"] = max(fam["duality_gap"], gap)
    return fam


def _grid_blocks(network, days, options):
    """Per-day OPF results, station tariff table, and duality gaps."""
    results = per_day_dlmps(network, days, options=options)
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
                          config: RiskConfig, *,
                          options: SolverOptions | None = None):
    """Sequential oracle: freeze the tariff, then run the bi-level quote."""
    results, tariff, gaps = _grid_blocks(network, days, options)
    quote = robust_premium_bilevel(days, config, tariff)
    return TrilevelQuote(quote=quote, dlmp=tuple(results),
                         tariff_cents=tariff, duality_gaps=gaps,
                         mode="direct")


def ccg_solve(network: Network, days: TypicalDaySet, config: RiskConfig, *,
              tol=1e-6, max_iters=25,
              options: SolverOptions | None = None):
    """Column-and-constraint generation on the premium/price master.

    Each round solves the principal under the accumulated price cuts
    (premium_fixed_point with the cut floor), then the subproblem (the
    station's actual minimum-norm response at the principal's premium);
    the two values premium + |price|^2 bracket the optimum from below
    (subproblem) and above within the cut set (principal) and meet at the
    tri-level optimum. Stops when the gap falls under tol*(1+|upper|);
    raises after max_iters rounds.

    On this model the loop closes in round 1 whatever the data: the grid
    level only passes the tariff up, so the first principal (no cuts, a
    zero floor) and the subproblem solve the same price program at the
    same premium, and their values agree to rounding. CCG needs more
    rounds only when the recourse is coupled to the first-stage decision
    (Zeng & Zhao, Oper. Res. Lett. 2013); the loop is kept as the
    method of the paper and as a check of that argument.
    """
    results, tariff, gaps = _grid_blocks(network, days, options)
    floor = np.zeros(HOURS)
    cuts = []
    trace = []
    x_start = None
    for k in range(1, max_iters + 1):
        principal = premium_fixed_point(days, config, tariff, floor,
                                        x_start=x_start)
        price_p = principal.charging_price
        viol = float(np.max(floor - price_p, initial=0.0))
        if viol > CUT_SLACK:
            raise TrilevelError(
                f"iteration {k}: principal price violates an accumulated "
                f"cut by {viol:g}")
        norm_p = float(price_p @ price_p)
        for cut in cuts:
            if norm_p < cut.norm_sq - CUT_SLACK:
                raise TrilevelError(
                    f"iteration {k}: norm cut of iteration "
                    f"{cut.iteration} violated "
                    f"({norm_p:g} < {cut.norm_sq:g})")
        x_start = principal.premium
        upper = x_start + norm_p

        sub = solve_risk_averse_evcs(
            days, principal.per_kwh, config, tariff,
            seed_cuts=principal.solution.active_cuts)
        norm_s = float(sub.charging_price @ sub.charging_price)
        lower = x_start + norm_s

        cuts.append(CcgCut(iteration=k,
                           charging_price=tuple(sub.charging_price),
                           norm_sq=norm_s))
        floor = np.maximum(floor, sub.charging_price)
        state = CcgState(iteration=k, lower_bound=lower, upper_bound=upper,
                         premium=x_start, cuts=tuple(cuts), tolerance=tol)
        trace.append(state)
        if state.gap <= tol * (1.0 + abs(upper)):
            break
    else:
        raise CcgNonConvergenceError(
            f"no convergence in {max_iters} iterations "
            f"(last gap {trace[-1].gap:g})", trace)

    quote = replace(principal, charging_price=sub.charging_price,
                    trace=tuple(s.premium for s in trace),
                    iterations=len(trace), solution=sub,
                    kkt_max_residual=_certified(sub, days, principal.per_kwh,
                                                config, tariff))
    return TrilevelQuote(quote=quote, dlmp=tuple(results),
                         tariff_cents=tariff, duality_gaps=gaps,
                         mode="ccg", ccg_trace=tuple(trace))


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
                         options: SolverOptions | None = None,
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
                _, tariff, _ = _grid_blocks(network, scaled, options)
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
