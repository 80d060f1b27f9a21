"""Risk-averse charging prices and robust premium bounds.

The charging station picks its price vector by minimizing ||lambda||^2
subject to a CVaR restriction keeping the alpha-tail of its per-day net
cost nonpositive:

    min ||lambda||^2  s.t.  lambda >= 0,  CVaR_alpha(a - m D lambda) <= 0

with m = Gamma_p(gamma - 1) + 1 and a^s the lambda-free part of the
worst-case day cost. The insurer side is the premium fixed point
x = f(x) = CL(lambda(x)), one core (premium_fixed_point) for the bi-level
quote and for the principal of the tri-level CCG round. f is
nondecreasing with slope below C/M < 1. On a fixed active set lambda is
affine in x (the cut right-hand sides w.a move with x), so the Newton
step x + g / (1 - f') on g = f - x, with f' read from the final master's
QR, lands on the root unless the active set changes on the way. It
starts from the closed-form premium, exact at alpha = 1. A Newton point
outside the bracket the signs of g give, or an unusable slope, falls
back to the plain step x -> f(x), damped after 50 iterations. A new
iterate is first reached without a price program: lambda and the cut
multipliers are carried to it along the last active set (the homotopy of
parametric active-set QP; Ferreau et al., Math. Prog. Comp. 2014), and
the point is verified when they stay nonnegative, the cutting-plane stop
rule holds, g passes the tolerance and the KKT certificate its gate.
Otherwise a program runs there, its master started from the active cuts
of the previous one, valid inequalities of the new program, so it
usually settles in one solve.

The price program is solved exactly by cutting planes. CVaR_alpha(c) <= 0
holds exactly when w.c <= 0 for every vertex w of the risk envelope
Q_alpha = {w : sum w = 1, 0 <= w^s <= phi^s/alpha} (Rockafellar &
Uryasev, J. Risk 2000). At the current prices the sort-and-fill vertex
of cvar_sup is the most violated one (a one-hot on the worst day at
alpha = 0, phi itself at alpha = 1); it enters the master problem as the
cut m (D^T w).lambda >= a.w. The master, a minimum-norm point under
finitely many cuts, is a least-distance program solved by Lawson-Hanson
NNLS (Solving Least Squares Problems, 1974, ch. 23) and polished by one
exact solve on its rows with positive multipliers. The rounds end when the
most violated vertex is already a cut or not violated at all; Q_alpha
has finitely many vertices, so they are finite.

Feasibility is decided in closed form. Since p_attack and risk_share lie
in [0, 1], m >= 0. For m > 0 the program is always feasible (raising the
prices lowers every day cost with demand, and a zero-demand day has
a^s = 0); for m = 0 the costs do not depend on the prices, so it is
feasible exactly when CVaR_alpha(a) <= 0, at lambda = 0.

The certificate is reported in the conventions of the break-even program

    min ||lambda||^2
    s.t. v + sum_s phi^s zeta^s <= 0            (eta >= 0)
         alpha zeta^s + v + m d^s.lambda >= a^s (varphi^s >= 0)
         zeta >= 0 (mu), lambda >= 0 (beta)

(alpha = 0 degenerates to the pure worst-case epigraph: v bounded above
by zero, one cost row per day). With y_j the multiplier of cut w_j,
varphi = sum_j y_j w_j, v is the VaR level and zeta = (c - v)_+ / alpha,
and stationarity then reads, exactly as verified by kkt_report:

    2 lambda_t - m sum_s varphi^s d_t^s - beta_t = 0
    eta - sum_s varphi^s = 0
    eta phi^s - alpha varphi^s - mu^s = 0

Units: demand in kW, prices in cents/kWh, premiums in cents.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .analytic import (
    PolicyFactors,
    TypicalDaySet,
    closed_form_premium,
    composite_C,
    premium_multiplier_M,
)
from scipy.optimize import nnls

BOUND_MODES = ("lower", "expected", "upper")


class RiskError(ValueError):
    """Invalid risk configuration or failed certification."""


class RiskInfeasibleError(RiskError):
    """The station cannot break even at any nonnegative price."""


class FixedPointError(RiskError):
    """Premium iteration failed to converge; carries the residual trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = tuple(trace)


def _interval(name, pair, lo_ok, hi_ok):
    lo, hi = (float(pair[0]), float(pair[1]))
    if not lo_ok <= lo <= hi:
        raise RiskError(f"{name} interval must satisfy {lo_ok} <= lo <= hi, "
                        f"got ({lo}, {hi})")
    if hi > hi_ok:
        raise RiskError(f"{name} upper bound {hi} outside domain (max {hi_ok})")
    return lo, hi


@dataclass(frozen=True)
class PolicyBox:
    """Intervals for the three uncertain policy factors.

    p_attack: bounds on the attack probability
    loading: bounds on the profit loading factor r
    history_coeff: bounds on the attack-history coefficient kappa
    """

    p_attack: tuple
    loading: tuple
    history_coeff: tuple

    def __post_init__(self):
        object.__setattr__(self, "p_attack",
                           _interval("p_attack", self.p_attack, 0.0, 1.0))
        object.__setattr__(self, "loading",
                           _interval("loading", self.loading, 0.0,
                                     np.nextafter(1.0, 0.0)))
        object.__setattr__(self, "history_coeff",
                           _interval("history_coeff", self.history_coeff,
                                     0.0, np.inf))

    @classmethod
    def point(cls, policy: PolicyFactors):
        """Degenerate box collapsed onto one policy's estimates."""
        return cls((policy.p_attack, policy.p_attack),
                   (policy.loading, policy.loading),
                   (policy.history_coeff, policy.history_coeff))

    def select(self, mode):
        """(p_attack, loading, history_coeff) at the requested box ends."""
        if mode == "lower":
            return (self.p_attack[0], self.loading[0], self.history_coeff[0])
        if mode == "upper":
            return (self.p_attack[1], self.loading[1], self.history_coeff[1])
        if mode == "expected":
            return (0.5 * (self.p_attack[0] + self.p_attack[1]),
                    0.5 * (self.loading[0] + self.loading[1]),
                    0.5 * (self.history_coeff[0] + self.history_coeff[1]))
        raise RiskError(f"bound mode must be one of {BOUND_MODES}, got {mode!r}")


@dataclass(frozen=True)
class RiskConfig:
    """Tail level, uncertainty box, and the point policy carrying the
    factors that are not box-constrained (risk share, attack count,
    outage penalty)."""

    alpha: float
    policy_box: PolicyBox
    policy: PolicyFactors
    bound_mode: str = "expected"

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise RiskError(f"alpha must be in [0,1], got {self.alpha}")
        if self.bound_mode not in BOUND_MODES:
            raise RiskError(
                f"bound mode must be one of {BOUND_MODES}, got {self.bound_mode!r}")

    def resolved_policy(self):
        """Base policy with the box-constrained factors replaced by the
        bound_mode selection (lower ends, midpoints, or upper ends)."""
        return self._resolved

    @functools.cached_property
    def _resolved(self):
        p, r, k = self.policy_box.select(self.bound_mode)
        return dataclasses.replace(self.policy, p_attack=p, loading=r,
                                   history_coeff=k)


@dataclass(frozen=True)
class CvarSolution:
    """Primal/dual pair of the risk-averse price program."""

    charging_price: np.ndarray   # (T,) cents/kWh
    v: float
    zeta: np.ndarray             # (S,)
    eta: float
    varphi: np.ndarray           # (S,) scenario multipliers
    mu: np.ndarray               # (S,)
    beta: np.ndarray             # (T,)
    cvar_value: float
    tilted_weights: np.ndarray   # varphi / eta (original weights if eta = 0)
    alpha: float
    active_cuts: np.ndarray      # (k, S) risk-envelope vertices with y > 0
    price_slope: np.ndarray      # (T,) d lambda / d x_hat on that active set
    cut_multipliers: np.ndarray  # (k,) their multipliers y
    multiplier_slope: np.ndarray  # (k,) d y / d x_hat on that active set

    def __post_init__(self):
        for name in ("charging_price", "zeta", "varphi", "mu", "beta",
                     "tilted_weights", "active_cuts", "price_slope",
                     "cut_multipliers", "multiplier_slope"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        for name in ("zeta", "varphi", "mu", "beta"):
            arr = getattr(self, name)
            if arr.size and arr.min() < -1e-9:
                raise RiskError(f"{name} must be nonnegative, min {arr.min()}")
        if self.eta < -1e-9:
            raise RiskError(f"eta must be nonnegative, got {self.eta}")
        if abs(self.varphi.sum() - self.eta) > 1e-7:
            raise RiskError(
                f"sum of scenario multipliers {self.varphi.sum()} must equal "
                f"eta {self.eta} within 1e-7")
        lhs = (1.0 - self.alpha) * self.varphi.sum()
        if abs(lhs - self.mu.sum()) > 1e-6:
            raise RiskError(
                f"(1-alpha) sum(varphi) = {lhs} and sum(mu) = {self.mu.sum()} "
                "must agree within 1e-6")


@dataclass(frozen=True)
class PremiumQuote:
    """Premium fixed point with its price schedule and certificate."""

    premium: float               # cents
    per_kwh: float               # cents/kWh
    charging_price: np.ndarray   # (T,) cents/kWh
    bound_mode: str
    alpha: float
    trace: tuple                 # fixed-point residual per evaluated premium
    iterations: int              # price programs solved
    solution: CvarSolution
    kkt_max_residual: float
    total_demand: float          # sum_t D_t, kWh

    def __post_init__(self):
        object.__setattr__(self, "charging_price",
                           np.asarray(self.charging_price, dtype=float))
        if self.premium < -1e-9:
            raise RiskError(f"premium must be nonnegative, got {self.premium}")
        if abs(self.per_kwh * self.total_demand - self.premium) \
                > 1e-9 * (1.0 + abs(self.premium)):
            raise RiskError("per-kWh premium does not resolve to the total")

    @property
    def premium_dollars(self):
        return self.premium / 100.0


def _tail_vertex(costs, weights, alpha):
    """Sort-and-fill maximizer of w.costs over Q_alpha.

    Returns (w, last): the vertex and the day that fills its unit mass,
    whose cost is the VaR level. The weights are computed from the set of
    fully weighted days and that filling day alone, so a vertex found
    twice is bitwise the same. alpha = 0 gives the one-hot vector on the
    worst day, alpha = 1 the weights themselves (filled last by the
    cheapest day).
    """
    order = np.argsort(-costs, kind="stable")
    if alpha == 1.0:
        return weights.copy(), int(order[-1])
    w = np.zeros(costs.size)
    if alpha == 0.0:
        last = int(order[0])
        w[last] = 1.0
        return w, last
    caps = weights / alpha
    k = min(int(np.searchsorted(np.cumsum(caps[order]), 1.0)),
            costs.size - 1)
    full = np.sort(order[:k])
    last = int(order[k])
    w[full] = caps[full]
    w[last] = max(1.0 - w[full].sum(), 0.0)
    return w, last


def cvar_sup(costs, weights, alpha):
    """CVaR_alpha as the sup of reweighted expectations.

    Exact over Q_alpha = {w : sum w = 1, 0 <= w^s <= phi^s/alpha} by the
    sort-and-fill greedy; alpha = 0 is the plain maximum and alpha = 1
    the plain expectation.
    """
    costs = np.asarray(costs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if not 0.0 <= alpha <= 1.0:
        raise RiskError(f"alpha must be in [0,1], got {alpha}")
    if costs.shape != weights.shape or costs.ndim != 1 or costs.size == 0:
        raise RiskError("costs and weights must be matching 1-d arrays")
    if not np.all(np.isfinite(costs)):
        raise RiskError("costs must be finite")
    if weights.min() < 0 or abs(weights.sum() - 1.0) > 1e-9:
        raise RiskError("weights must be a probability vector")
    w, _ = _tail_vertex(costs, weights, alpha)
    return float(w @ costs)


def worst_case_scenario_cost(demand_kw, charging_price, tariff, x_hat,
                             gamma_p, risk_share, penalty_cents_per_kw):
    """One day's net cost under attack probability gamma_p.

    (1-G) sum_t d_t (lu_t - lc_t) + G sum_t d_t (rho_c - gamma lc_t)
    + x_hat sum_t d_t, everything in cents.
    """
    d = np.asarray(demand_kw, dtype=float)
    lc = np.asarray(charging_price, dtype=float)
    lu = np.asarray(tariff, dtype=float)
    return float((1.0 - gamma_p) * np.sum(d * (lu - lc))
                 + gamma_p * np.sum(d * (penalty_cents_per_kw
                                         - risk_share * lc))
                 + x_hat * d.sum())


def _day_tariff(days: TypicalDaySet, tariff):
    tar = np.asarray(tariff, dtype=float)
    if tar.ndim == 1:
        tar = np.broadcast_to(tar, days.demand_kw.shape)
    if tar.shape != days.demand_kw.shape:
        raise RiskError(
            f"tariff shape {tar.shape} incompatible with demand "
            f"{days.demand_kw.shape}")
    finite = np.isfinite(tar)
    if not finite.all():
        s, t = np.argwhere(~finite)[0]
        raise RiskError(f"tariff must be finite: day index {s} hour {t + 1} "
                        f"is {tar[s, t]!r}")
    return tar


def _cost_pieces(days, x_hat, policy, tar):
    """m and the lambda-free day costs a^s (cents) at tar, from _day_tariff."""
    gamma_p = policy.p_attack
    rho_c = policy.penalty_cents_per_kw()
    m = premium_multiplier_M(policy)
    d = days.demand_kw
    a = ((1.0 - gamma_p) * np.sum(d * tar, axis=1)
         + (gamma_p * rho_c + x_hat) * d.sum(axis=1))
    return m, a


_MAX_CUT_ROUNDS = 200


def _least_distance(g, h, dh):
    """min ||x||^2 s.t. g x >= h, as NNLS on [g^T; h^T] u ~ e_last.

    Lawson & Hanson's least-distance reduction: with r = E u - e_last,
    x = -r[:n] / r[n] = g^T u / (1 - h.u). The right-hand side is scaled
    to unit size first, which scales x alike. One exact solve on the rows
    with positive multipliers then polishes the point. Returns (x, y, dx,
    dy) with 2 x = g^T y, y >= 0 and dx, dy the derivatives of x and y as
    h moves along dh on that active set, read from the same QR (NaN when
    unpolished; dy also when a polished multiplier is not positive).
    """
    scale = float(np.abs(h).max(initial=0.0)) or 1.0
    hs = h / scale
    e = np.vstack([g.T, hs])
    f = np.zeros(e.shape[0])
    f[-1] = 1.0
    try:
        u, _ = nnls(e, f)
    except RuntimeError as exc:
        raise RiskError(f"least-distance master failed: {exc}") from None
    den = 1.0 - float(hs @ u)
    if den <= 1e-12:
        raise RiskError("least-distance master has inconsistent rows")
    y = u * (2.0 * scale / den)
    x = 0.5 * (g.T @ y)

    dx, dy = np.full(x.size, np.nan), np.full(h.size, np.nan)
    active = np.flatnonzero(u > 0.0)
    if 0 < active.size <= g.shape[1]:
        q, r = np.linalg.qr(g[active].T)
        try:
            z = np.linalg.solve(r.T, h[active])
            ya = 2.0 * np.linalg.solve(r, z)
        except np.linalg.LinAlgError:
            return x, y, dx, dy
        xp = q @ z
        size = 1.0 + float(np.abs(y).max())
        if (ya.min() >= -1e-9 * size
                and float(np.min(g @ xp - h)) >= -1e-9 * scale):
            y = np.zeros(h.size)
            y[active] = np.maximum(ya, 0.0)
            zd = np.linalg.solve(r.T, dh[active])
            x, dx = xp, q @ zd
            if ya.min() > 0.0:
                dy[active] = 2.0 * np.linalg.solve(r, zd)
    return x, y, dx, dy


def solve_risk_averse_evcs(days: TypicalDaySet, x_hat, config: RiskConfig,
                           tariff, *, seed_cuts=None):
    """Minimum-norm charging prices keeping the alpha-tail cost nonpositive.

    tariff may be one (T,) schedule or a per-day (S, T) table in cents/kWh;
    x_hat is the premium surcharge in cents/kWh. Solved exactly by cutting
    planes over the vertices of the risk envelope (see the module
    docstring).

    seed_cuts, a (k, S) array of points of Q_alpha such as the
    active_cuts of an earlier solution on the same days and alpha, enters
    the first master problem. Every such w gives a valid inequality
    w.(a - m D lambda) <= 0 of the program, so the optimum is unchanged;
    when the seeds hold the optimal active set the program settles in
    one master solve.
    """
    if x_hat < 0:
        raise RiskError(f"x_hat must be nonnegative, got {x_hat}")
    policy = config.resolved_policy()
    m, a = _cost_pieces(days, x_hat, policy, _day_tariff(days, tariff))
    d = days.demand_kw
    phi = days.likelihood
    n_day, n_hour = d.shape
    alpha = config.alpha
    if m == 0.0 and cvar_sup(a, phi, alpha) > 0.0:
        if alpha == 0.0:
            raise RiskInfeasibleError(
                f"no nonnegative price covers the worst day (m={m:g}); "
                "the station cannot break even")
        raise RiskInfeasibleError(
            f"no nonnegative price satisfies the alpha={alpha} tail "
            f"constraint (m={m:g}); the station cannot break even")
    seeds = np.zeros((0, n_day))
    if seed_cuts is not None:
        seeds = np.asarray(seed_cuts, dtype=float)
        if seeds.ndim != 2 or seeds.shape[1] != n_day or not (
                np.all(seeds >= 0.0)
                and np.all(np.abs(seeds.sum(axis=1) - 1.0) <= 1e-9)
                and np.all(alpha * seeds <= phi + 1e-9)):
            raise RiskError(f"seed_cuts must be points of the alpha={alpha} "
                            f"risk envelope over {n_day} days")

    # Cut rows are divided by a reference daily energy so the master stays
    # O(1) at any demand scale; their multipliers map back as y / d_ref.
    energy = d.sum(axis=1)       # d a^s / d x_hat
    d_ref = max(float(energy.mean()), 1e-9)
    cuts, rows, rhs, drhs = [], [], [], []
    keys = set()
    lam, dlam = np.zeros(n_hour), np.zeros(n_hour)
    y = dy = np.zeros(0)
    fresh = seeds
    for _ in range(_MAX_CUT_ROUNDS):
        for w in fresh:
            if w.tobytes() not in keys:
                keys.add(w.tobytes())
                cuts.append(w)
                rows.append(m * (w @ d) / d_ref)
                rhs.append(float(w @ a) / d_ref)
                drhs.append(float(w @ energy) / d_ref)
        if len(fresh):
            lam, y, dlam, dy = _least_distance(
                np.vstack(rows), np.array(rhs), np.array(drhs))
        costs = a - m * (d @ lam)
        w, last = _tail_vertex(costs, phi, alpha)
        # A repeated vertex is satisfied up to rounding by the master's
        # point; a nonpositive value means the point is feasible outright.
        if w.tobytes() in keys or float(w @ costs) <= 0.0:
            break
        fresh = [w]
    else:
        raise RiskError(
            f"price program cutting planes did not settle in "
            f"{_MAX_CUT_ROUNDS} rounds")
    return _solution(days, alpha, m, costs, w, last, lam, dlam,
                     np.array(cuts).reshape(-1, n_day), y / d_ref,
                     dy / d_ref)


def _solution(days, alpha, m, costs, w, last, lam, dlam, cuts, y, dy):
    """CvarSolution at prices lam with day costs costs, tail vertex w
    (filled by day last) and multipliers y >= 0 of the rows of cuts."""
    phi = days.likelihood
    varphi = y @ cuts
    eta = float(varphi.sum())
    mu = np.maximum(eta * phi - alpha * varphi, 0.0)
    beta = np.maximum(2.0 * lam - m * (varphi @ days.demand_kw), 0.0)
    if alpha == 0.0:
        v = min(float(costs.max()), 0.0)
        zeta = np.zeros(costs.size)
    else:
        v = float(costs[last])
        zeta = np.maximum(costs - v, 0.0) / alpha
    tilted = varphi / eta if eta > 1e-12 else phi.copy()
    keep = y > 0.0
    return CvarSolution(charging_price=lam, v=v, zeta=zeta, eta=eta,
                        varphi=varphi, mu=mu, beta=beta,
                        cvar_value=float(w @ costs), tilted_weights=tilted,
                        alpha=alpha, active_cuts=cuts[keep],
                        price_slope=dlam, cut_multipliers=y[keep],
                        multiplier_slope=dy[keep])


def _along_active_set(sol, step, days, x_hat, config, tar):
    """sol moved by step along its active set to x_hat: the CvarSolution
    there if it is optimal (prices and cut multipliers nonnegative, and
    the tail vertex an active cut or not violated), else None."""
    lam = sol.charging_price + step * sol.price_slope
    y = sol.cut_multipliers + step * sol.multiplier_slope
    if not (lam.min(initial=0.0) >= 0.0 and y.min(initial=0.0) >= 0.0):
        return None
    m, a = _cost_pieces(days, x_hat, config.resolved_policy(), tar)
    costs = a - m * (days.demand_kw @ lam)
    w, last = _tail_vertex(costs, days.likelihood, config.alpha)
    if float(w @ costs) > 0.0 and not np.any(
            np.all(sol.active_cuts == w, axis=1)):
        return None
    return _solution(days, config.alpha, m, costs, w, last, lam,
                     sol.price_slope, sol.active_cuts, y,
                     sol.multiplier_slope)


@dataclass(frozen=True)
class KktReport:
    """Scale-free residuals of the price program's optimality system.

    Each family's residual is divided by one plus the magnitude of its
    participating terms, so the 1e-6 certification threshold means the
    same thing at desk scale and at 1000x demand.
    """

    families: dict

    @property
    def max_residual(self):
        return max(self.families.values())


def _rel(raw, scale):
    """Largest raw / (1 + scale) over the entries of a family."""
    return float(np.max(raw / (1.0 + scale)))


def kkt_report(solution: CvarSolution, days: TypicalDaySet, x_hat,
               config: RiskConfig, tariff):
    """Evaluate every optimality condition family at a returned solution."""
    if solution.alpha != config.alpha:
        raise RiskError("solution and config disagree on alpha")
    m, a = _cost_pieces(days, x_hat, config.resolved_policy(),
                        _day_tariff(days, tariff))
    d, phi, alpha = days.demand_kw, days.likelihood, config.alpha
    lam, zeta, varphi = solution.charging_price, solution.zeta, solution.varphi
    v, eta, mu, beta = solution.v, solution.eta, solution.mu, solution.beta
    # scalar families in Python floats: numpy's IEEE results, less overhead
    phi_sum, mu_sum = float(varphi.sum()), float(mu.sum())

    ctilde = a - m * (d @ lam)
    cvar_slack = v + float(phi @ zeta)           # <= 0
    day_slack = ctilde - v - alpha * zeta        # <= 0

    fam = {}
    fam["primal_cvar"] = max(0.0, cvar_slack) / (
        1.0 + (abs(v) + float(np.abs(phi * zeta).sum())))
    fam["primal_scenario"] = _rel(np.maximum(day_slack, 0.0),
                                  np.abs(ctilde) + abs(v) + alpha * zeta)
    fam["primal_nonneg"] = max(0.0, float(-zeta.min(initial=0.0)),
                               float(-lam.min(initial=0.0)))
    fam["dual_nonneg"] = max(
        0.0, -eta, float(-varphi.min(initial=0.0)),
        float(-mu.min(initial=0.0)), float(-beta.min(initial=0.0)))
    fam["comp_cvar"] = abs(eta * cvar_slack) / (
        1.0 + (eta + abs(cvar_slack)))
    fam["comp_scenario"] = _rel(np.abs(varphi * day_slack),
                                varphi + np.abs(day_slack))
    fam["comp_zeta"] = _rel(np.abs(mu * zeta), mu + zeta)
    fam["comp_lambda"] = _rel(np.abs(beta * lam), beta + lam)
    fam["stat_zeta"] = _rel(np.abs(eta * phi - alpha * varphi - mu),
                            eta * phi + alpha * varphi + mu)
    fam["stat_eta"] = abs(eta - phi_sum) / (1.0 + (eta + phi_sum))
    weighted = m * (varphi @ d)
    fam["stat_lambda"] = _rel(np.abs(2.0 * lam - weighted - beta),
                              2.0 * np.abs(lam) + np.abs(weighted) + beta)
    fam["identity_19"] = abs((1.0 - alpha) * phi_sum - mu_sum) / (
        1.0 + (phi_sum + mu_sum))
    return KktReport(fam)


_FP_TOL = 1e-12
_KKT_GATE = 1e-6


def _certified(solution, days, x_hat, config, tariff):
    """kkt_report's worst residual; RiskError above the 1e-6 gate."""
    worst = kkt_report(solution, days, x_hat, config, tariff).max_residual
    if worst > _KKT_GATE:
        raise RiskError(f"optimality certificate failed: max scaled "
                        f"residual {worst:g}")
    return worst


def premium_fixed_point(days: TypicalDaySet, config: RiskConfig, tariff, *,
                        x_start=None, max_iters=500):
    """Certified premium x = C * rev(lambda(x / sum_t D_t)) (cents).

    rev is the likelihood-weighted charging revenue at the station's
    prices. Safeguarded Newton steps from x_start, by default the
    closed-form premium (see the module docstring), run until
    |f(x) - x| <= 1e-12 (1 + |x|). The quote's trace holds the residual
    of each premium evaluated and iterations the price programs solved,
    so len(trace) - iterations points were verified along an active set;
    it carries the KKT certificate of its final solution.
    FixedPointError after max_iters evaluations.
    """
    policy = config.resolved_policy()
    c_comp = composite_C(policy)
    total = float(days.weighted_demand.sum())
    if total <= 0:
        raise RiskError("typical days carry no demand")
    if c_comp >= premium_multiplier_M(policy):
        raise RiskError(
            f"composite factor C={c_comp:g} at or above the demand "
            f"multiplier M={premium_multiplier_M(policy):g}; "
            "the premium recursion has no finite fixed point")
    tar = _day_tariff(days, tariff)
    if x_start is None:
        x_start = max(closed_form_premium(policy, days, tar).premium, 0.0)
    x = float(x_start)
    if x < 0:
        raise RiskError(f"x_start must be nonnegative, got {x_start}")

    def gap(point):
        return c_comp * float(days.likelihood @ (days.demand_kw
                                                 @ point.charging_price)) - x

    lo, hi = 0.0, np.inf
    trace = []
    sol = x_sol = None
    programs = 0
    for k in range(max_iters):
        tol = _FP_TOL * (1.0 + abs(x))
        point = None if sol is None else _along_active_set(
            sol, x / total - x_sol / total, days, x / total, config, tar)
        # a verified point must also pass the gate, or its program runs
        worst = None if point is None or not abs(gap(point)) <= tol else \
            kkt_report(point, days, x / total, config, tariff).max_residual
        if worst is None or worst > _KKT_GATE:
            point = sol = solve_risk_averse_evcs(
                days, x / total, config, tariff,
                seed_cuts=None if sol is None else sol.active_cuts)
            x_sol, worst = x, None
            programs += 1
        g = gap(point)
        trace.append(abs(g))
        if abs(g) <= tol:
            break
        if g > 0.0:
            lo = max(lo, x)
        else:
            hi = min(hi, x)
        s = c_comp * float(days.likelihood @ (
            days.demand_kw @ sol.price_slope)) / total
        newton = x + g / (1.0 - s) if k < 50 and s < 1.0 else np.nan
        x = newton if lo < newton < hi else x + (g if k < 50 else 0.5 * g)
    else:
        raise FixedPointError(
            f"premium fixed point did not converge in {max_iters} "
            f"iterations (last residual {trace[-1]:g})", trace)

    if worst is None:
        worst = _certified(point, days, x / total, config, tariff)
    return PremiumQuote(
        premium=x, per_kwh=x / total, charging_price=point.charging_price,
        bound_mode=config.bound_mode, alpha=config.alpha,
        trace=tuple(trace), iterations=programs, solution=point,
        kkt_max_residual=worst, total_demand=total)


def robust_premium_bilevel(days: TypicalDaySet, config: RiskConfig, tariff):
    """Fixed point of x -> CL(lambda(x)) at the configured box ends.

    The claim limit CL uses the original day likelihoods (the insurer does
    not observe the station's tilted weights); premium_fixed_point from
    the closed-form start.
    """
    return premium_fixed_point(days, config, tariff)
