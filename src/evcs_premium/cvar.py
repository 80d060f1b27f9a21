"""Risk-averse charging prices and robust premium bounds.

The charging station picks its price vector by minimizing ||lambda||^2
subject to a CVaR restriction keeping the alpha-tail of its per-day net
cost nonpositive:

    min ||lambda||^2  s.t.  lambda >= 0,  CVaR_alpha(a - m D lambda) <= 0

with m = Gamma_p(gamma - 1) + 1 and a^s the lambda-free part of the
worst-case day cost. The insurer side is the premium fixed point
x = f(x) = CL(lambda(x)), one core (robust_premium_bilevel) for the
bi-level quote and for the principal of the tri-level CCG round. f is
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
Otherwise a program runs there, from no cuts like the first one.

The price program is solved exactly by cutting planes. CVaR_alpha(c) <= 0
holds exactly when w.c <= 0 for every vertex w of the risk envelope
Q_alpha = {w : sum w = 1, 0 <= w^s <= phi^s/alpha} (Rockafellar &
Uryasev, J. Risk 2000). At the current prices the sort-and-fill vertex
of cvar_sup is the most violated one (a one-hot on the worst day at
alpha = 0, phi itself at alpha = 1); it enters the master problem as the
cut m (D^T w).lambda >= a.w. The master, a minimum-norm point under
finitely many cuts, is a least-distance program. With one cut it is the
projection onto that cut, in closed form (a cut that is not violated at
lambda = 0 gives lambda = 0); with more it is solved by Lawson-Hanson NNLS
(Solving Least Squares Problems, 1974, ch. 23) and polished by one exact
solve on its rows with positive multipliers, a QR and two LU solves made
by direct LAPACK calls. The slope of the prices in x (below) is read off
the final master only. The rounds end when the most violated vertex is
already a cut or not violated at all; Q_alpha has finitely many vertices,
so they are finite.

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
from .backend import worst_residual
from scipy.linalg import lapack
from scipy.optimize import nnls

BOUND_MODES = ("lower", "expected", "upper")
# the default run matrix of the case study: demand scales and tail levels
DEFAULT_SCALES = (1, 100, 400, 800, 1000)
DEFAULT_ALPHAS = (1.0, 0.5, 0.0)


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
    if not np.isfinite(hi):
        raise RiskError(f"{name} interval must be finite, got ({lo}, {hi})")
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
    alpha: float
    active_cuts: np.ndarray      # (k, S) risk-envelope vertices with y > 0
    price_slope: np.ndarray      # (T,) d lambda / d x_hat on that active set
    cut_multipliers: np.ndarray  # (k,) their multipliers y
    multiplier_slope: np.ndarray  # (k,) d y / d x_hat on that active set

    def __post_init__(self):
        for name in ("charging_price", "zeta", "varphi", "mu", "beta",
                     "active_cuts", "price_slope", "cut_multipliers",
                     "multiplier_slope"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        for name in ("zeta", "varphi", "mu", "beta"):
            arr = getattr(self, name)
            low = float(arr.min()) if arr.size else 0.0
            if low < -1e-9:
                raise RiskError(f"{name} must be nonnegative, min {low}")
        if self.eta < -1e-9:
            raise RiskError(f"eta must be nonnegative, got {self.eta}")
        # both identities scale with the multipliers, so their gates do too
        total, mu_sum = float(self.varphi.sum()), float(self.mu.sum())
        if not abs(total - self.eta) <= 1e-7 * (1.0 + self.eta):
            raise RiskError(
                f"sum of scenario multipliers {total} must equal "
                f"eta {self.eta} within 1e-7 (1 + eta)")
        lhs = (1.0 - self.alpha) * total
        if not abs(lhs - mu_sum) <= 1e-6 * (1.0 + total):
            raise RiskError(
                f"(1-alpha) sum(varphi) = {lhs} and sum(mu) = {mu_sum} "
                "must agree within 1e-6 (1 + sum(varphi))")


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
    # a stable descending sort: ties stay in day order
    cost = costs.tolist()
    order = sorted(range(len(cost)), key=cost.__getitem__, reverse=True)
    if alpha == 1.0:
        return weights.copy(), order[-1]
    w = np.zeros(len(cost))
    if alpha == 0.0:
        w[order[0]] = 1.0
        return w, order[0]
    caps = weights / alpha
    cap = caps.tolist()
    # days before the running sum of caps reaches one are full
    k, filled = 0, 0.0
    for s in order[:-1]:
        filled += cap[s]
        if filled >= 1.0:
            break
        k += 1
    full = sorted(order[:k])
    last = order[k]
    w[full] = caps[full]
    w[last] = max(1.0 - float(w[full].sum()), 0.0)
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
    for name, values in (("costs", costs), ("weights", weights)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise RiskError(f"{name} must be finite, got "
                            f"{float(values[bad[0]])!r} at index {bad[0]}")
    if weights.min() < 0 or abs(weights.sum() - 1.0) > 1e-9:
        raise RiskError("weights must be a probability vector")
    w, _ = _tail_vertex(costs, weights, alpha)
    return float(w @ costs)


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
                        f"is {float(tar[s, t])!r}")
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
_dgeqrf, _dorgqr = lapack.dgeqrf, lapack.dorgqr
_dgesv, _dgetrs = lapack.dgesv, lapack.dgetrs


def _unpolished(n, k):
    """slope of a master point without an exact active-set solve."""
    return lambda dh: (np.full(n, np.nan), np.full(k, np.nan))


def _least_distance(g, h):
    """min ||x||^2 s.t. g x >= h over k cuts g (k, n).

    Returns (x, y, slope) with 2 x = g^T y, y >= 0, and slope(dh) -> (dx,
    dy), the derivatives of x and y as h moves along dh on the master's
    active set (NaN when unpolished; dy also when a polished multiplier is
    not positive). The slopes are only computed when asked for.

    One cut is solved in closed form: x = (h / |g|^2) g and y = 2 h / |g|^2
    for h > 0, the zero point otherwise. More cuts go through Lawson &
    Hanson's least-distance reduction, NNLS on [g^T; h^T] u ~ e_last: with
    r = E u - e_last, x = -r[:n] / r[n] = g^T u / (1 - h.u). The
    right-hand side is scaled to unit size first, which scales x alike.
    One exact solve on the rows with positive multipliers then polishes
    the point: the QR g_A^T = q r, and LU solves with r^T and r.
    """
    k, n = g.shape
    if k == 1:
        h0 = float(h[0])
        if h0 <= 0.0:
            return np.zeros(n), np.zeros(1), _unpolished(n, 1)
        row = g[0]
        gg = float(row @ row)
        if gg <= 1e-12 * (1.0 + gg):
            raise RiskError("least-distance master has inconsistent rows")
        t = h0 / gg
        return row * t, np.array([2.0 * t]), lambda dh: (
            row * (float(dh[0]) / gg), np.array([2.0 * float(dh[0]) / gg]))

    scale = float(np.abs(h).max()) or 1.0
    e = np.empty((n + 1, k))
    e[:n] = g.T
    e[n] = h / scale
    f = np.zeros(n + 1)
    f[n] = 1.0
    try:
        u, _ = nnls(e, f)
    except RuntimeError as exc:
        raise RiskError(f"least-distance master failed: {exc}") from None
    den = 1.0 - float(e[n] @ u)
    if den <= 1e-12:
        raise RiskError("least-distance master has inconsistent rows")
    y = u * (2.0 * scale / den)
    x = 0.5 * (g.T @ y)

    active = np.flatnonzero(u > 0.0)
    size = active.size
    if not 0 < size <= n:
        return x, y, _unpolished(n, k)
    qr, tau = _dgeqrf(g[active].T)[:2]
    q = _dorgqr(qr, tau)[0]
    r = qr[:size]
    for j in range(1, size):
        r[j, :j] = 0.0      # the reflectors stored below R's diagonal
    lu_t, piv_t, z, info = _dgesv(r.T, h[active])
    if info == 0:
        lu, piv, ya, info = _dgesv(r, z)
    if info != 0:
        return x, y, _unpolished(n, k)
    ya *= 2.0
    xp = q @ z
    low = float(ya.min())
    if not (low >= -1e-9 * (1.0 + float(np.abs(y).max()))
            and float((g @ xp - h).min()) >= -1e-9 * scale):
        return x, y, _unpolished(n, k)
    y = np.zeros(k)
    y[active] = np.maximum(ya, 0.0)

    def slope(dh):
        zd = _dgetrs(lu_t, piv_t, dh[active])[0]
        dy = np.full(k, np.nan)
        if low > 0.0:
            dy[active] = 2.0 * _dgetrs(lu, piv, zd)[0]
        return q @ zd, dy
    return xp, y, slope


def solve_risk_averse_evcs(days: TypicalDaySet, x_hat, config: RiskConfig,
                           tariff):
    """Minimum-norm charging prices keeping the alpha-tail cost nonpositive.

    tariff may be one (T,) schedule or a per-day (S, T) table in cents/kWh;
    x_hat is the premium surcharge in cents/kWh. Solved exactly by cutting
    planes over the vertices of the risk envelope (see the module
    docstring).
    """
    if not 0.0 <= x_hat < np.inf:
        raise RiskError(f"x_hat must be finite and nonnegative, got {x_hat}")
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

    # Cut rows are divided by a reference daily energy so the master stays
    # O(1) at any demand scale; their multipliers map back as y / d_ref.
    energy = d.sum(axis=1)       # d a^s / d x_hat
    d_ref = max(float(energy.mean()), 1e-9)
    cuts, rows, rhs, drhs = [], [], [], []
    keys = set()
    lam, y = np.zeros(n_hour), np.zeros(0)
    slope = None
    fresh = ()
    for _ in range(_MAX_CUT_ROUNDS):
        for w in fresh:
            key = w.tobytes()
            if key not in keys:
                keys.add(key)
                cuts.append(w)
                rows.append(m * (w @ d) / d_ref)
                rhs.append(float(w @ a) / d_ref)
                drhs.append(float(w @ energy) / d_ref)
        if len(fresh):
            lam, y, slope = _least_distance(np.array(rows), np.array(rhs))
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
    # only the returned master's slopes are computed
    dlam, dy = (np.zeros(n_hour), y) if slope is None else \
        slope(np.array(drhs))
    return _solution(days, alpha, m, costs, last, lam, dlam,
                     np.array(cuts).reshape(-1, n_day), y / d_ref,
                     dy / d_ref)


def _solution(days, alpha, m, costs, last, lam, dlam, cuts, y, dy):
    """CvarSolution at prices lam with day costs costs, whose tail vertex
    is filled by day last, and multipliers y >= 0 of the rows of cuts."""
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
    keep = y > 0.0
    return CvarSolution(charging_price=lam, v=v, zeta=zeta, eta=eta,
                        varphi=varphi, mu=mu, beta=beta, alpha=alpha,
                        active_cuts=cuts[keep], price_slope=dlam,
                        cut_multipliers=y[keep], multiplier_slope=dy[keep])


def _along_active_set(sol, step, days, x_hat, config, tar):
    """sol moved by step along its active set to x_hat: the CvarSolution
    there if it is optimal (prices and cut multipliers nonnegative, and
    the tail vertex an active cut or not violated), else None."""
    lam = sol.charging_price + step * sol.price_slope
    y = sol.cut_multipliers + step * sol.multiplier_slope
    if not (float(lam.min(initial=0.0)) >= 0.0
            and float(y.min(initial=0.0)) >= 0.0):
        return None
    m, a = _cost_pieces(days, x_hat, config.resolved_policy(), tar)
    costs = a - m * (days.demand_kw @ lam)
    w, last = _tail_vertex(costs, days.likelihood, config.alpha)
    if float(w @ costs) > 0.0 and not np.any(
            np.all(sol.active_cuts == w, axis=1)):
        return None
    return _solution(days, config.alpha, m, costs, last, lam,
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
        return worst_residual(self.families.values())


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


def dual_value(solution: CvarSolution, days: TypicalDaySet, x_hat,
               config: RiskConfig, tariff):
    """varphi.a - |lambda~|^2 with 2 lambda~ = m D^T varphi + beta: the
    price program's Lagrangian dual function at the solution's multipliers
    wherever stat_eta and stat_zeta hold, so by weak duality a lower bound
    on the optimal |lambda|^2, which it equals at a KKT point."""
    m, a = _cost_pieces(days, x_hat, config.resolved_policy(),
                        _day_tariff(days, tariff))
    varphi = solution.varphi
    lam = 0.5 * (m * (varphi @ days.demand_kw) + solution.beta)
    return float(varphi @ a) - float(lam @ lam)


_FP_TOL = 1e-12
_KKT_GATE = 1e-6


def robust_premium_bilevel(days: TypicalDaySet, config: RiskConfig, tariff,
                           *, x_start=None, max_iters=500):
    """Certified premium x = C * rev(lambda(x / sum_t D_t)) (cents), the
    fixed point of x -> CL(lambda(x)) at the configured box ends.

    rev is the likelihood-weighted charging revenue at the station's
    prices: the claim limit CL uses the original day likelihoods (the
    insurer does not observe the station's tilted weights). Safeguarded
    Newton steps from x_start, by default the closed-form premium (see
    the module docstring), run until |f(x) - x| <= 1e-12 (1 + |x|). The
    quote's trace holds the residual of each premium evaluated and
    iterations the price programs solved, so len(trace) - iterations
    points were verified along an active set; it carries the KKT
    certificate of its final solution. FixedPointError after max_iters
    evaluations.
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
    if not 0.0 <= x < np.inf:
        raise RiskError(
            f"x_start must be finite and nonnegative, got {x_start}")

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
        if worst is None or not worst <= _KKT_GATE:
            point = sol = solve_risk_averse_evcs(days, x / total, config,
                                                 tariff)
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
        worst = kkt_report(point, days, x / total, config,
                           tariff).max_residual
    if not worst <= _KKT_GATE:
        raise RiskError(f"optimality certificate failed: max scaled "
                        f"residual {worst:g}")
    return PremiumQuote(
        premium=x, per_kwh=x / total, charging_price=point.charging_price,
        bound_mode=config.bound_mode, alpha=config.alpha,
        trace=tuple(trace), iterations=programs, solution=point,
        kkt_max_residual=worst, total_demand=total)
