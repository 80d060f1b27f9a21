"""Deterministic LP/QP backend with dual extraction.

The two entry points here, :func:`solve_lp` and :func:`solve_qp`, fix the
dual conventions in one place:

* ``duals[i]`` is the sensitivity of the optimal objective to the right-hand
  side of row ``i`` (d obj / d rhs). For a minimization this makes the dual of
  a binding ``>=`` row nonnegative and of a binding ``<=`` row nonpositive.
* ``reduced_lower[j]`` / ``reduced_upper[j]`` are the sensitivities to the
  variable bounds.

LPs (the OPF programs) go to the HiGHS dual simplex (Huangfu & Hall, Math.
Prog. Comp. 2018) through one thin adapter over scipy's bundled bindings:
the CSC rows and the row bounds read off the senses, under the options,
statuses and marginals of scipy's ``method="highs"`` LP interface, which
follow this convention. :func:`solve_lp` certifies each solution once,
per block of an LP stacked from equal blocks, as if each were solved alone.

QPs (diagonal positive semidefinite Hessian only) are solved by a dense
Mehrotra predictor-corrector interior point method followed by an
active-set least-squares polish; row feasibility is certified up front
with an LP phase so infeasibility never has to be inferred from IPM
divergence. The package's own price program has a
dedicated exact solver in :mod:`evcs_premium.cvar`; :func:`solve_qp` stays
as the generic reference that solver is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

SENSE_LE = "<="
SENSE_GE = ">="
SENSE_EQ = "="
_SENSES = (SENSE_LE, SENSE_GE, SENSE_EQ)

_FEAS_TOL = 1e-9
_GAP_TOL = 1e-8
_IPM_MAX_ITER = 100


class BackendError(ValueError):
    """Raised for malformed problems."""


try:  # private API, shipped with scipy 1.17
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:
    raise BackendError(
        "the HiGHS bindings scipy.optimize._highspy._core are missing "
        "(supported: scipy>=1.17,<1.18)") from exc

# the options scipy's method="highs" LP interface passes to HiGHS
_OPTIONS = _highs.HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
_OPTIONS.log_to_console = _OPTIONS.output_flag = False
_OPTIONS.simplex_strategy = (
    _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
_STATUS = {_highs.HighsModelStatus.kInfeasible: "infeasible",
           _highs.HighsModelStatus.kModelError: "infeasible",
           _highs.HighsModelStatus.kUnbounded: "unbounded"}
_AT_LOWER = int(_highs.HighsBasisStatus.kLower)
_AT_UPPER = int(_highs.HighsBasisStatus.kUpper)


@dataclass
class LinearProgram:
    """min cost.x subject to sparse rows a, senses, rhs and bounds.

    ``a`` may be anything ``scipy.sparse.csc_matrix`` accepts; it is kept
    in canonical CSC form, which is what HiGHS reads.
    """

    cost: np.ndarray
    a: sp.csc_matrix
    senses: np.ndarray  # of SENSE_* strings
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.a = sp.csc_matrix(self.a)
        self.a.sum_duplicates()
        m, n = self.a.shape
        # HiGHS reads these as float64 buffers of exactly this size
        for name, size in (("cost", n), ("rhs", m), ("lower", n), ("upper", n)):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != (size,):
                raise BackendError(
                    f"LP {name} must have {size} entries, got {value.shape}")
            setattr(self, name, value)
        self.senses = np.asarray(self.senses, dtype=str)
        if self.senses.shape != (m,):
            raise BackendError(f"LP must have {m} senses, got {self.senses.shape}")
        bad = np.flatnonzero(~np.isin(self.senses, _SENSES))
        if bad.size:
            raise BackendError(f"unknown sense {str(self.senses[bad[0]])!r}")

    @classmethod
    def from_dense(cls, cost, rows, senses, rhs, lower=None, upper=None):
        n = np.size(cost)
        return cls(cost, np.asarray(rows, dtype=float).reshape(-1, n), senses,
                   rhs, np.full(n, -np.inf) if lower is None else lower,
                   np.full(n, np.inf) if upper is None else upper)

    @property
    def num_vars(self):
        return self.cost.size

    @property
    def num_rows(self):
        return self.rhs.size


@dataclass
class ConvexQP(LinearProgram):
    """min 0.5 x.diag(q).x + cost.x over a LinearProgram's rows and bounds,
    with q_diag elementwise nonnegative (a diagonal PSD Hessian)."""

    q_diag: np.ndarray = None

    @classmethod
    def from_dense(cls, q_diag, cost, rows, senses, rhs, lower=None, upper=None):
        qp = super().from_dense(cost, rows, senses, rhs, lower, upper)
        qp.q_diag = np.asarray(q_diag, dtype=float)
        if qp.q_diag.size != qp.num_vars:
            raise BackendError("q_diag length must match cost length")
        if np.any(qp.q_diag < 0):
            raise BackendError("q_diag must be nonnegative (diagonal PSD)")
        return qp


@dataclass
class SolveResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    duals: np.ndarray | None
    reduced_lower: np.ndarray | None
    reduced_upper: np.ndarray | None
    primal_infeasibility: float = np.nan
    dual_infeasibility: float = np.nan
    duality_gap: float = np.nan
    comp_slack: float = np.nan
    iterations: int = 0
    message: str = ""
    certificate: Certificate | None = None


@dataclass(frozen=True)
class Certificate:
    """KKT residuals of a solved program in the reported dual convention.

    Every field holds one entry per block (see :func:`certify`);
    ``cost_scale`` is 1 + max |cost| over the block's variables.
    """

    objective: np.ndarray
    primal_infeasibility: np.ndarray
    dual_infeasibility: np.ndarray
    duality_gap: np.ndarray
    comp_slack: np.ndarray
    cost_scale: np.ndarray

    def lp_optimal(self):
        """Per block, whether an LP solution passes solve_lp's gates."""
        return ((self.primal_infeasibility <= _FEAS_TOL)
                & (self.dual_infeasibility <= _FEAS_TOL * self.cost_scale)
                & (self.duality_gap
                   <= _GAP_TOL * (1.0 + np.abs(self.objective))))


def certify(prob, x, duals, red_lo, red_up, blocks=1) -> Certificate:
    """KKT residuals of a primal-dual point of an LP or a ConvexQP.

    The rows and the variables are cut into ``blocks`` equal consecutive
    slices, and each entry of the result covers one slice: on a
    block-diagonal program stacked from equal blocks these are the
    residuals each block would have if solved alone. ``blocks=1`` covers
    the whole program.
    """
    a = prob.a
    ax = a @ x
    senses = prob.senses
    eq = senses == SENSE_EQ
    slack = np.where(senses == SENSE_LE, prob.rhs - ax, ax - prob.rhs)
    row_viol = np.where(eq, np.abs(slack), np.maximum(-slack, 0.0))
    slack[eq] = 0.0
    bound_viol = np.maximum(np.maximum(prob.lower - x, x - prob.upper), 0.0)

    q = getattr(prob, "q_diag", None)
    quad = 0.0 if q is None else 0.5 * q * x * x
    grad = prob.cost if q is None else q * x + prob.cost
    stat = grad - a.T @ duals - red_lo - red_up
    # Lagrangian dual value at the reported multipliers:
    # duals.rhs - 0.5 x Q x + reduced costs paired with their finite bounds.
    lo = np.where(np.isfinite(prob.lower), prob.lower, 0.0)
    up = np.where(np.isfinite(prob.upper), prob.upper, 0.0)

    def by_block(v):
        return np.reshape(v, (blocks, -1))

    obj = by_block(quad + prob.cost * x).sum(axis=1)
    dual_obj = (by_block(duals * prob.rhs).sum(axis=1)
                + by_block(red_lo * lo + red_up * up - quad).sum(axis=1))
    return Certificate(
        objective=obj,
        primal_infeasibility=np.maximum(
            by_block(row_viol).max(axis=1, initial=0.0),
            by_block(bound_viol).max(axis=1, initial=0.0)),
        dual_infeasibility=np.abs(by_block(stat)).max(axis=1, initial=0.0),
        duality_gap=np.abs(obj - dual_obj),
        comp_slack=np.abs(by_block(duals * slack)).sum(axis=1),
        cost_scale=1.0 + np.abs(by_block(prob.cost)).max(axis=1, initial=0.0))


def _result(status, x, duals, red_lo, red_up, cert, iterations):
    """SolveResult with the certificate, worst or summed over its blocks."""
    return SolveResult(
        status, x, float(cert.objective.sum()), duals, red_lo, red_up,
        primal_infeasibility=float(cert.primal_infeasibility.max()),
        dual_infeasibility=float(cert.dual_infeasibility.max()),
        duality_gap=float(cert.duality_gap.max()),
        comp_slack=float(cert.comp_slack.sum()), iterations=iterations,
        certificate=cert)


def _highs_solve(lp):
    """One cold HiGHS run of lp, read as scipy's method="highs" reads it:
    (model status, message, x, duals, reduced_lower, reduced_upper,
    simplex iterations), the arrays None unless the status is optimal."""
    n_rows, n_cols = lp.a.shape
    highs = _highs._Highs()
    highs.passOptions(_OPTIONS)
    # a colwise model from the CSC arrays, every column continuous
    if highs.passModel(
            n_cols, n_rows, lp.a.nnz, _highs.MatrixFormat.kColwise,
            _highs.ObjSense.kMinimize, 0.0, lp.cost, lp.lower, lp.upper,
            np.where(lp.senses == SENSE_LE, -np.inf, lp.rhs),
            np.where(lp.senses == SENSE_GE, np.inf, lp.rhs), lp.a.indptr,
            lp.a.indices, lp.a.data, np.zeros(n_cols, dtype=np.int32)
    ) == _highs.HighsStatus.kError:
        status = _highs.HighsModelStatus.kModelError
    else:
        highs.run()
        status = highs.getModelStatus()
    message = f"HiGHS model status {highs.modelStatusToString(status)}"
    if status != _highs.HighsModelStatus.kOptimal:
        return status, message, None, None, None, None, 0
    solution = highs.getSolution()
    basis = np.fromiter(map(int, highs.getBasis().col_status), np.int8,
                        n_cols)
    col_dual = np.array(solution.col_dual)
    return (status, message, np.array(solution.col_value),
            np.array(solution.row_dual),
            np.where(basis == _AT_LOWER, col_dual, 0.0),
            np.where(basis == _AT_UPPER, col_dual, 0.0),
            highs.getInfo().simplex_iteration_count)


def solve_lp(lp: LinearProgram, blocks: int = 1) -> SolveResult:
    """Solve an LP with HiGHS, returning sensitivity-convention duals.

    The solution is certified once, per block (see :func:`certify`): the
    status is "optimal" only if every block passes the gates, and the
    result carries the :class:`Certificate`.

    Raises BackendError naming the first NaN or infinite cost, matrix
    entry or right-hand side, and the first NaN bound or infinite bound
    on the wrong side (-inf lower and +inf upper bounds mean no bound).
    """
    for name, values, ok in (
            ("cost", lp.cost, np.isfinite(lp.cost)),
            ("matrix value", lp.a.data, np.isfinite(lp.a.data)),
            ("right-hand side", lp.rhs, np.isfinite(lp.rhs)),
            ("lower bound", lp.lower, lp.lower < np.inf),
            ("upper bound", lp.upper, lp.upper > -np.inf)):
        if not ok.all():
            i = int(np.argmin(ok))
            where = (f"row {lp.a.indices[i]} column "
                     f"{np.searchsorted(lp.a.indptr, i, side='right') - 1}"
                     if name == "matrix value" else f"index {i}")
            raise BackendError(f"LP {name} at {where} is {float(values[i])!r}")
    status, message, x, duals, red_lo, red_up, iters = _highs_solve(lp)
    if x is None:
        return SolveResult(_STATUS.get(status, "numerical"), None, None,
                           None, None, None, message=message)
    cert = certify(lp, x, duals, red_lo, red_up, blocks)
    status = "optimal" if cert.lp_optimal().all() else "numerical"
    return _result(status, x, duals, red_lo, red_up, cert, iters)


# ---------------------------------------------------------------------------
# QP interior point


def _canonical_ineq(qp):
    """Split a QP into equality rows and <= rows (bounds folded into rows).

    Returns (E, f, G, h, tags) where tags maps each G row back to its origin:
    ("row", i, sign), ("lower", j) or ("upper", j).
    """
    a = qp.a.toarray()
    e_rows, f_vals, g_rows, h_vals, tags = [], [], [], [], []
    for i, s in enumerate(qp.senses):
        if s == SENSE_EQ:
            e_rows.append(a[i])
            f_vals.append(qp.rhs[i])
        elif s == SENSE_LE:
            g_rows.append(a[i])
            h_vals.append(qp.rhs[i])
            tags.append(("row", i, -1.0))
        else:
            g_rows.append(-a[i])
            h_vals.append(-qp.rhs[i])
            tags.append(("row", i, 1.0))
    n = qp.num_vars
    for j in range(n):
        if np.isfinite(qp.lower[j]):
            row = np.zeros(n)
            row[j] = -1.0
            g_rows.append(row)
            h_vals.append(-qp.lower[j])
            tags.append(("lower", j, 1.0))
        if np.isfinite(qp.upper[j]):
            row = np.zeros(n)
            row[j] = 1.0
            g_rows.append(row)
            h_vals.append(qp.upper[j])
            tags.append(("upper", j, -1.0))
    e = np.array(e_rows).reshape(-1, n)
    g = np.array(g_rows).reshape(-1, n)
    return e, np.array(f_vals), g, np.array(h_vals), tags


def _kkt_solve(q, e, g, w, r1, r2, r3):
    """Solve the reduced Newton system for (dx, dnu, dy)."""
    n, me, mi = q.size, e.shape[0], g.shape[0]
    k = np.zeros((n + me + mi, n + me + mi))
    k[:n, :n] = np.diag(q)
    k[:n, n:n + me] = e.T
    k[:n, n + me:] = g.T
    k[n:n + me, :n] = e
    k[n + me:, :n] = g
    k[n + me:, n + me:] = -np.diag(w)
    rhs = np.concatenate([r1, r2, r3])
    try:
        sol = np.linalg.solve(k, rhs)
    except np.linalg.LinAlgError:
        k[np.diag_indices_from(k)] += 1e-12
        sol = np.linalg.solve(k, rhs)
    return sol[:n], sol[n:n + me], sol[n + me:]


def _ipm(q, c, e, f, g, h):
    """Mehrotra predictor-corrector for min .5 x q x + c x, Ex=f, Gx<=h."""
    n, me, mi = c.size, f.size, h.size
    if mi == 0:
        # Pure equality QP: single KKT solve.
        k = np.block([[np.diag(q), e.T], [e, np.zeros((me, me))]])
        rhs = np.concatenate([-c, f])
        sol, *_ = np.linalg.lstsq(k, rhs, rcond=None)
        return sol[:n], sol[n:], np.zeros(0), np.zeros(0), 1

    x = np.zeros(n)
    if me:
        x, *_ = np.linalg.lstsq(e, f, rcond=None)
    nu = np.zeros(me)
    s = np.maximum(1.0, np.abs(h - g @ x))
    y = np.ones(mi)

    for it in range(1, _IPM_MAX_ITER + 1):
        r_d = q * x + c + (e.T @ nu if me else 0.0) + g.T @ y
        r_e = (e @ x - f) if me else np.zeros(0)
        r_i = g @ x + s - h
        mu = (y @ s) / mi
        scale = 1.0 + max(np.max(np.abs(c)), np.max(np.abs(h)),
                          np.max(np.abs(f)) if me else 0.0)
        if (np.max(np.abs(r_d)) <= 1e-11 * scale
                and (me == 0 or np.max(np.abs(r_e)) <= 1e-11 * scale)
                and np.max(np.abs(r_i)) <= 1e-11 * scale
                and mu <= 1e-12 * scale):
            return x, nu, y, s, it

        w = s / y
        # affine step
        dxa, dnua, dya = _kkt_solve(q, e, g, w, -r_d, -r_e, -r_i + s)
        dsa = -r_i - g @ dxa
        ap = _max_step(s, dsa)
        ad = _max_step(y, dya)
        mu_aff = ((y + ad * dya) @ (s + ap * dsa)) / mi
        sigma = (max(mu_aff, 0.0) / mu) ** 3 if mu > 0 else 0.0

        # corrector
        rc = (y * s + dya * dsa - sigma * mu) / y
        dx, dnu, dy = _kkt_solve(q, e, g, w, -r_d, -r_e, -r_i + rc)
        ds = -r_i - g @ dx
        tau = min(0.99995, max(0.995, 1.0 - mu))
        ap = tau * _max_step(s, ds)
        ad = tau * _max_step(y, dy)
        step = min(ap, ad)
        x = x + step * dx
        if me:
            nu = nu + step * dnu
        y = np.maximum(y + step * dy, 1e-300)
        s = np.maximum(s + step * ds, 1e-300)
        if np.max(np.abs(x)) > 1e12 * scale:
            raise _Unbounded
    return x, nu, y, s, _IPM_MAX_ITER


class _Unbounded(Exception):
    pass


def _max_step(v, dv):
    neg = dv < 0
    if not np.any(neg):
        return 1.0
    return min(1.0, float(np.min(-v[neg] / dv[neg])))


def _polish(q, c, e, f, g, h, x, nu, y):
    """Resolve on the active set by least squares for crisp residuals."""
    mi = h.size
    s = h - g @ x
    active = np.flatnonzero(y >= s)
    ga = g[active]
    me = f.size
    na = active.size
    n = c.size
    k = np.zeros((n + me + na, n + me + na))
    k[:n, :n] = np.diag(q)
    if me:
        k[:n, n:n + me] = e.T
        k[n:n + me, :n] = e
    if na:
        k[:n, n + me:] = ga.T
        k[n + me:, :n] = ga
    rhs = np.concatenate([-c, f, h[active]])
    sol, *_ = np.linalg.lstsq(k, rhs, rcond=None)
    xp = sol[:n]
    nup = sol[n:n + me]
    yp = np.zeros(mi)
    yp[active] = sol[n + me:]

    scale = 1.0 + max(np.max(np.abs(c)), np.max(np.abs(h), initial=0.0),
                      np.max(np.abs(f)) if me else 0.0)
    ok = (np.all(yp >= -1e-9 * scale)
          and np.max(g @ xp - h, initial=0.0) <= 1e-9 * scale
          and (me == 0 or np.max(np.abs(e @ xp - f)) <= 1e-9 * scale))
    if ok:
        stat = q * xp + c + (e.T @ nup if me else 0.0) + g.T @ yp
        ok = np.max(np.abs(stat)) <= 1e-8 * scale
    if not ok:
        return x, nu, y
    return xp, nup, np.maximum(yp, 0.0)


def solve_qp(qp: ConvexQP) -> SolveResult:
    """Solve a diagonal-PSD QP; duals follow the sensitivity convention."""
    n, m = qp.num_vars, qp.num_rows

    # Certify row feasibility with an LP phase before running the IPM.
    feas = solve_lp(LinearProgram(np.zeros(n), qp.a, qp.senses, qp.rhs,
                                  qp.lower, qp.upper))
    if feas.status == "infeasible":
        return SolveResult("infeasible", None, None, None, None, None,
                           message="constraint rows are infeasible")

    e, f, g, h, tags = _canonical_ineq(qp)
    try:
        x, nu, y, s, iters = _ipm(qp.q_diag, qp.cost, e, f, g, h)
    except _Unbounded:
        return SolveResult("unbounded", None, None, None, None, None,
                           message="iterates diverged")
    if h.size:
        x, nu, y = _polish(qp.q_diag, qp.cost, e, f, g, h, x, nu, y)

    # Map internal multipliers back to reported sensitivity duals.
    duals = np.zeros(m)
    red_lo = np.zeros(n)
    red_up = np.zeros(n)
    eq_seen = 0
    for i, sense in enumerate(qp.senses):
        if sense == SENSE_EQ:
            duals[i] = -nu[eq_seen]
            eq_seen += 1
    for k_row, (kind, idx, sign) in enumerate(tags):
        val = sign * y[k_row]
        if kind == "row":
            duals[idx] = val
        elif kind == "lower":
            red_lo[idx] = val
        else:
            red_up[idx] = val

    cert = certify(qp, x, duals, red_lo, red_up)
    scale = abs(cert.objective[0]) + cert.cost_scale[0]
    status = "optimal"
    if not (cert.primal_infeasibility[0] <= _FEAS_TOL * scale
            and cert.dual_infeasibility[0] <= 1e-8 * scale):
        status = "numerical"
    return _result(status, x, duals, red_lo, red_up, cert, iters)
