"""Deterministic LP/QP backend with dual extraction.

The two entry points here, :func:`solve_lp` and :func:`solve_qp`, fix the
dual conventions in one place:

* ``duals[i]`` is the sensitivity of the optimal objective to the right-hand
  side of row ``i`` (d obj / d rhs). For a minimization this makes the dual of
  a binding ``>=`` row nonnegative and of a binding ``<=`` row nonpositive.
* ``reduced_lower[j]`` / ``reduced_upper[j]`` are the sensitivities to the
  variable bounds.

Both go to HiGHS (Huangfu & Hall, Math. Prog. Comp. 2018) through one thin
adapter over scipy's bundled bindings: the CSC rows and the row bounds read
off the senses, under the options, statuses and marginals of scipy's
``method="highs"`` LP interface, which follow this convention. LPs (the OPF
programs) run the dual simplex; QPs (diagonal positive semidefinite Hessian
only) run HiGHS's active-set QP solver. Each solution is certified once,
per block of an LP stacked from equal blocks, as if each were solved alone.
Every run builds a fresh model unless the caller keeps an
:class:`LpModel`, which reruns an LP of new right-hand sides on its model
from its last basis (see :func:`_highs_solve`).

The package's own price program has a dedicated exact solver in
:mod:`evcs_premium.cvar`; :func:`solve_qp` stays as the generic reference
that solver is tested against.
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


class BackendError(ValueError):
    """Raised for malformed problems."""


def worst_residual(values):
    """The largest of a sequence of residuals, NaN if any is NaN (max
    alone drops a NaN that is not first, and NaN > gate is False)."""
    top = max(values)
    return top if all(v <= top for v in values) else float("nan")


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
# QPs only: HiGHS's default 1e-7 regularization shifts QP duals as much
_OPTIONS.qp_regularization_value = 0.0
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
    def from_dense(cls, cost, rows, senses, rhs, lower=None, upper=None,
                   **extra):
        n = np.size(cost)
        return cls(cost, np.asarray(rows, dtype=float).reshape(-1, n), senses,
                   rhs, np.full(n, -np.inf) if lower is None else lower,
                   np.full(n, np.inf) if upper is None else upper, **extra)

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

    def __post_init__(self):
        super().__post_init__()
        if self.q_diag is None:
            raise BackendError("QP q_diag is missing")
        self.q_diag = np.asarray(self.q_diag, dtype=float)
        if self.q_diag.shape != (self.num_vars,):
            raise BackendError(f"QP q_diag must have {self.num_vars} entries, "
                               f"got {self.q_diag.shape}")
        ok = np.isfinite(self.q_diag) & (self.q_diag >= 0)
        if not ok.all():
            i = int(np.argmin(ok))
            raise BackendError(
                f"QP q_diag at index {i} is {float(self.q_diag[i])!r}: it "
                "must be finite and nonnegative (diagonal PSD)")

    @classmethod
    def from_dense(cls, q_diag, cost, rows, senses, rhs, lower=None, upper=None):
        return super().from_dense(cost, rows, senses, rhs, lower, upper,
                                  q_diag=q_diag)


@dataclass
class SolveResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    duals: np.ndarray | None
    reduced_lower: np.ndarray | None
    reduced_upper: np.ndarray | None
    iterations: int = 0
    message: str = ""
    certificate: Certificate | None = None


class LpModel:
    """A HiGHS model, its LP and its last optimal basis, kept across
    :func:`solve_lp` calls (see :func:`_highs_solve`); with no basis the
    next run is fresh and cold. Leaving its ``with`` block frees the
    model, even while a traceback still holds this object."""

    highs = lp = basis = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.highs = self.lp = self.basis = None


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
    """SolveResult carrying the certificate, its objective summed over the
    blocks."""
    return SolveResult(
        status, x, float(cert.objective.sum()), duals, red_lo, red_up,
        iterations=iterations, certificate=cert)


def _row_bounds(senses, rhs):
    """HiGHS's lower and upper bounds of rows with these senses."""
    return (np.where(senses == SENSE_LE, -np.inf, rhs),
            np.where(senses == SENSE_GE, np.inf, rhs))


def _highs_solve(prob, model=None):
    """One HiGHS run of an LP or a ConvexQP, read as scipy's method="highs"
    reads an LP: (model status, message, x, duals, reduced_lower,
    reduced_upper, iterations), the arrays None unless the status is
    optimal. A ``model`` holding a basis starts the run from it, skipping
    presolve, on its own HiGHS model if the program shares every array but
    the right-hand side with the model's last one: then only the rows
    whose right-hand side changed get new bounds. The model keeps the run.

    Raises BackendError naming the first NaN or infinite cost, matrix
    entry or right-hand side, and the first NaN bound or infinite bound
    on the wrong side (-inf lower and +inf upper bounds mean no bound).
    """
    q = getattr(prob, "q_diag", None)
    basis, rows = getattr(model, "basis", None), None
    if basis is not None and all(
            getattr(prob, k) is getattr(model.lp, k)
            for k in ("a", "senses", "cost", "lower", "upper")):
        rows = np.flatnonzero(prob.rhs != model.lp.rhs)
        if not np.isfinite(prob.rhs[rows]).all():
            rows = None  # the checks below name the first bad entry
    if rows is not None:
        highs, passed = model.highs, True
        lower, upper = _row_bounds(prob.senses[rows], prob.rhs[rows])
        for i, lo, up in zip(rows.tolist(), lower.tolist(), upper.tolist()):
            highs.changeRowBounds(i, lo, up)
    else:
        for name, values, ok in (
                ("cost", prob.cost, np.isfinite(prob.cost)),
                ("matrix value", prob.a.data, np.isfinite(prob.a.data)),
                ("right-hand side", prob.rhs, np.isfinite(prob.rhs)),
                ("lower bound", prob.lower, prob.lower < np.inf),
                ("upper bound", prob.upper, prob.upper > -np.inf)):
            if not ok.all():
                i = int(np.argmin(ok))
                where = (f"row {prob.a.indices[i]} column "
                         f"{np.searchsorted(prob.a.indptr, i, 'right') - 1}"
                         if name == "matrix value" else f"index {i}")
                raise BackendError(f"{'LP' if q is None else 'QP'} {name} "
                                   f"at {where} is {float(values[i])!r}")
        n_rows, n_cols = prob.a.shape
        # a colwise model from the CSC arrays
        args = [n_cols, n_rows, prob.a.nnz, _highs.MatrixFormat.kColwise,
                _highs.ObjSense.kMinimize, 0.0, prob.cost, prob.lower,
                prob.upper, *_row_bounds(prob.senses, prob.rhs),
                prob.a.indptr, prob.a.indices, prob.a.data]
        if q is not None:
            # the diagonal Hessian as a colwise triangle of its nonzero
            # entries, its count, format and arrays each placed after the
            # matrix's
            nz = np.flatnonzero(q).astype(np.int32)
            args[3:3] = [nz.size]
            args[5:5] = [_highs.HessianFormat.kTriangular]
            args += [np.searchsorted(nz, np.arange(n_cols + 1)).astype(
                np.int32), nz, q[nz]]
        highs = _highs._Highs()
        highs.passOptions(_OPTIONS)
        continuous = np.zeros(n_cols, dtype=np.int32)
        passed = (highs.passModel(*args, continuous)
                  != _highs.HighsStatus.kError)
    status = _highs.HighsModelStatus.kModelError
    if passed:
        if basis is not None:
            highs.setBasis(basis)
        highs.run()
        status = highs.getModelStatus()
    optimal = status == _highs.HighsModelStatus.kOptimal
    if model is not None:
        model.highs, model.lp = highs, prob
        model.basis = highs.getBasis() if optimal else None
    message = f"HiGHS model status {highs.modelStatusToString(status)}"
    if not optimal:
        return status, message, None, None, None, None, 0
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    col_dual = np.array(solution.col_dual)
    if q is None:
        # The simplex leaves a nonbasic column exactly on its bound, so the
        # side a column's dual belongs to is read off the primal point,
        # not off the basis's per-column enum objects; a fixed column is
        # at its lower bound unless its dual is negative.
        fixed = prob.lower == prob.upper
        at_upper = (x == prob.upper) & ~(fixed & (col_dual >= 0.0))
        at_lower = (x == prob.lower) & ~at_upper
    else:
        # the QP solver's point may sit off a bound its column is held at;
        # bytes() reads each enum object's __index__ in C
        side = np.frombuffer(bytes(highs.getBasis().col_status), np.int8)
        at_lower, at_upper = side == _AT_LOWER, side == _AT_UPPER
    info = highs.getInfo()
    return (status, message, x, np.array(solution.row_dual),
            np.where(at_lower, col_dual, 0.0),
            np.where(at_upper, col_dual, 0.0),
            info.simplex_iteration_count + info.qp_iteration_count)


def _failed(status, message):
    """SolveResult of a run that ended without an optimal point."""
    return SolveResult(_STATUS.get(status, "numerical"), None, None, None,
                       None, None, message=message)


def solve_lp(lp: LinearProgram, blocks: int = 1,
             model: LpModel | None = None) -> SolveResult:
    """Solve an LP with HiGHS, returning sensitivity-convention duals.

    The solution is certified once, per block (see :func:`certify`): the
    status is "optimal" only if every block passes the gates, and the
    result carries the :class:`Certificate`. A ``model`` runs the LP on
    the HiGHS model it holds where it can (see :class:`LpModel`).
    Non-finite input raises BackendError (see :func:`_highs_solve`).
    """
    status, message, x, duals, lo, up, iters = _highs_solve(lp, model)
    if x is None:
        return _failed(status, message)
    cert = certify(lp, x, duals, lo, up, blocks)
    status = "optimal" if cert.lp_optimal().all() else "numerical"
    return _result(status, x, duals, lo, up, cert, iters)


def solve_qp(qp: ConvexQP) -> SolveResult:
    """Solve a diagonal-PSD QP with HiGHS; duals follow the sensitivity
    convention, and the status is "optimal" only if the KKT certificate
    passes its gates, scaled by the objective and the costs. Non-finite
    input raises BackendError (see :func:`_highs_solve`)."""
    status, message, x, duals, lo, up, iters = _highs_solve(qp)
    if x is None:
        return _failed(status, message)
    cert = certify(qp, x, duals, lo, up)
    scale = abs(cert.objective[0]) + cert.cost_scale[0]
    status = "optimal"
    if not (cert.primal_infeasibility[0] <= _FEAS_TOL * scale
            and cert.dual_infeasibility[0] <= 1e-8 * scale):
        status = "numerical"
    return _result(status, x, duals, lo, up, cert, iters)
