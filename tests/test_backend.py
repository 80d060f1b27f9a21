"""Tests for the LP/QP backend.

The LP oracle enumerates every basis of small equality-form programs, so the
comparison is against exact vertex arithmetic, not against another iterative
solver. The QP oracle enumerates active sets and checks the KKT sign
conditions directly.
"""

import functools
import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import linprog

from evcs_premium import backend
from evcs_premium.backend import (
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    BackendError,
    ConvexQP,
    LinearProgram,
    solve_lp,
    solve_qp,
)


@functools.cache
def _swaps(m, n, k):
    """Every way to swap k of the first m of n columns for k of the
    others, one per row of each of (rows, cols, at): the swapped-out
    columns, the swapped-in ones counted from m, and the flat index of
    each k-by-k block of an (m, n - m) array at those rows and cols."""
    rows, cols = (np.array(list(itertools.combinations(range(size), k)),
                           dtype=np.intp).reshape(-1, k)
                  for size in (m, n - m))
    rows, cols = (np.repeat(rows, len(cols), axis=0),
                  np.tile(cols, (len(rows), 1)))
    return rows, cols, rows[:, :, None] * (n - m) + cols[:, None, :]


def vertex_enumeration_min(a, b, c):
    """Exact minimum of min c.x s.t. Ax=b, x>=0 over basic feasible points.

    The first m columns must be a basis. In its tableau, B^-1 [A | b] =
    [I | T | t], the basis that swaps the columns of rows L for the
    columns E of T has the values x_E = T[L, E]^-1 t[L] and t - T[:, E]
    x_E, and its determinant is det(B) det(T[L, E]) up to sign; each
    swap size k solves all its C(m, k) C(n - m, k) k-by-k systems in one
    batch.
    """
    m, n = a.shape
    first = a[:, :m]
    det0 = abs(np.linalg.det(first))
    assert det0 > 1e-9
    tab = np.linalg.solve(first, a[:, m:])
    t = np.linalg.solve(first, b)
    best = float(c[:m] @ t) if np.all(t >= -1e-9) else np.inf
    for k in range(1, min(m, n - m) + 1):
        rows, cols, at = _swaps(m, n, k)
        blocks = tab.ravel()[at]
        x_in = np.linalg.solve(blocks, t[rows][..., None])[..., 0]
        ok = np.all(x_in >= -1e-9, axis=1)
        ok[ok] = np.abs(np.linalg.det(blocks[ok])) * det0 > 1e-9
        rows, cols, x_in = rows[ok], cols[ok], x_in[ok]
        x_kept = t - np.einsum("imk,ik->im", tab[:, cols].transpose(1, 0, 2),
                               x_in)
        np.put_along_axis(x_kept, rows, 0.0, axis=1)
        ok = np.all(x_kept >= -1e-9, axis=1)
        if ok.any():
            objs = (x_kept[ok] @ c[:m]
                    + np.einsum("ik,ik->i", c[m:][cols[ok]], x_in[ok]))
            best = min(best, float(objs.min()))
    return None if best == np.inf else best


def random_equality_lp(rng, m=10, n=20):
    a = rng.normal(size=(m, n))
    x_feas = rng.uniform(0.5, 2.0, size=n)
    b = a @ x_feas
    c = rng.uniform(0.1, 2.0, size=n)  # positive cost keeps the LP bounded
    return a, b, c


def random_mixed_lp(rng):
    """A small sparse LP with every sense and finite and infinite bounds.

    The inequality rows come before the equality rows, the order in which
    scipy's linprog hands rows to HiGHS, so both see the same model. Every
    row holds at a common point, except in one draw in four, where each row
    is pushed past it (many of those are infeasible); free columns with
    random costs make many draws unbounded.
    """
    m, n = int(rng.integers(1, 12)), int(rng.integers(1, 15))
    a = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.6)
    x0 = rng.uniform(-1.0, 2.0, n)
    senses = sorted(rng.choice([SENSE_EQ, SENSE_LE, SENSE_GE], m),
                    key=lambda s: s == SENSE_EQ)
    ineq = np.array([s != SENSE_EQ for s in senses])
    sign = np.array([-1.0 if s == SENSE_GE else 1.0 for s in senses])
    slack = rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.5) * ineq
    if rng.random() < 0.25:
        slack = -slack - 1.0
    rhs = a @ x0 + sign * slack
    lower = np.where(rng.random(n) < 0.3, -np.inf,
                     x0 - rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.7))
    upper = np.where(rng.random(n) < 0.4, np.inf,
                     x0 + rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.7))
    return LinearProgram.from_dense(rng.normal(size=n), a, senses, rhs,
                                    lower, upper)


def linprog_reference(lp):
    """(status, x, duals, reduced_lower, reduced_upper, iterations) of lp
    from scipy's linprog, with >= rows flipped into <= rows."""
    senses = np.asarray(lp.senses)
    a = lp.a.tocsr()
    eq = np.flatnonzero(senses == SENSE_EQ)
    ub = np.flatnonzero(senses != SENSE_EQ)
    sign = np.where(senses[ub] == SENSE_LE, 1.0, -1.0)
    res = linprog(lp.cost, A_ub=sp.diags(sign) @ a[ub] if ub.size else None,
                  b_ub=sign * lp.rhs[ub] if ub.size else None,
                  A_eq=a[eq] if eq.size else None,
                  b_eq=lp.rhs[eq] if eq.size else None,
                  bounds=np.column_stack([lp.lower, lp.upper]),
                  method="highs")
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(
        res.status, "numerical")
    if status != "optimal":
        return (status,)
    duals = np.zeros(lp.num_rows)
    duals[eq] = res.eqlin.marginals
    duals[ub] = sign * res.ineqlin.marginals
    return (status, res.x, duals, res.lower.marginals, res.upper.marginals,
            res.nit)


class TestSolveLp:
    def test_one_variable_bound_row(self):
        lp = LinearProgram.from_dense([1.0], [[1.0]], [SENSE_GE], [3.0],
                                      lower=[0.0])
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert_allclose(res.x, [3.0], atol=1e-9)
        assert_allclose(res.duals, [1.0], atol=1e-9)
        assert_allclose(res.objective, 3.0, atol=1e-9)

    def test_unbounded(self):
        lp = LinearProgram.from_dense([-1.0], np.zeros((0, 1)), [], [],
                                      lower=[0.0])
        assert solve_lp(lp).status == "unbounded"

    def test_infeasible(self):
        lp = LinearProgram.from_dense(
            [1.0], [[1.0], [1.0]], [SENSE_GE, SENSE_LE], [1.0, 0.0])
        assert solve_lp(lp).status == "infeasible"

    @pytest.mark.parametrize("field, at, bad, message", [
        ("cost", 0, np.nan, "LP cost at index 0 is nan"),
        ("rows", 1, np.inf, "LP matrix value at row 1 column 0 is inf"),
        ("rhs", 0, np.nan, "LP right-hand side at index 0 is nan"),
        ("lower", 0, np.nan, "LP lower bound at index 0 is nan"),
        ("upper", 0, -np.inf, "LP upper bound at index 0 is -inf"),
    ])
    def test_non_finite_input_rejected(self, field, at, bad, message):
        # min x s.t. x >= 0 and x >= -5, one entry replaced by a bad value
        data = {"cost": [1.0], "rows": [1.0, 1.0], "rhs": [0.0, -5.0],
                "lower": [-np.inf], "upper": [np.inf]}
        data[field][at] = bad
        lp = LinearProgram.from_dense(
            data["cost"], np.reshape(data["rows"], (2, 1)),
            [SENSE_GE, SENSE_GE], data["rhs"], data["lower"], data["upper"])
        with pytest.raises(BackendError, match=message):
            solve_lp(lp)

    def test_random_lps_match_vertex_enumeration(self):
        rng = np.random.default_rng(314)
        for _ in range(6):
            a, b, c = random_equality_lp(rng)
            lp = LinearProgram.from_dense(
                c, a, [SENSE_EQ] * a.shape[0], b,
                lower=np.zeros(a.shape[1]))
            res = solve_lp(lp)
            assert res.status == "optimal"
            oracle = vertex_enumeration_min(a, b, c)
            assert oracle is not None
            assert_allclose(res.objective, oracle, rtol=1e-7, atol=1e-7)

    def test_optimal_invariants(self):
        rng = np.random.default_rng(2718)
        for _ in range(10):
            a, b, c = random_equality_lp(rng, m=6, n=12)
            lp = LinearProgram.from_dense(
                c, a, [SENSE_EQ] * 6, b, lower=np.zeros(12))
            res = solve_lp(lp)
            assert res.status == "optimal"
            cert = res.certificate
            assert cert.primal_infeasibility.max() <= 1e-9
            assert cert.dual_infeasibility.max() <= 1e-9 * (
                1.0 + np.max(np.abs(c)))
            assert cert.duality_gap.max() <= 1e-8 * (1.0 + abs(res.objective))
            assert cert.comp_slack.max() <= 1e-7

    def test_mixed_senses_and_duals(self):
        # min x + 2y s.t. x + y >= 4, x - y <= 1, x,y >= 0
        lp = LinearProgram.from_dense(
            [1.0, 2.0], [[1.0, 1.0], [1.0, -1.0]], [SENSE_GE, SENSE_LE],
            [4.0, 1.0], lower=[0.0, 0.0])
        res = solve_lp(lp)
        assert res.status == "optimal"
        # optimum splits the demand: x - y = 1 binds with x + y = 4
        assert_allclose(res.x, [2.5, 1.5], atol=1e-9)
        # perturbing rhs of the >= row by eps moves obj by 1.5 eps
        assert_allclose(res.duals[0], 1.5, atol=1e-9)
        assert_allclose(res.duals[1], -0.5, atol=1e-9)

    def test_deterministic_resolve(self):
        rng = np.random.default_rng(1)
        a, b, c = random_equality_lp(rng)
        lp = LinearProgram.from_dense(
            c, a, [SENSE_EQ] * a.shape[0], b, lower=np.zeros(a.shape[1]))
        r1 = solve_lp(lp)
        r2 = solve_lp(lp)
        assert np.array_equal(r1.x, r2.x)
        assert np.array_equal(r1.duals, r2.duals)
        assert r1.objective == r2.objective

    def test_block_certificate_matches_separate_solves(self):
        # two mixed-sense LPs of equal size stacked on the diagonal
        rng = np.random.default_rng(99)
        senses = [SENSE_EQ, SENSE_EQ, SENSE_LE, SENSE_GE]
        parts = []
        for _ in range(2):
            a, b, c = random_equality_lp(rng, m=4, n=8)
            parts.append((a, b - np.array([0.0, 0.0, -0.5, 0.5]), c))
        alone = [solve_lp(LinearProgram.from_dense(
            c, a, senses, b, lower=np.zeros(8), upper=np.full(8, 50.0)))
            for a, b, c in parts]
        stacked = LinearProgram.from_dense(
            np.concatenate([c for _, _, c in parts]),
            np.block([[parts[0][0], np.zeros((4, 8))],
                      [np.zeros((4, 8)), parts[1][0]]]),
            senses * 2, np.concatenate([b for _, b, _ in parts]),
            lower=np.zeros(16), upper=np.full(16, 50.0))
        res = solve_lp(stacked)
        assert res.status == "optimal"
        cert = backend.certify(stacked, res.x, res.duals, res.reduced_lower,
                               res.reduced_upper, blocks=2)
        assert_allclose(cert.objective, [r.objective for r in alone],
                        rtol=1e-9)
        assert_allclose(cert.objective.sum(), res.objective, rtol=1e-12)
        assert cert.lp_optimal().all()
        # a dual error in the second block fails that block only
        duals = res.duals.copy()
        duals[5] += 1e-3
        bad = backend.certify(stacked, res.x, duals, res.reduced_lower,
                              res.reduced_upper, blocks=2)
        assert bad.lp_optimal().tolist() == [True, False]

    def test_blocks_certified_once(self, monkeypatch):
        # the stacked LP of two equal blocks, certified by solve_lp itself
        rng = np.random.default_rng(5)
        parts = [random_equality_lp(rng, m=3, n=6) for _ in range(2)]
        stacked = LinearProgram.from_dense(
            np.concatenate([c for _, _, c in parts]),
            np.block([[parts[0][0], np.zeros((3, 6))],
                      [np.zeros((3, 6)), parts[1][0]]]),
            [SENSE_EQ] * 6, np.concatenate([b for _, b, _ in parts]),
            lower=np.zeros(12))
        res = solve_lp(stacked, blocks=2)
        assert res.status == "optimal"
        cert = backend.certify(stacked, res.x, res.duals, res.reduced_lower,
                               res.reduced_upper, blocks=2)
        for got, want in zip(vars(res.certificate).values(),
                             vars(cert).values()):
            assert_array_equal(got, want)
        assert res.objective == cert.objective.sum()
        # a dual error in the second block's raw solution fails that block,
        # and with it the status
        raw_solve = backend._highs_solve

        def perturbed(lp, model=None):
            out = raw_solve(lp, model)
            out[3][4] += 1e-3
            return out

        monkeypatch.setattr(backend, "_highs_solve", perturbed)
        bad = solve_lp(stacked, blocks=2)
        assert bad.status == "numerical"
        assert bad.certificate.lp_optimal().tolist() == [
            True, False]
        assert solve_lp(stacked).certificate.objective.shape == (1,)

    def test_matches_linprog_reference(self):
        rng = np.random.default_rng(2024)
        seen = set()
        for _ in range(300):
            lp = random_mixed_lp(rng)
            ref = linprog_reference(lp)
            res = solve_lp(lp)
            seen.add(ref[0])
            assert res.status == ref[0]
            if ref[0] != "optimal":
                continue
            # exact float equality: the oracle's row flip can only turn the
            # sign of a zero dual
            for got, want in zip((res.x, res.duals, res.reduced_lower,
                                  res.reduced_upper), ref[1:5]):
                assert_array_equal(got, want, strict=True)
            assert res.iterations == ref[5]
        assert seen == {"optimal", "infeasible", "unbounded"}
        # lower > upper on a column
        lp = LinearProgram.from_dense([1.0, 1.0], [[1.0, 1.0]], [SENSE_LE],
                                      [4.0], lower=[0.0, 2.0],
                                      upper=[1.0, 1.0])
        assert solve_lp(lp).status == linprog_reference(lp)[0] == "infeasible"
        # linprog is the tests' oracle only: the package talks to HiGHS
        # through the one adapter in backend.py
        src = pathlib.Path(backend.__file__).parent
        for path in src.glob("*.py"):
            text = path.read_text()
            assert "linprog" not in text, path.name
            assert ("_highspy" in text) == (path.name == "backend.py")

    def test_bound_duals_match_the_basis_split(self, monkeypatch):
        """reduced_lower and reduced_upper, read off the primal point, are
        HiGHS's column duals split by the final basis's column status, bit
        for bit, on LPs with fixed, free, one-sided and boxed columns."""
        made = []
        real = backend._highs._Highs

        def recorded():
            made.append(real())
            return made[-1]

        monkeypatch.setattr(backend._highs, "_Highs", recorded)
        kinds = backend._highs.HighsBasisStatus
        rng = np.random.default_rng(1414)
        seen = set()
        for i in range(400):
            lp = random_mixed_lp(rng)
            if i % 2:
                # fix about a third of the columns at a finite bound
                fix = rng.random(lp.num_vars) < 0.3
                value = np.where(np.isfinite(lp.lower), lp.lower,
                                 np.where(np.isfinite(lp.upper), lp.upper,
                                          0.5))
                lp.lower[fix] = lp.upper[fix] = value[fix]
            res = solve_lp(lp)
            if res.x is None:
                continue
            status = made[-1].getBasis().col_status
            col_dual = np.array(made[-1].getSolution().col_dual)
            lower = np.where([s == kinds.kLower for s in status], col_dual,
                             0.0)
            upper = np.where([s == kinds.kUpper for s in status], col_dual,
                             0.0)
            assert res.reduced_lower.tobytes() == lower.tobytes()
            assert res.reduced_upper.tobytes() == upper.tobytes()
            finite = (np.isfinite(lp.lower), np.isfinite(lp.upper))
            for j in np.flatnonzero(col_dual):
                seen.add((bool(finite[0][j]), bool(finite[1][j]),
                          bool(lp.lower[j] == lp.upper[j]),
                          bool(col_dual[j] > 0.0)))
            seen.update(("basic at a bound", True) for s, x, lo, up in zip(
                status, res.x, lp.lower, lp.upper)
                if s == kinds.kBasic and (x == lo or x == up))
        # bound duals of both signs on one-sided, boxed and fixed columns,
        # and basic columns that sit on a bound
        assert {(True, False, False, True), (False, True, False, False),
                (True, True, False, True), (True, True, False, False),
                (True, True, True, True), (True, True, True, False),
                ("basic at a bound", True)} <= seen

    def test_missing_bindings_named(self):
        # without scipy's private HiGHS bindings the backend refuses to load
        code = ("import sys\n"
                "sys.modules['scipy.optimize._highspy._core'] = None\n"
                "from evcs_premium import backend\n")
        run = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert run.returncode != 0
        assert ("BackendError: the HiGHS bindings "
                "scipy.optimize._highspy._core are missing") in run.stderr

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(BackendError):
            LinearProgram.from_dense([1.0, 2.0], [[1.0, 1.0]],
                                     [SENSE_LE, SENSE_LE], [1.0])
        with pytest.raises(BackendError):
            LinearProgram.from_dense([1.0], [[1.0]], ["<"], [1.0])
        with pytest.raises(BackendError, match="LP lower must have 2 entries"):
            LinearProgram.from_dense([1.0, 2.0], [[1.0, 1.0]], [SENSE_GE],
                                     [1.0], lower=[0.0])


def active_set_qp_oracle(q, c, g, h):
    """Exact solve of min .5 x q x + c x s.t. Gx <= h by active-set search.

    Returns (x, y) with y the multipliers of Gx <= h in the internal
    (nonnegative) convention, or None if no KKT point is found.
    """
    mi, n = g.shape
    best = None
    for r in range(mi + 1):
        for active in itertools.combinations(range(mi), r):
            act = list(active)
            ga = g[act]
            k = np.block([[np.diag(q), ga.T],
                          [ga, np.zeros((r, r))]])
            rhs = np.concatenate([-c, h[act]])
            try:
                sol, res_, rank_, _ = np.linalg.lstsq(k, rhs, rcond=None)
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            y_act = sol[n:]
            if np.max(np.abs(k @ sol - rhs)) > 1e-8:
                continue
            if np.any(g @ x - h > 1e-8):
                continue
            if np.any(y_act < -1e-8):
                continue
            obj = 0.5 * x @ (q * x) + c @ x
            if best is None or obj < best[0] - 1e-12:
                y = np.zeros(mi)
                y[act] = y_act
                best = (obj, x, y)
    return None if best is None else best[1:]


class TestSolveQp:
    def test_projection(self):
        qp = ConvexQP.from_dense([2.0], [0.0], [[1.0]], [SENSE_GE], [1.0])
        res = solve_qp(qp)
        assert res.status == "optimal"
        assert_allclose(res.x, [1.0], atol=1e-9)
        # objective rhs**2, so the sensitivity dual of the >= row is 2
        assert_allclose(res.duals, [2.0], atol=1e-8)

    def test_unconstrained_minimum_at_zero(self):
        qp = ConvexQP.from_dense([2.0], [0.0], np.zeros((0, 1)), [], [])
        res = solve_qp(qp)
        assert res.status == "optimal"
        assert_allclose(res.x, [0.0], atol=1e-12)

    def test_lagrangian_hand_solution(self):
        # min sum x_t^2 s.t. a.x >= b, x >= 0 with a > 0 lands on b*a/|a|^2
        rng = np.random.default_rng(5)
        a = rng.uniform(0.5, 3.0, size=7)
        b = 4.2
        qp = ConvexQP.from_dense(
            np.full(7, 2.0), np.zeros(7), a.reshape(1, -1), [SENSE_GE], [b],
            lower=np.zeros(7))
        res = solve_qp(qp)
        assert res.status == "optimal"
        assert_allclose(res.x, b * a / (a @ a), atol=1e-8)

    def test_equality_row_dual(self):
        # min .5 sum x^2 s.t. sum x = 10 -> x = 2, dual = d(b^2/10)/db = 2
        qp = ConvexQP.from_dense(
            np.ones(5), np.zeros(5), np.ones((1, 5)), [SENSE_EQ], [10.0])
        res = solve_qp(qp)
        assert res.status == "optimal"
        assert_allclose(res.x, np.full(5, 2.0), atol=1e-8)
        assert_allclose(res.duals, [2.0], atol=1e-8)

    def test_infeasible_rows_certified(self):
        qp = ConvexQP.from_dense(
            [2.0], [0.0], [[1.0], [1.0]], [SENSE_GE, SENSE_LE], [1.0, 0.0])
        assert solve_qp(qp).status == "infeasible"

    def test_random_qps_match_active_set_oracle(self):
        rng = np.random.default_rng(808)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            mi = int(rng.integers(1, 5))
            q = rng.uniform(0.5, 4.0, size=n)
            c = rng.normal(size=n)
            g = rng.normal(size=(mi, n))
            x0 = rng.normal(size=n)
            h = g @ x0 + rng.uniform(0.1, 1.0, size=mi)  # strictly feasible
            qp = ConvexQP.from_dense(q, c, -g, [SENSE_GE] * mi, -h)
            res = solve_qp(qp)
            assert res.status == "optimal"
            oracle = active_set_qp_oracle(q, c, g, h)
            assert oracle is not None
            assert_allclose(res.x, oracle[0], atol=1e-6)

    def test_kkt_residuals(self):
        rng = np.random.default_rng(909)
        for _ in range(10):
            n = 8
            q = rng.uniform(0.1, 3.0, size=n)
            c = rng.normal(size=n)
            g = rng.normal(size=(4, n))
            h = g @ rng.normal(size=n) + rng.uniform(0.5, 1.5, size=4)
            qp = ConvexQP.from_dense(q, c, g, [SENSE_LE] * 4, h,
                                     lower=np.full(n, -5.0),
                                     upper=np.full(n, 5.0))
            res = solve_qp(qp)
            assert res.status == "optimal"
            scale = 1.0 + abs(res.objective)
            cert = res.certificate
            assert cert.primal_infeasibility.max() <= 1e-8 * scale
            assert cert.dual_infeasibility.max() <= 1e-8 * (
                scale + np.max(np.abs(c)))
            assert cert.duality_gap.max() <= 1e-7 * scale

    def test_deterministic_resolve(self):
        qp = ConvexQP.from_dense(
            [2.0, 4.0], [1.0, -1.0], [[1.0, 1.0]], [SENSE_GE], [1.0],
            lower=[0.0, 0.0])
        r1 = solve_qp(qp)
        r2 = solve_qp(qp)
        assert np.array_equal(r1.x, r2.x)
        assert np.array_equal(r1.duals, r2.duals)

    def test_negative_curvature_rejected(self):
        with pytest.raises(BackendError):
            ConvexQP.from_dense([-1.0], [0.0], [[1.0]], [SENSE_LE], [1.0])

    def test_unbounded(self):
        # min -x over x >= 0 with no curvature at all
        qp = ConvexQP.from_dense([0.0], [-1.0], np.zeros((0, 1)), [], [],
                                 lower=[0.0])
        assert solve_qp(qp).status == "unbounded"
        # min x0^2 - x1 s.t. x0 >= 1, x1 >= 0: x1 has zero curvature
        qp = ConvexQP.from_dense([2.0, 0.0], [0.0, -1.0], [[1.0, 0.0]],
                                 [SENSE_GE], [1.0], lower=[-np.inf, 0.0])
        res = solve_qp(qp)
        assert res.status == "unbounded" and res.x is None

    @pytest.mark.parametrize("q_diag, message", [
        ([np.nan], "QP q_diag at index 0 is nan"),
        ([np.inf], "QP q_diag at index 0 is inf"),
        ([-1.0], "QP q_diag at index 0 is -1.0"),
        ([1.0, 1.0], "QP q_diag must have 1 entries"),
        (None, "QP q_diag is missing"),
    ])
    def test_hessian_validated_on_construction(self, q_diag, message):
        with pytest.raises(BackendError, match=message):
            ConvexQP.from_dense(q_diag, [0.0], [[1.0]], [SENSE_GE], [1.0])
        # the dataclass constructor checks it as well
        with pytest.raises(BackendError, match=message):
            ConvexQP([0.0], [[1.0]], [SENSE_GE], [1.0], [-np.inf], [np.inf],
                     q_diag)

    @pytest.mark.parametrize("field, at, bad, message", [
        ("cost", 0, np.nan, "QP cost at index 0 is nan"),
        ("rows", 1, np.inf, "QP matrix value at row 1 column 0 is inf"),
        ("rhs", 0, np.nan, "QP right-hand side at index 0 is nan"),
        ("lower", 0, np.nan, "QP lower bound at index 0 is nan"),
        ("upper", 0, -np.inf, "QP upper bound at index 0 is -inf"),
    ])
    def test_non_finite_input_rejected(self, field, at, bad, message):
        # min x^2 + x s.t. x >= 0 and x >= -5, one entry replaced
        data = {"cost": [1.0], "rows": [1.0, 1.0], "rhs": [0.0, -5.0],
                "lower": [-np.inf], "upper": [np.inf]}
        data[field][at] = bad
        qp = ConvexQP.from_dense(
            [2.0], data["cost"], np.reshape(data["rows"], (2, 1)),
            [SENSE_GE, SENSE_GE], data["rhs"], data["lower"], data["upper"])
        with pytest.raises(BackendError, match=message):
            solve_qp(qp)
