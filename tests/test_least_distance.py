"""The price program's least-distance master against its former form.

The reference below is the master as it was written before the one-cut
closed form and the direct LAPACK calls: NNLS on every master, then a QR
polish through numpy.linalg. The package's master must return the same
point, multipliers and slope pattern.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import nnls

from evcs_premium import cvar
from evcs_premium.analytic import TypicalDaySet
from evcs_premium.cvar import (
    RiskError,
    _least_distance,
    robust_premium_bilevel,
)
from evcs_premium.dcopf import evcs_tariff_cents, per_day_dlmps
from evcs_premium.fixtures import (
    default_risk_config,
    manhattan7,
    typical_days,
)


def _least_distance_reference(g, h, dh):
    """min ||x||^2 s.t. g x >= h, as NNLS on [g^T; h^T] u ~ e_last, then
    one exact solve on the rows with positive multipliers; (x, y, dx, dy)
    with dx, dy NaN when unpolished (dy also when a polished multiplier
    is not positive)."""
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


@st.composite
def _masters(draw):
    """k = 1-8 cuts over 1-24 hours: nonnegative rows like the price
    program's or signed ones, in one draw of three nearly parallel; right-
    hand sides of both signs over six decades."""
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = int(rng.integers(1, 25))
    g = (rng.uniform(0.0, 1.0, (k, n)) if rng.uniform() < 0.7
         else rng.normal(size=(k, n)))
    if rng.uniform() < 1.0 / 3.0:
        spread = 10.0 ** rng.uniform(-12.0, -2.0)
        g = g[:1] + spread * rng.normal(size=(k, n))
    h = rng.normal(size=k) * 10.0 ** rng.uniform(-3.0, 3.0)
    if rng.uniform() < 0.2:
        h = np.abs(h)
    return g, h, rng.normal(size=k)


@given(_masters())
def test_master_matches_reference(master):
    g, h, dh = master
    try:
        want = _least_distance_reference(g, h, dh)
    except RiskError as exc:
        with pytest.raises(RiskError, match=str(exc)):
            _least_distance(g, h)
        return
    x, y, slope = _least_distance(g, h)
    dx, dy = slope(dh)
    assert np.abs(x - want[0]).max() <= 1e-12 * np.abs(want[0]).max()
    assert np.abs(y - want[1]).max() <= 1e-9 * max(np.abs(want[1]).max(),
                                                   1.0)
    assert np.array_equal(np.isnan(dx), np.isnan(want[2]))
    assert np.array_equal(np.isnan(dy), np.isnan(want[3]))
    if len(h) == 1:
        # the closed form's slopes are the polished QR's
        for got, ref in ((dx, want[2]), (dy, want[3])):
            assert np.allclose(got, ref, rtol=1e-12, atol=0.0,
                               equal_nan=True)


def test_one_cut_master_in_closed_form(monkeypatch):
    """A one-cut master runs no NNLS: the zero point for h <= 0, the
    projection onto the cut for h > 0, and a zero row with h > 0 is
    inconsistent as before."""
    calls = []
    monkeypatch.setattr(cvar, "nnls", lambda *a: calls.append(a))
    g = np.array([[4.0, 0.0, 4.0]])
    x, y, slope = _least_distance(g, np.array([8.0]))
    assert x.tolist() == [1.0, 0.0, 1.0] and y.tolist() == [0.5]
    dx, dy = slope(np.array([32.0]))
    assert dx.tolist() == [4.0, 0.0, 4.0] and dy.tolist() == [2.0]
    for h in (0.0, -2.0):
        x, y, slope = _least_distance(g, np.array([h]))
        assert x.tolist() == [0.0] * 3 and y.tolist() == [0.0]
        assert np.isnan(np.concatenate(slope(np.array([1.0])))).all()
    with pytest.raises(RiskError, match="inconsistent rows"):
        _least_distance(np.zeros((1, 3)), np.array([1.0]))
    assert calls == []


def test_one_cut_programs_call_no_nnls(monkeypatch):
    """Every fixture quote settles on one-cut masters and runs no NNLS;
    masters with more cuts, on twelve random days at alpha = 0.3, make
    one NNLS call each."""
    net = manhattan7()
    days = typical_days()
    tariff = evcs_tariff_cents(net, per_day_dlmps(net, days))
    rng = np.random.default_rng(12)
    many = TypicalDaySet(rng.dirichlet(np.ones(12)),
                         rng.uniform(10.0, 60.0, (12, 24)))
    calls, masters = [], []
    real_nnls, real_master = cvar.nnls, cvar._least_distance

    def counted_nnls(*args):
        calls.append(args)
        return real_nnls(*args)

    def counted_master(g, h):
        masters.append(len(h))
        return real_master(g, h)

    monkeypatch.setattr(cvar, "nnls", counted_nnls)
    monkeypatch.setattr(cvar, "_least_distance", counted_master)
    for alpha in (0.0, 0.5, 1.0):
        robust_premium_bilevel(days, default_risk_config(alpha=alpha),
                               tariff)
    assert masters and set(masters) == {1} and calls == []
    masters.clear()
    robust_premium_bilevel(many, default_risk_config(alpha=0.3),
                           rng.uniform(1.0, 4.0, (12, 24)))
    assert len(calls) == sum(k > 1 for k in masters) > 0
