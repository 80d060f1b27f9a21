"""Tri-level premium: direct oracle, the CCG round, scaling sweep."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from evcs_premium import trilevel
from evcs_premium.cvar import robust_premium_bilevel
from evcs_premium.dcopf import Generator, Network, per_day_dlmps
from evcs_premium.fixtures import (
    default_risk_config,
    manhattan7,
    typical_days,
)
from evcs_premium.trilevel import (
    CCG_TOL,
    CcgState,
    SweepRow,
    TrilevelError,
    TrilevelQuote,
    ccg_solve,
    check_sweep_monotonicity,
    demand_scaling_sweep,
    single_level_residuals,
    solve_trilevel_direct,
)


@pytest.fixture(scope="module")
def fixture_sweep():
    return demand_scaling_sweep(manhattan7(), typical_days(),
                                default_risk_config())


def test_ccg_matches_direct_solve():
    net = manhattan7()
    days = typical_days()
    for alpha, mode in ((1.0, "expected"), (1.0, "upper"),
                        (0.5, "lower"), (0.0, "expected")):
        config = default_risk_config(alpha=alpha, bound_mode=mode)
        via_ccg = ccg_solve(net, days, config)
        direct = solve_trilevel_direct(net, days, config)
        rel = abs(via_ccg.premium - direct.premium) / (1.0 + direct.premium)
        assert rel <= 1e-6
        assert via_ccg.mode == "ccg" and direct.mode == "direct"
        assert len(via_ccg.ccg_trace) == 1
        final = via_ccg.ccg_trace[-1]
        assert final.relative_gap <= CCG_TOL
        assert abs(final.premium - via_ccg.premium) <= 1e-9 * (
            1.0 + via_ccg.premium)


def test_ccg_bound_sequences_are_certified():
    quote = ccg_solve(manhattan7(), typical_days(),
                      default_risk_config(alpha=0.5))
    (state,) = quote.ccg_trace
    assert state.iteration == 1
    assert state.premium == quote.premium
    slack = CCG_TOL * (1.0 + abs(state.upper_bound)) + 1e-9
    assert state.lower_bound <= state.upper_bound + slack
    assert state.relative_gap <= CCG_TOL
    assert quote.quote.iterations == 1
    assert quote.quote.kkt_max_residual <= 1e-6


def test_ccg_open_gap_raises(monkeypatch):
    """A subproblem response below the principal's price leaves a bound
    gap; the round names it instead of iterating."""
    solve = trilevel.solve_risk_averse_evcs

    def perturbed(*args, **kwargs):
        sol = solve(*args, **kwargs)
        return dataclasses.replace(sol,
                                   charging_price=0.9 * sol.charging_price)

    monkeypatch.setattr(trilevel, "solve_risk_averse_evcs", perturbed)
    with pytest.raises(TrilevelError, match="relative bound gap of") \
            as info:
        ccg_solve(manhattan7(), typical_days(),
                  default_risk_config(alpha=0.5))
    gap = float(str(info.value).split("gap of ")[1].split()[0])
    assert gap > 100 * CCG_TOL


def test_trilevel_reduces_to_bilevel_on_flat_grid():
    """One marginal unit everywhere makes the grid a constant tariff."""
    days = typical_days()
    demand = {b: np.full(24, 3.0) for b in (1,)}
    net = Network(buses=(1,), lines=(),
                  generators=(Generator(1, 12.0, 500.0),),
                  base_demand={d: demand for d in days.day_ids},
                  evcs_bus=1)
    config = default_risk_config(alpha=0.5, bound_mode="upper")
    tri = solve_trilevel_direct(net, days, config)
    assert_allclose(tri.tariff_cents, 1.2, atol=1e-10)
    flat = robust_premium_bilevel(days, config, np.full(24, 1.2))
    assert abs(tri.premium - flat.premium) <= 1e-8 * (1.0 + flat.premium)


def test_grid_residual_families():
    net = manhattan7()
    days = typical_days()
    res = single_level_residuals(net, days, per_day_dlmps(net, days))
    assert set(res) == {"balance", "flow_angle", "limits",
                       "dual_stationarity", "dual_sign", "duality_gap"}
    for family, value in res.items():
        assert value <= 1e-8, family


def test_trilevel_quote_exposes_grid_blocks():
    quote = solve_trilevel_direct(manhattan7(), typical_days(),
                                  default_risk_config())
    assert quote.tariff_cents.shape == (4, 24)
    assert len(quote.dlmp) == 4
    assert float(np.max(quote.duality_gaps)) <= 1e-8
    assert quote.premium == quote.quote.premium
    assert quote.per_kwh == quote.quote.per_kwh


def test_sweep_covers_grid_and_stays_monotone(fixture_sweep):
    rows = fixture_sweep
    assert len(rows) == 45
    assert all(r.feasible for r in rows)
    assert check_sweep_monotonicity(rows) == []


def test_premium_rate_rises_with_system_scale(fixture_sweep):
    by_cell = {(r.scale, r.alpha, r.bound): r for r in fixture_sweep}
    small = by_cell[(1.0, 1.0, "expected")]
    large = by_cell[(1000.0, 1.0, "expected")]
    assert large.x_hat > small.x_hat + 1e-3
    assert large.lambda_c_avg > small.lambda_c_avg + 1e-3


def test_uncertainty_spread_widens_as_alpha_drops(fixture_sweep):
    by_cell = {(r.scale, r.alpha, r.bound): r for r in fixture_sweep}
    for scale in (1.0, 100.0, 400.0, 800.0, 1000.0):
        spreads = [by_cell[(scale, a, "upper")].x_hat
                   - by_cell[(scale, a, "lower")].x_hat
                   for a in (1.0, 0.5, 0.0)]
        assert all(b - a >= -1e-9 for a, b in zip(spreads, spreads[1:]))
        assert spreads[-1] > spreads[0]


def test_unservable_scale_flags_every_cell():
    rows = demand_scaling_sweep(manhattan7(), typical_days(),
                                default_risk_config(), scales=(2000.0,))
    assert len(rows) == 9
    for r in rows:
        assert not r.feasible
        assert "not servable" in r.note
        assert np.isnan(r.x_hat) and np.isnan(r.lambda_c_avg)
    assert check_sweep_monotonicity(rows) == []


def test_monotonicity_checker_catches_violations():
    rows = [SweepRow(1.0, 1.0, "expected", 2.0, 1.0),
            SweepRow(100.0, 1.0, "expected", 1.0, 0.5)]
    violations = check_sweep_monotonicity(rows)
    assert len(violations) == 2  # both columns decrease with scale


def test_state_and_quote_validation():
    with pytest.raises(TrilevelError, match="count from 1"):
        CcgState(iteration=0, lower_bound=0.0, upper_bound=1.0,
                 premium=1.0)
    with pytest.raises(TrilevelError, match="above upper bound"):
        CcgState(iteration=1, lower_bound=5.0, upper_bound=1.0,
                 premium=1.0)
    good = CcgState(iteration=1, lower_bound=1.0, upper_bound=1.0 + 5e-7,
                    premium=1.0)
    assert good.relative_gap <= CCG_TOL

    quote = solve_trilevel_direct(manhattan7(), typical_days(),
                                  default_risk_config())
    with pytest.raises(TrilevelError, match="unknown mode"):
        TrilevelQuote(quote=quote.quote, dlmp=quote.dlmp,
                      tariff_cents=quote.tariff_cents,
                      duality_gaps=quote.duality_gaps, mode="bogus")
    with pytest.raises(TrilevelError, match="strong-duality"):
        TrilevelQuote(quote=quote.quote, dlmp=quote.dlmp,
                      tariff_cents=quote.tariff_cents,
                      duality_gaps=np.array([1e-5]), mode="direct")
