"""Tri-level premium: direct oracle, the CCG round, scaling sweep."""

import dataclasses
import importlib
import os
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from evcs_premium import trilevel
from evcs_premium.cvar import robust_premium_bilevel
from evcs_premium.dcopf import Generator, Network, dual_feasibility_check, \
    per_day_dlmps
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


def _single_level_loop_reference(network, days, results):
    """single_level_residuals one day, line and generator at a time: the
    check as it was written before it took array form."""
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


@pytest.fixture
def grid_feeders(monkeypatch):
    """The servable feeders among the first n requests of the benchmark's
    grid workload (perfbench/workloads.py) at seed 1."""
    import evcs_premium
    perfbench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench")
    monkeypatch.syspath_prepend(perfbench)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.modules.pop("workloads", None)
    grid = workloads.Grid(evcs_premium, 1, None)
    return lambda n: [(net, days) for net, days, expect in map(
        grid.make, range(n)) if expect is None]


def test_grid_residuals_match_loop_reference(grid_feeders):
    """Every family within 1e-15 of the largest price or flow, and the
    same gate decisions, on solved days and on broken copies of them."""
    cases = [(manhattan7(), typical_days().scaled(scale))
             for scale in (1, 100, 400, 800, 1000)] + grid_feeders(30)
    gate = trilevel.DUALITY_GATE
    for net, days in cases:
        results = per_day_dlmps(net, days)
        scale = max(max(np.abs(r.dlmp).max(), np.abs(r.flows).max())
                    for r in results)
        big = 2.0 * max(g.capacity for g in net.generators) + 1.0
        limits = np.array([ln.limit for ln in net.lines])[:, None]
        ramp = 1e-3 * np.arange(len(net.buses))[:, None]
        # each broken copy moves one field, so each term of each family
        # decides its family's value in some case
        broken = [("flows", lambda r: r.flows + 2.0 * limits),
                  ("angles", lambda r: r.angles + ramp),
                  ("dispatch", lambda r: np.full_like(r.dispatch, big)),
                  ("dispatch", lambda r: r.dispatch - r.dispatch.max() - 1.0)]
        broken += [(name, lambda r, name=name: getattr(r, name) - 1e-3)
                   for name in ("alpha_up", "alpha_lo", "delta_up",
                                "delta_lo")]
        for change in [None] + broken:
            composed = results if change is None else [
                dataclasses.replace(r, **{change[0]: change[1](r)})
                for r in results]
            new = single_level_residuals(net, days, composed)
            ref = _single_level_loop_reference(net, days, composed)
            assert new.keys() == ref.keys()
            for family in ref:
                assert abs(new[family] - ref[family]) <= 1e-15 * scale, family
                assert (new[family] <= gate) == (ref[family] <= gate), family
            assert (max(new.values()) > gate) == (change is not None)


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
