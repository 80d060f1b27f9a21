"""Distribution OPF and locational-price extraction."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from evcs_premium import backend, dcopf
from evcs_premium.analytic import TypicalDaySet
from evcs_premium.backend import SENSE_EQ, LinearProgram, solve_lp
from evcs_premium.dcopf import (
    DcopfError,
    Generator,
    Line,
    Network,
    dual_feasibility_check,
    evcs_tariff_cents,
    per_day_dlmps,
    predetermined_tariff,
    solve_dcopf,
)
from evcs_premium.fixtures import manhattan7, typical_days
from evcs_premium.units import kw_to_mw


def _flat(value):
    return np.full(24, float(value))


def _two_bus(limit, second_gen=False, load=30.0):
    gens = [Generator(1, 10.0, 100.0)]
    if second_gen:
        gens.append(Generator(2, 15.0, 100.0))
    return Network(buses=(1, 2), lines=(Line(1, 2, 0.1, limit),),
                   generators=tuple(gens),
                   base_demand={"d1": {2: _flat(load)}}, evcs_bus=2)


def _random_network(rng, n_bus, line_limit=None, extra_lines=2):
    """Connected network on a random spanning tree plus a few chords.

    Default line limits sit above the total system load. Transfer
    factors never exceed one in magnitude, so that keeps every draw
    feasible without hand-tuning.
    """
    buses = tuple(range(1, n_bus + 1))
    demand = {int(b): rng.uniform(1.0, 9.0, size=24) for b in buses}
    total_peak = float(sum(demand[b].max() for b in buses))

    def limit():
        if line_limit is not None:
            return line_limit
        return total_peak * float(rng.uniform(1.05, 1.6))

    lines = []
    for b in buses[1:]:
        anchor = int(rng.integers(1, b))
        lines.append(Line(anchor, b, float(rng.uniform(0.05, 0.15)),
                          limit()))
    for _ in range(int(rng.integers(0, extra_lines + 1))):
        a, b = rng.choice(buses, size=2, replace=False)
        lines.append(Line(int(min(a, b)), int(max(a, b)),
                          float(rng.uniform(0.05, 0.15)), limit()))
    n_gen = int(rng.integers(1, 4))
    costs = rng.uniform(5.0, 50.0, size=n_gen)
    costs += np.arange(n_gen) * 1e-3  # keep marginal costs distinct
    gens = tuple(Generator(int(rng.choice(buses)), float(costs[i]),
                           2.0 * total_peak) for i in range(n_gen))
    return Network(buses=buses, lines=tuple(lines), generators=gens,
                   base_demand={"d1": demand}, evcs_bus=buses[-1])


def test_two_bus_marginal_price_uncongested():
    net = _two_bus(limit=200.0)
    res = solve_dcopf(net, "d1")
    assert_allclose(res.dlmp, 10.0, atol=1e-8)
    assert_allclose(res.dispatch[0], 30.0, atol=1e-8)
    assert_allclose(res.flows[0], 30.0, atol=1e-8)
    assert_allclose(res.c_ll, 24 * 30.0 * 10.0, rtol=1e-10)


def test_two_bus_congestion_splits_prices():
    # The cheap unit can push only 20 MW across the line; the local unit
    # at 15 $/MWh covers the rest and sets the receiving-end price.
    net = _two_bus(limit=20.0, second_gen=True)
    res = solve_dcopf(net, "d1")
    assert_allclose(res.dlmp[0], 10.0, atol=1e-7)
    assert_allclose(res.dlmp[1], 15.0, atol=1e-7)
    assert_allclose(res.dispatch[0], 20.0, atol=1e-7)
    assert_allclose(res.dispatch[1], 10.0, atol=1e-7)
    assert_allclose(res.flows[0], 20.0, atol=1e-8)
    # congestion rent shows up on the flow bound, not the angle equality
    assert_allclose(res.xi[0], 0.0, atol=1e-6)
    assert_allclose(res.delta_up[0], 5.0, atol=1e-6)
    assert_allclose(res.delta_lo[0], 0.0, atol=1e-8)


def test_fixture_days_strong_duality():
    net = manhattan7()
    for res in per_day_dlmps(net, typical_days()):
        gap = abs(res.c_ll - res.c_dll)
        assert gap <= 1e-8 * (1.0 + abs(res.c_ll))
        assert res.balance_residual <= 1e-7


def test_dual_feasibility_fixture_and_perturbation():
    net = manhattan7()
    res = per_day_dlmps(net, typical_days())[0]
    report = dual_feasibility_check(res, net)
    assert report.max_residual <= 1e-7
    broken = dataclasses.replace(res, dlmp=res.dlmp + 1e-3)
    report = dual_feasibility_check(broken, net)
    assert report.gen_cost_balance >= 0.9e-3


def _dual_check_loop_reference(result, network):
    """dual_feasibility_check's families, one generator and line at a
    time: the check as it was written before it took array form."""
    idx = network.bus_index()
    r_gen = 0.0
    for i, gen in enumerate(network.generators):
        lam = result.dlmp[idx[gen.bus]]
        costs = gen.cost_profile()
        resid = result.alpha_up[i] - result.alpha_lo[i] - lam + costs
        r_gen = max(r_gen, float(np.max(np.abs(resid))))

    r_line = 0.0
    for li, ln in enumerate(network.lines):
        resid = (result.xi[li] + result.delta_up[li] - result.delta_lo[li]
                 + result.dlmp[idx[ln.from_bus]] - result.dlmp[idx[ln.to_bus]])
        r_line = max(r_line, float(np.max(np.abs(resid))))

    per_bus = np.zeros((len(network.buses), 24))
    for li, ln in enumerate(network.lines):
        per_bus[idx[ln.from_bus]] += result.xi[li] / ln.reactance
        per_bus[idx[ln.to_bus]] -= result.xi[li] / ln.reactance
    r_bus = float(np.max(np.abs(per_bus)))
    return dcopf.DualCheckReport(gen_cost_balance=r_gen,
                                 line_dual_balance=r_line,
                                 bus_dual_balance=r_bus)


def test_dual_check_matches_loop_reference():
    """Every family within 1e-15 of the day's largest price or flow, and
    the same gate decision, on solved days and on days with broken duals."""
    cases = [(manhattan7(), typical_days().scaled(scale))
             for scale in (1, 100, 400, 800, 1000)]
    rng = np.random.default_rng(4093)
    for _ in range(8):
        net = _random_network(rng, int(rng.integers(2, 16)))
        cases.append((net, TypicalDaySet(np.ones(1), np.zeros((1, 24)),
                                         day_ids=("d1",))))
    tripped = 0
    for net, days in cases:
        for res in per_day_dlmps(net, days):
            scale = max(np.abs(res.dlmp).max(), np.abs(res.flows).max())
            # each broken copy moves one field, so each term of each
            # family decides its family's value in some case
            broken = [dataclasses.replace(res, **{name: getattr(res, name)
                                                  + 1e-3})
                      for name in ("dlmp", "alpha_lo", "xi", "delta_lo")]
            for day in [res] + broken:
                new = dual_feasibility_check(day, net)
                ref = _dual_check_loop_reference(day, net)
                for family in ("gen_cost_balance", "line_dual_balance",
                               "bus_dual_balance"):
                    assert abs(getattr(new, family) - getattr(ref, family)
                               ) <= 1e-15 * scale, family
                assert (new.max_residual <= 1e-7) == (
                    ref.max_residual <= 1e-7)
                tripped += new.max_residual > 1e-7
    assert tripped >= 4 * len(cases)


def test_random_networks_duality_and_dual_feasibility():
    rng = np.random.default_rng(1207)
    for _ in range(8):
        net = _random_network(rng, int(rng.integers(2, 11)))
        res = solve_dcopf(net, "d1")
        assert abs(res.c_ll - res.c_dll) <= 1e-8 * (1.0 + abs(res.c_ll))
        assert dual_feasibility_check(res, net).max_residual <= 1e-7
        caps = np.array([g.capacity for g in net.generators])
        assert np.all(res.dispatch >= -1e-9)
        assert np.all(res.dispatch <= caps[:, None] + 1e-9)
        limits = np.array([ln.limit for ln in net.lines])
        assert np.all(np.abs(res.flows) <= limits[:, None] + 1e-7)


def test_uncongested_network_has_uniform_prices():
    rng = np.random.default_rng(904)
    for _ in range(5):
        net = _random_network(rng, int(rng.integers(3, 11)),
                              line_limit=1e4)
        res = solve_dcopf(net, "d1")
        spread = res.dlmp.max(axis=0) - res.dlmp.min(axis=0)
        assert spread.max() <= 1e-9


def test_generator_cost_scaling_scales_prices():
    # once on the congested two-bus case, once on a random draw
    nets = [_two_bus(limit=20.0, second_gen=True),
            _random_network(np.random.default_rng(77), 5)]
    for net in nets:
        base = solve_dcopf(net, "d1")
        scaled_gens = tuple(
            Generator(g.bus, 3.0 * np.asarray(g.cost_profile()),
                      g.capacity)
            for g in net.generators)
        net3 = Network(buses=net.buses, lines=net.lines,
                       generators=scaled_gens,
                       base_demand=net.base_demand,
                       evcs_bus=net.evcs_bus)
        scaled = solve_dcopf(net3, "d1")
        assert_allclose(scaled.dlmp, 3.0 * base.dlmp, rtol=1e-8,
                        atol=1e-7)
        assert_allclose(scaled.dispatch, base.dispatch, atol=1e-6)
        assert_allclose(scaled.c_ll, 3.0 * base.c_ll, rtol=1e-10)


def test_slack_line_limit_increase_is_a_noop():
    rng = np.random.default_rng(41)
    net = _random_network(rng, 6, extra_lines=0)
    base = solve_dcopf(net, "d1")
    margins = [ln.limit - np.abs(base.flows[li]).max()
               for li, ln in enumerate(net.lines)]
    li = int(np.argmax(margins))
    assert margins[li] > 1.0, "fixture needs at least one slack line"
    lines = list(net.lines)
    ln = lines[li]
    lines[li] = Line(ln.from_bus, ln.to_bus, ln.reactance, 1.5 * ln.limit)
    relaxed = solve_dcopf(Network(buses=net.buses, lines=tuple(lines),
                                  generators=net.generators,
                                  base_demand=net.base_demand,
                                  evcs_bus=net.evcs_bus), "d1")
    assert_allclose(relaxed.dlmp, base.dlmp, atol=1e-7)
    assert_allclose(relaxed.c_ll, base.c_ll, rtol=1e-9)


def _hour_reference(net, demand, t):
    """Hour t's OPF LP built entry by entry and solved alone.

    Returns the balance-row duals (the DLMPs) and the hour's cost.
    """
    idx = net.bus_index()
    n_g, n_b, n_l = len(net.generators), len(net.buses), len(net.lines)
    rows = np.zeros((n_b + n_l, n_g + n_b + n_l))
    cost = np.zeros(n_g + n_b + n_l)
    lower = np.full(n_g + n_b + n_l, -np.inf)
    upper = np.full(n_g + n_b + n_l, np.inf)
    for i, gen in enumerate(net.generators):
        rows[idx[gen.bus], i] += 1.0
        cost[i] = gen.cost_profile()[t]
        lower[i], upper[i] = 0.0, gen.capacity
    for li, ln in enumerate(net.lines):
        f = n_g + n_b + li
        rows[idx[ln.to_bus], f] += 1.0
        rows[idx[ln.from_bus], f] -= 1.0
        rows[n_b + li, f] = ln.reactance
        rows[n_b + li, n_g + idx[ln.from_bus]] -= 1.0
        rows[n_b + li, n_g + idx[ln.to_bus]] += 1.0
        lower[f], upper[f] = -ln.limit, ln.limit
    ref = n_g + idx[net.reference_bus]
    lower[ref] = upper[ref] = 0.0
    rhs = np.concatenate([demand[:, t], np.zeros(n_l)])
    res = solve_lp(LinearProgram.from_dense(
        cost, rows, [SENSE_EQ] * (n_b + n_l), rhs, lower, upper))
    assert res.status == "optimal"
    return res.duals[:n_b], res.objective


def _assert_matches_hourly_reference(net, day, ev_mw=None):
    res = solve_dcopf(net, day, ev_mw)
    demand = net.demand_matrix(day)
    if ev_mw is not None:
        demand[net.bus_index()[net.evcs_bus]] += ev_mw
    hours = [_hour_reference(net, demand, t) for t in range(24)]
    dlmp = np.column_stack([lam for lam, _ in hours])
    c_ll = sum(obj for _, obj in hours)
    assert np.abs(res.dlmp - dlmp).max() <= 1e-9 * (1.0 + np.abs(dlmp).max())
    assert abs(res.c_ll - c_ll) <= 1e-9 * (1.0 + abs(c_ll))


def test_stacked_day_matches_hourly_reference():
    net = manhattan7()
    for scale in (1.0, 1000.0):  # 1000x congests the fixture feeder
        days = typical_days().scaled(scale)
        for s, day in enumerate(days.day_ids):
            _assert_matches_hourly_reference(net, day,
                                             kw_to_mw(days.demand_kw[s]))
    rng = np.random.default_rng(2718)
    for k in range(4):
        net = _random_network(rng, int(rng.integers(2, 11)),
                              line_limit=1e4 if k == 0 else None)
        _assert_matches_hourly_reference(net, "d1")


@pytest.fixture
def lp_calls(monkeypatch):
    """The LPs dcopf hands to solve_lp, in call order."""
    calls = []

    def counting(lp, blocks=1, basis=None):
        calls.append(lp)
        return solve_lp(lp, blocks=blocks, basis=basis)

    monkeypatch.setattr(dcopf, "solve_lp", counting)
    return calls


def test_one_lp_per_day(lp_calls):
    per_day_dlmps(manhattan7(), typical_days())
    assert len(lp_calls) == 4


def test_single_bus_tariff_is_the_marginal_cost():
    demand = {1: _flat(4.0)}
    net = Network(buses=(1,), lines=(), generators=(Generator(1, 7.0, 50.0),),
                  base_demand={d: demand for d in ("a", "b")}, evcs_bus=1)
    days = TypicalDaySet(likelihood=np.array([0.5, 0.5]),
                         demand_kw=np.full((2, 24), 200.0),
                         day_ids=("a", "b"))
    table = predetermined_tariff(net, days)
    assert_allclose(table, 7.0, atol=1e-9)
    # 7 $/MWh is 0.7 cents per kWh
    assert_allclose(evcs_tariff_cents(net, per_day_dlmps(net, days)), 0.7,
                    atol=1e-10)


def test_fixture_congestion_appears_at_scale():
    net = manhattan7()
    days = typical_days().scaled(1000.0)
    results = per_day_dlmps(net, days)
    limits = np.array([ln.limit for ln in net.lines])
    congested = any(
        np.any(np.abs(res.flows) >= limits[:, None] - 1e-6)
        for res in results)
    assert congested
    spread = max(float((r.dlmp.max(axis=0) - r.dlmp.min(axis=0)).max())
                 for r in results)
    assert spread > 0.5


def test_fixture_binding_sets_vary_by_day():
    net = manhattan7()
    tariff = evcs_tariff_cents(net, per_day_dlmps(net, typical_days()))
    assert tariff.shape == (4, 24)
    row_gaps = np.abs(tariff - tariff[0]).max(axis=1)
    assert np.any(row_gaps[1:] > 1e-6)


def test_overscaled_demand_reports_first_binding_hour():
    with pytest.raises(DcopfError, match="not servable, first binding hour"):
        per_day_dlmps(manhattan7(), typical_days().scaled(2000.0))


def test_unservable_hour_is_localized(lp_calls):
    # 30 MW of base load, 100 MW of capacity: 80 MW more at hour 17 of
    # the second day is the only demand no dispatch can serve
    load = _flat(30.0)
    net = Network(buses=(1, 2), lines=(Line(1, 2, 0.1, 200.0),),
                  generators=(Generator(1, 10.0, 100.0),),
                  base_demand={d: {2: load} for d in ("d1", "d2", "d3")},
                  evcs_bus=2)
    demand_kw = np.zeros((3, 24))
    demand_kw[1, 16] = 80e3
    days = TypicalDaySet(likelihood=np.full(3, 1.0 / 3), demand_kw=demand_kw,
                         day_ids=("d1", "d2", "d3"))
    with pytest.raises(DcopfError) as err:
        per_day_dlmps(net, days)
    assert "day 'd2': demand not servable, first binding hour 17 " in str(
        err.value)
    # d1 whole, d2 whole, then d2's hours 1..17 one at a time; d3 never
    assert [lp.num_rows // 3 for lp in lp_calls] == [24, 24] + [1] * 17


def test_hour_missing_its_gates_is_named(monkeypatch):
    # a dual error of 1e-3 $/MWh in hour 5 alone, far above its gate,
    # injected into HiGHS's raw solution before solve_lp certifies it
    raw_solve = backend._highs_solve

    def perturbed(lp, basis=None):
        out = raw_solve(lp, basis)
        out[3][4 * lp.num_rows // 24] += 1e-3
        return out

    monkeypatch.setattr(backend, "_highs_solve", perturbed)
    with pytest.raises(DcopfError, match="day 'd1' hour 5: solution misses "
                                         "the optimality gates"):
        solve_dcopf(_two_bus(limit=200.0), "d1")


def _grid_feeder(rng, n_bus, n_days):
    """A feeder like the benchmark's grid ones: a radial tree plus one or
    two chords with limits that congest, a root unit with an hourly cost,
    a local backup unit able to carry each load bus alone (so every day is
    servable), and several days of base and charging load."""
    buses = tuple(range(1, n_bus + 1))
    peak = rng.uniform(0.3, 2.5, n_bus)
    ev_kw = rng.uniform(300.0, 2500.0, (n_days, 1)) * rng.uniform(
        0.15, 1.0, (n_days, 24))
    evcs_bus = int(rng.integers(2, n_bus + 1))
    pairs = {(int(rng.integers(max(1, b - 4), b)), b) for b in buses[1:]}
    for _ in range(int(rng.integers(1, 3))):
        a, b = sorted(int(v) for v in rng.choice(buses, 2, replace=False))
        pairs.add((a, b))
    lines = tuple(Line(a, b, float(rng.uniform(0.02, 0.12)),
                       float(rng.uniform(0.1, 0.8) * peak.sum()))
                  for a, b in sorted(pairs))
    gens = [Generator(1, 18.0 + 10.0 * rng.uniform(size=24),
                      2.0 * peak.sum() + ev_kw.max() / 1e3)]
    gens += [Generator(b, float(rng.uniform(45.0, 95.0)) + 1e-3 * b,
                       1.1 * peak[b - 1] + (b == evcs_bus) * ev_kw.max() / 1e3)
             for b in buses[1:]]
    base = {f"d{k + 1}": {b: peak[b - 1] * rng.uniform(0.45, 1.0, 24)
                          for b in buses[1:]} for k in range(n_days)}
    days = TypicalDaySet(likelihood=np.full(n_days, 1.0 / n_days),
                         demand_kw=ev_kw, day_ids=tuple(base))
    return Network(buses=buses, lines=lines, generators=tuple(gens),
                   base_demand=base, evcs_bus=evcs_bus), days


def _cold_days(net, days):
    """Each day of per_day_dlmps solved alone, from no basis."""
    return [solve_dcopf(net, day, kw_to_mw(days.demand_kw[s]))
            for s, day in enumerate(days.day_ids)]


def test_warm_started_days_match_cold_solves():
    cases = [(manhattan7(), typical_days().scaled(scale))
             for scale in (1, 100, 400, 800, 1000)]
    rng = np.random.default_rng(1009)
    cases += [_grid_feeder(rng, 7 + k % 14, 2 + k % 5) for k in range(40)]
    congested = 0
    for net, days in cases:
        for warm, cold in zip(per_day_dlmps(net, days), _cold_days(net, days)):
            assert np.abs(warm.dlmp - cold.dlmp).max() <= (
                1e-12 * np.abs(cold.dlmp).max())
            assert abs(warm.c_ll - warm.c_dll) <= 1e-8 * (1.0 + abs(warm.c_ll))
            assert warm.balance_residual <= 1e-7
            assert dual_feasibility_check(warm, net).max_residual <= 1e-7
            congested += np.ptp(warm.dlmp, axis=0).max() > 1.0
    assert congested > 100  # most days price buses apart by congestion


def test_warm_start_keeps_no_state_between_calls():
    net = manhattan7()
    days = typical_days().scaled(400)
    first = per_day_dlmps(net, days)
    per_day_dlmps(net, typical_days().scaled(1000))
    solve_dcopf(net, days.day_ids[-1])
    for again in (per_day_dlmps(net, days), per_day_dlmps(manhattan7(), days)):
        for a, b in zip(first, again):
            for f in dataclasses.fields(a):
                assert_array_equal(getattr(b, f.name), getattr(a, f.name),
                                   strict=True)


def test_warm_day_missing_its_gates_is_solved_cold(monkeypatch):
    raw_solve = backend._highs_solve
    warm_starts = []

    def spoiled(lp, basis=None):
        warm_starts.append(basis is not None)
        out = raw_solve(lp, basis)
        if basis is not None:
            out[3][0] += 1e-3  # a dual error far above hour 1's gate
        return out

    net, days = manhattan7(), typical_days().scaled(400)
    monkeypatch.setattr(backend, "_highs_solve", spoiled)
    got = per_day_dlmps(net, days)
    # day 1 cold; each later day warm, spoiled, then solved again cold
    assert warm_starts == [False] + [True, False] * 3
    monkeypatch.undo()
    for a, b in zip(got, _cold_days(net, days)):
        assert_array_equal(a.dlmp, b.dlmp, strict=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field, match", [
    ("reactance", r"line Line\(from_bus=1, to_bus=2.*finite positive "
                  r"reactance"),
    ("limit", r"line Line\(from_bus=1, to_bus=2.*finite positive flow "
              r"limit"),
    ("capacity", "generator 0 at bus 1 must have finite capacity"),
    ("cost", "cost of generator 0 at bus 1 must be finite, hour 1 "),
    ("cost_series", "cost of generator 0 at bus 1 must be finite, hour 7 "),
    ("demand", "demand of day 'd1' at bus 2 must be finite, hour 7 "),
])
def test_non_finite_network_data_rejected(field, match, bad):
    line = {"reactance": 0.1, "limit": 200.0}
    gen = {"cost": 10.0, "capacity": 100.0}
    load = _flat(30.0)
    if field in line:
        line[field] = bad
    elif field in gen:
        gen[field] = bad
    elif field == "cost_series":
        gen["cost"] = _flat(10.0)
        gen["cost"][6] = bad
    else:
        load[6] = bad
    with pytest.raises(DcopfError, match=match):
        Network(buses=(1, 2), lines=(Line(1, 2, **line),),
                generators=(Generator(1, **gen),),
                base_demand={"d1": {2: load}}, evcs_bus=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_evcs_demand_rejected(bad):
    ev = _flat(1.0)
    ev[3] = bad
    with pytest.raises(DcopfError, match="day 'd1': EVCS demand at bus 2 "
                                         "must be finite, hour 4 "):
        solve_dcopf(_two_bus(limit=200.0), "d1", ev)


def test_network_validation():
    with pytest.raises(DcopfError, match="unknown bus"):
        Network(buses=(1, 2), lines=(Line(1, 3, 0.1, 10.0),),
                generators=(Generator(1, 10.0, 10.0),),
                base_demand={}, evcs_bus=1)
    with pytest.raises(DcopfError, match="positive reactance"):
        Network(buses=(1, 2), lines=(Line(1, 2, 0.0, 10.0),),
                generators=(Generator(1, 10.0, 10.0),),
                base_demand={}, evcs_bus=1)
    with pytest.raises(DcopfError, match="not connected"):
        Network(buses=(1, 2, 3), lines=(Line(1, 2, 0.1, 10.0),),
                generators=(Generator(1, 10.0, 10.0),),
                base_demand={}, evcs_bus=1)
    with pytest.raises(DcopfError, match="EVCS bus"):
        Network(buses=(1, 2), lines=(Line(1, 2, 0.1, 10.0),),
                generators=(Generator(1, 10.0, 10.0),),
                base_demand={}, evcs_bus=9)
    net = _two_bus(limit=200.0)
    with pytest.raises(DcopfError, match="unknown day"):
        net.demand_matrix("nope")
    with pytest.raises(DcopfError, match="hourly entries"):
        solve_dcopf(net, "d1", np.ones(23))
    with pytest.raises(DcopfError, match="nonnegative"):
        solve_dcopf(net, "d1", -np.ones(24))


def test_charging_demand_raises_system_cost():
    net = manhattan7()
    base = solve_dcopf(net, "weekday-a")
    loaded = solve_dcopf(net, "weekday-a", _flat(5.0))
    assert loaded.c_ll > base.c_ll + 1.0
