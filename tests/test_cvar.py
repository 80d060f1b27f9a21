"""Risk-averse price program: CVaR oracles, duals, fixed point."""

import dataclasses
import importlib
import os
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from evcs_premium.analytic import (
    PolicyFactors,
    TypicalDaySet,
    closed_form_premium,
    composite_C,
    premium_multiplier_M,
)
from evcs_premium.backend import SENSE_GE, SENSE_LE, ConvexQP, solve_qp
from evcs_premium import cvar, smp
from evcs_premium.cvar import (
    FixedPointError,
    PolicyBox,
    PremiumQuote,
    RiskConfig,
    RiskError,
    RiskInfeasibleError,
    cvar_sup,
    _cost_pieces,
    _day_tariff,
    dual_value,
    kkt_report,
    robust_premium_bilevel,
    solve_risk_averse_evcs,
)
from evcs_premium.dcopf import evcs_tariff_cents, per_day_dlmps
from evcs_premium.fixtures import (
    default_policy,
    default_risk_config,
    manhattan7,
    reference_smp_model,
    typical_days,
)


def worst_case_scenario_cost(demand_kw, charging_price, tariff, x_hat,
                             gamma_p, risk_share, penalty_cents_per_kw):
    """Reference: one day's net cost under attack probability gamma_p.

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


@pytest.fixture(scope="module")
def grid_tariff():
    net = manhattan7()
    return evcs_tariff_cents(net, per_day_dlmps(net, typical_days()))


def _point_config(policy, alpha, bound_mode="expected"):
    return RiskConfig(alpha=alpha, policy_box=PolicyBox.point(policy),
                      policy=policy, bound_mode=bound_mode)


def _tiny_instance():
    """Two days, two hours; small enough for brute-force grids."""
    policy = PolicyFactors(p_attack=0.2, loading=0.2, risk_share=0.5,
                           history_coeff=0.0, attack_count=0, penalty=0.04)
    days = TypicalDaySet(np.array([0.6, 0.4]),
                         np.array([[1.0, 2.0], [2.0, 1.0]]))
    tariff = np.array([[3.0, 4.0], [4.0, 2.0]])
    return policy, days, tariff


def test_cvar_sup_greedy_example():
    costs = np.array([1.0, 5.0, 10.0])
    weights = np.array([0.5, 0.3, 0.2])
    # tail of mass 0.5: all of the 10 (0.2/0.5) plus 5 filling the rest
    assert_allclose(cvar_sup(costs, weights, 0.5), 7.0, rtol=1e-15)
    assert_allclose(cvar_sup(costs, weights, 1.0), 4.0, rtol=1e-15)
    assert_allclose(cvar_sup(costs, weights, 0.0), 10.0, rtol=1e-15)


def test_cvar_sup_matches_quantile_form():
    """sup-of-expectations equals min_v v + E[(c-v)+]/alpha."""
    rng = np.random.default_rng(321)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        costs = rng.normal(0.0, 100.0, size=n)
        weights = rng.uniform(0.1, 1.0, size=n)
        weights /= weights.sum()
        alpha = float(rng.uniform(0.05, 1.0))
        ru = min(v + float(weights @ np.maximum(costs - v, 0.0)) / alpha
                 for v in costs)
        assert abs(cvar_sup(costs, weights, alpha) - ru) <= 1e-8 * 100.0


def test_cvar_sup_endpoints_exact():
    rng = np.random.default_rng(14)
    costs = rng.normal(size=6)
    weights = np.full(6, 1.0 / 6.0)
    assert abs(cvar_sup(costs, weights, 1.0)
               - float(weights @ costs)) <= 1e-12
    assert abs(cvar_sup(costs, weights, 0.0) - costs.max()) <= 1e-12


def test_cvar_sup_validation():
    w = np.array([0.5, 0.5])
    with pytest.raises(RiskError, match="alpha"):
        cvar_sup([1.0, 2.0], w, 1.5)
    with pytest.raises(RiskError, match="probability"):
        cvar_sup([1.0, 2.0], [0.7, 0.7], 0.5)
    with pytest.raises(RiskError, match="matching"):
        cvar_sup([1.0], w, 0.5)
    with pytest.raises(RiskError, match="finite"):
        cvar_sup([np.inf, 1.0], w, 0.5)


def test_price_program_against_grid_search():
    policy, days, tariff = _tiny_instance()
    config = _point_config(policy, alpha=0.7)
    sol = solve_risk_averse_evcs(days, 0.5, config, tariff)

    m = 0.9  # 0.2 * (0.5 - 1) + 1
    a1 = 0.8 * 11.0 + (0.2 * 4.0 + 0.5) * 3.0
    a2 = 0.8 * 10.0 + (0.2 * 4.0 + 0.5) * 3.0
    step = 0.01
    l1, l2 = np.meshgrid(np.arange(0.0, 8.0, step),
                         np.arange(0.0, 8.0, step), indexing="ij")
    c1 = a1 - m * (l1 + 2.0 * l2)
    c2 = a2 - m * (2.0 * l1 + l2)
    # two-atom CVaR_0.7 with caps (0.6/0.7, 0.4/0.7): vertex maximum
    cvar = np.maximum((6.0 * c1 + c2) / 7.0, (3.0 * c1 + 4.0 * c2) / 7.0)
    obj = l1 ** 2 + l2 ** 2
    feasible = cvar <= 1e-12
    assert feasible.any()
    best = float(obj[feasible].min())

    got = float(sol.charging_price @ sol.charging_price)
    assert got <= best + 1e-6          # the QP beats the grid
    # the grid overshoots by at most |grad| * step * sqrt(2)
    norm = float(np.linalg.norm(sol.charging_price))
    assert best - got <= 2.0 * norm * step * 1.5
    flat = np.argmin(np.where(feasible, obj, np.inf))
    lam_grid = np.array([l1.flat[flat], l2.flat[flat]])
    assert np.abs(sol.charging_price - lam_grid).max() <= 5.0 * step
    day_costs = np.array([a1, a2]) - m * (days.demand_kw @ sol.charging_price)
    assert cvar_sup(day_costs, days.likelihood, 0.7) <= 1e-7 * (1.0 + abs(a1))


def test_scenario_duals_match_finite_differences():
    policy, days, tariff = _tiny_instance()
    config = _point_config(policy, alpha=0.7)
    base = solve_risk_averse_evcs(days, 0.5, config, tariff)
    delta = 1e-3
    for s in range(2):
        shift = np.zeros_like(tariff)
        shift[s] = delta
        up = solve_risk_averse_evcs(days, 0.5, config, tariff + shift)
        dn = solve_risk_averse_evcs(days, 0.5, config, tariff - shift)
        fd = ((up.charging_price @ up.charging_price)
              - (dn.charging_price @ dn.charging_price)) / (2.0 * delta)
        # da^s/ddelta = (1 - p) * sum_t d_t^s
        pred = base.varphi[s] * 0.8 * days.demand_kw[s].sum()
        assert abs(fd - pred) <= 1e-5 + 1e-3 * abs(pred)


def test_expectation_level_matches_closed_form(grid_tariff):
    days = typical_days()
    policy = default_policy()
    quote = robust_premium_bilevel(days, _point_config(policy, 1.0),
                                   grid_tariff)
    sol = closed_form_premium(policy, days, grid_tariff)
    assert abs(quote.premium - sol.premium) <= 1e-6 * (1.0 + sol.premium)
    assert_allclose(quote.charging_price, sol.charging_price, rtol=1e-6,
                    atol=1e-8)


def test_random_instances_match_closed_form():
    rng = np.random.default_rng(2026)
    for _ in range(6):
        n_day = int(rng.integers(1, 5))
        n_hour = int(rng.integers(3, 25))
        phi = rng.uniform(0.2, 1.0, size=n_day)
        phi /= phi.sum()
        days = TypicalDaySet(phi,
                             rng.uniform(5.0, 60.0,
                                         size=(n_day, n_hour)))
        tariff = rng.uniform(0.5, 6.0, size=(n_day, n_hour))
        policy = PolicyFactors(
            p_attack=float(rng.uniform(0.01, 0.12)),
            loading=float(rng.uniform(0.0, 0.5)),
            risk_share=float(rng.uniform(0.3, 1.0)),
            history_coeff=float(rng.uniform(0.0, 0.5)),
            attack_count=int(rng.integers(0, 3)),
            penalty=float(rng.uniform(0.0, 5.0)))
        quote = robust_premium_bilevel(days, _point_config(policy, 1.0),
                                       tariff)
        sol = closed_form_premium(policy, days, tariff)
        assert abs(quote.premium - sol.premium) \
            <= 1e-6 * (1.0 + sol.premium)


def test_single_day_alpha_independent(grid_tariff):
    days = TypicalDaySet(np.array([1.0]),
                         typical_days().demand_kw[:1],
                         day_ids=("only",))
    tariff = grid_tariff[:1]
    quotes = [robust_premium_bilevel(
        days, default_risk_config(alpha=alpha), tariff).premium
        for alpha in (1.0, 0.6, 0.3, 0.0)]
    for q in quotes[1:]:
        assert abs(q - quotes[0]) <= 1e-8 * (1.0 + quotes[0])


def _fixture_cells(grid_tariff):
    days = typical_days()
    return [(days, default_risk_config(alpha=alpha, bound_mode=bound),
             grid_tariff)
            for alpha in (1.0, 0.5, 0.0)
            for bound in ("lower", "expected", "upper")]


def _quote_like(n):
    """Random quote requests: 2-12 days of evening-peaked demand from
    1e-1 to 1e3 times a 30-60 kW peak, per-day tariffs, the default
    policy box at every bound and alpha at both ends, 0.5 and U(0, 1)."""
    rng = np.random.default_rng(4242)
    t = np.arange(24.0)
    cells = []
    for i in range(n):
        n_day = int(rng.integers(2, 13))
        shape = (rng.uniform(0.12, 0.25, (n_day, 1))
                 + np.exp(-0.5 * ((t - rng.uniform(17, 20, (n_day, 1)))
                                  / rng.uniform(2, 4, (n_day, 1))) ** 2))
        demand = (10.0 ** rng.uniform(-1.0, 3.0) * rng.uniform(30, 60)
                  * shape / shape.max(axis=1, keepdims=True))
        tariff = rng.uniform(1.8, 2.4, (n_day, 1)) + rng.uniform(
            0.0, 1.2, (n_day, 24))
        alpha = (1.0, 0.5, 0.0, float(rng.uniform()))[i % 4]
        bound = ("lower", "expected", "upper")[i // 4 % 3]
        cells.append((TypicalDaySet(rng.dirichlet(np.full(n_day, 2.0)),
                                    demand),
                      default_risk_config(alpha, bound), tariff))
    return cells


def _picard_premium(days, config, tariff):
    """The premium by plain iteration x -> C rev(lambda(x)) to 1e-13."""
    c_comp = composite_C(config.resolved_policy())
    total = float(days.weighted_demand.sum())
    x = 0.0
    for _ in range(1000):
        sol = solve_risk_averse_evcs(days, x / total, config, tariff)
        x_new = c_comp * float(days.likelihood
                               @ (days.demand_kw @ sol.charging_price))
        if abs(x_new - x) <= 1e-13 * (1.0 + abs(x)):
            return x_new
        x = x_new
    raise AssertionError("plain iteration did not settle")


def _count_programs(monkeypatch):
    """Route robust_premium_bilevel's price programs through a recorder;
    returns the list of (x_hat, solution) it fills."""
    calls = []
    solve = cvar.solve_risk_averse_evcs

    def recorded(days, x_hat, *args, **kwargs):
        sol = solve(days, x_hat, *args, **kwargs)
        calls.append((x_hat, sol))
        return sol

    monkeypatch.setattr(cvar, "solve_risk_averse_evcs", recorded)
    return calls


def test_fixed_point_settles_in_few_iterations(grid_tariff):
    for cell in _fixture_cells(grid_tariff):
        assert robust_premium_bilevel(*cell).iterations <= 2
    counts = [robust_premium_bilevel(*cell).iterations
              for cell in _quote_like(48)]
    # an active-set change between the start and the root costs a third
    assert max(counts) <= 3
    assert np.mean(counts) <= 2.2


def test_fixture_quotes_take_one_program(grid_tariff, monkeypatch):
    """The closed-form start is exact at alpha = 1; elsewhere one Newton
    step from it lands on the root, verified along the first program's
    active set without a second program."""
    calls = _count_programs(monkeypatch)
    for days, config, tariff in _fixture_cells(grid_tariff):
        calls.clear()
        quote = robust_premium_bilevel(days, config, tariff)
        assert len(calls) == quote.iterations == 1
        assert len(quote.trace) == (1 if config.alpha == 1.0 else 2)


@pytest.fixture
def workload_request(monkeypatch):
    """(seed, i) -> the i-th request of the benchmark's quote workload
    (perfbench/workloads.py) at that seed."""
    import evcs_premium
    perfbench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench")
    monkeypatch.syspath_prepend(perfbench)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.modules.pop("workloads", None)
    return lambda seed, i: workloads.Quote(evcs_premium, seed, None).make(i)


def test_workload_quotes_take_about_one_program(workload_request,
                                                monkeypatch):
    """Almost every Newton point is verified without a second program."""
    calls = _count_programs(monkeypatch)
    for i in range(96):
        quote = robust_premium_bilevel(*workload_request(1, i))
        assert quote.kkt_max_residual <= 1e-6
    assert len(calls) <= 1.05 * 96


@pytest.mark.parametrize("op, premium", [
    (1583, "0x1.708a1078b8e4ep+8"),  # alpha 0.2208
    (4057, "0x1.b1b4ba44285e2p+15"),  # alpha 0.5
])
def test_negative_cut_multiplier_takes_the_program(workload_request, op,
                                                   premium):
    """Carried to the first Newton point, these quotes keep varphi >= 0
    but drive a cut multiplier negative, so the point is not optimal there:
    a program runs at it, and the premium is the one that solving a
    program at every iterate gives."""
    quote = robust_premium_bilevel(*workload_request(1, op))
    assert quote.premium == float.fromhex(premium)
    assert quote.iterations == 2 and len(quote.trace) == 3
    assert quote.kkt_max_residual <= 1e-6


def test_verified_point_missing_the_gate_takes_the_program(
        workload_request, monkeypatch):
    """At about 1e5 kW the Newton point carried along the active set is
    optimal but its certificate reads primal_scenario 1.9e-6 from rounding
    in the day costs; the program runs there instead and certifies at
    5e-13, with the premium of a program at every iterate."""
    days, config, tariff = workload_request(77, 498)
    days = TypicalDaySet(days.likelihood, days.demand_kw
                         * float.fromhex("0x1.252cf0effacf8p+12"))
    residuals = []
    report = cvar.kkt_report

    def recorded(*args):
        rep = report(*args)
        residuals.append(rep.max_residual)
        return rep

    monkeypatch.setattr(cvar, "kkt_report", recorded)
    quote = robust_premium_bilevel(days, config, tariff)
    assert residuals[0] > 1e-6 and residuals[-1] == quote.kkt_max_residual
    assert quote.kkt_max_residual <= 1e-6
    assert quote.iterations == 2 and len(quote.trace) == 2
    assert quote.premium == float.fromhex("0x1.32e4e4f619e85p+30")


def test_price_slope_matches_forward_difference(grid_tariff):
    """lambda is affine in x_hat on the active set, so the slope read off
    the final master's QR is exact."""
    days = typical_days()
    config = default_risk_config(alpha=0.5)
    quote = robust_premium_bilevel(days, config, grid_tariff)
    sol = quote.solution
    assert len(sol.active_cuts) > 0 and np.abs(sol.price_slope).max() > 0
    step = 1e-4 * quote.per_kwh
    up = solve_risk_averse_evcs(days, quote.per_kwh + step, config,
                                grid_tariff)
    assert_allclose((up.charging_price - sol.charging_price) / step,
                    sol.price_slope, rtol=0.0, atol=1e-6)


def test_active_set_change_takes_the_fallback(monkeypatch):
    """Above the root the negative-tariff day binds too, and the Newton
    point of that piece is negative: the step falls back to the plain
    step, and the next piece's Newton step finds the root."""
    days = TypicalDaySet(np.array([0.5, 0.5]),
                         np.array([[10.0, 1.0, 1.0], [1.0, 1.0, 50.0]]))
    tariff = np.array([3.0, 3.0, -20.0])
    config = default_risk_config(alpha=0.5, bound_mode="upper")
    c_comp = composite_C(config.resolved_policy())
    total = float(days.weighted_demand.sum())
    calls = _count_programs(monkeypatch)
    quote = robust_premium_bilevel(days, config, tariff, x_start=1000.0)
    (x0, start), (x1, _) = calls[0], calls[1]
    root = calls[-1][1]
    assert not np.array_equal(start.active_cuts, root.active_cuts)
    f0 = c_comp * float(days.likelihood @ (days.demand_kw
                                           @ start.charging_price))
    slope = c_comp * float(days.likelihood @ (days.demand_kw
                                              @ start.price_slope)) / total
    assert 1000.0 + (f0 - 1000.0) / (1.0 - slope) < 0.0
    assert abs(x1 * total - f0) <= 1e-12 * f0
    picard = _picard_premium(days, config, tariff)
    assert abs(quote.premium - picard) <= 1e-9 * picard
    assert quote.kkt_max_residual <= 1e-6


def test_fixed_point_matches_plain_iteration(grid_tariff):
    for days, config, tariff in (_fixture_cells(grid_tariff)
                                 + _quote_like(12)):
        quote = robust_premium_bilevel(days, config, tariff)
        picard = _picard_premium(days, config, tariff)
        assert abs(quote.premium - picard) <= 1e-9 * picard
        assert quote.kkt_max_residual <= 1e-6


def test_fixed_point_error_carries_trace(grid_tariff):
    days, config, tariff = _fixture_cells(grid_tariff)[4]
    with pytest.raises(FixedPointError, match="did not converge in 1 ") \
            as info:
        robust_premium_bilevel(days, config, tariff, max_iters=1)
    assert len(info.value.trace) == 1 and info.value.trace[0] > 0.0


def test_fixed_point_independent_of_start(grid_tariff):
    days = typical_days()
    config = default_risk_config(alpha=0.5, bound_mode="upper")
    a = robust_premium_bilevel(days, config, grid_tariff)
    b = robust_premium_bilevel(days, config, grid_tariff, x_start=1000.0)
    assert abs(a.premium - b.premium) <= 1e-8 * (1.0 + a.premium)


def test_tail_constraint_binds_and_weights_tilt(grid_tariff):
    days = typical_days()
    config = default_risk_config(alpha=0.5)
    quote = robust_premium_bilevel(days, config, grid_tariff)
    sol = quote.solution
    policy = config.resolved_policy()

    # cross-check the internal day costs against the public cost formula
    costs = np.array([
        worst_case_scenario_cost(days.demand_kw[s], sol.charging_price,
                                 grid_tariff[s], quote.per_kwh,
                                 policy.p_attack, policy.risk_share,
                                 policy.penalty_cents_per_kw())
        for s in range(days.n_days)])
    m, a = _cost_pieces(days, quote.per_kwh, policy,
                        _day_tariff(days, grid_tariff))
    scale = 1.0 + float(np.abs(costs).max())
    assert np.abs(costs - (a - m * (days.demand_kw @ sol.charging_price))
                  ).max() <= 1e-12 * scale
    # binding at the optimum
    assert abs(cvar_sup(costs, days.likelihood, 0.5)) <= 1e-6 * scale

    w = sol.varphi / sol.eta
    assert_allclose(w.sum(), 1.0, atol=1e-7)
    assert np.all(w <= days.likelihood / 0.5 + 1e-7)
    assert np.all(w >= -1e-9)


def test_multiplier_identities_scale_with_eta(grid_tariff):
    sol = robust_premium_bilevel(typical_days(), default_risk_config(0.5),
                                 grid_tariff).solution
    k = 1e9 / sol.eta
    varphi, mu = k * sol.varphi, k * sol.mu
    total = float(varphi.sum())
    # a valid set near eta = 1e9, eta off its sum by two ulps (2.4e-7)
    big = dataclasses.replace(sol, varphi=varphi, mu=mu,
                              eta=total + 2.0 * np.spacing(total))
    with pytest.raises(RiskError, match="must equal eta"):
        dataclasses.replace(big, eta=1.01 * total)
    with pytest.raises(RiskError, match="must agree"):
        dataclasses.replace(big, mu=1.01 * mu)


def test_kkt_report_families(grid_tariff, monkeypatch):
    days = typical_days()
    config = default_risk_config(alpha=0.5)
    quote = robust_premium_bilevel(days, config, grid_tariff)
    rep = kkt_report(quote.solution, days, quote.per_kwh, config,
                     grid_tariff)
    assert set(rep.families) == {
        "primal_cvar", "primal_scenario", "primal_nonneg", "dual_nonneg",
        "comp_cvar", "comp_scenario", "comp_zeta", "comp_lambda",
        "stat_zeta", "stat_eta", "stat_lambda", "identity_19"}
    assert rep.max_residual <= 1e-6
    assert rep.max_residual == quote.kkt_max_residual

    broken = dataclasses.replace(
        quote.solution, charging_price=quote.solution.charging_price * 1.01)
    rep2 = kkt_report(broken, days, quote.per_kwh, config, grid_tariff)
    assert rep2.max_residual > 1e-4
    # a NaN family is the worst one, and both gates of the fixed point
    # (on a verified point, then on the final program) refuse it
    rep3 = kkt_report(quote.solution, days, np.nan, config, grid_tariff)
    assert np.isnan(rep3.families["primal_scenario"])
    assert np.isnan(rep3.max_residual)
    monkeypatch.setattr(cvar, "kkt_report", lambda *args: rep3)
    with pytest.raises(RiskError, match="certificate failed: max scaled "
                                        "residual nan"):
        robust_premium_bilevel(days, config, grid_tariff)
    with pytest.raises(RiskError, match="alpha"):
        kkt_report(quote.solution, days, quote.per_kwh,
                   default_risk_config(alpha=0.25), grid_tariff)


def _kkt_loop_reference(solution, days, x_hat, config, tariff):
    """kkt_report's families computed one element at a time."""
    m, a = _cost_pieces(days, x_hat, config.resolved_policy(),
                        _day_tariff(days, tariff))
    d, phi, alpha = days.demand_kw, days.likelihood, config.alpha
    lam, v, zeta = solution.charging_price, solution.v, solution.zeta
    eta, varphi = solution.eta, solution.varphi
    mu, beta = solution.mu, solution.beta

    def rel(raw, scale):
        return float(raw / (1.0 + scale))

    ctilde = a - m * (d @ lam)
    cvar_slack = v + phi @ zeta
    day_slack = ctilde - v - alpha * zeta
    days_, hours = range(len(a)), range(lam.size)
    weighted = m * (varphi @ d)
    return {
        "primal_cvar": rel(max(0.0, cvar_slack),
                           abs(v) + float(np.abs(phi * zeta).sum())),
        "primal_scenario": max(
            rel(max(0.0, day_slack[s]),
                abs(ctilde[s]) + abs(v) + alpha * zeta[s]) for s in days_),
        "primal_nonneg": max(
            rel(max(0.0, float(-zeta.min(initial=0.0))), 0.0),
            rel(max(0.0, float(-lam.min(initial=0.0))), 0.0)),
        "dual_nonneg": rel(
            max(0.0, -eta, float(-varphi.min(initial=0.0)),
                float(-mu.min(initial=0.0)), float(-beta.min(initial=0.0))),
            0.0),
        "comp_cvar": rel(abs(eta * cvar_slack), eta + abs(cvar_slack)),
        "comp_scenario": max(
            rel(abs(varphi[s] * day_slack[s]), varphi[s] + abs(day_slack[s]))
            for s in days_),
        "comp_zeta": max(rel(abs(mu[s] * zeta[s]), mu[s] + zeta[s])
                         for s in days_),
        "comp_lambda": max(rel(abs(beta[t] * lam[t]), beta[t] + lam[t])
                           for t in hours),
        "stat_zeta": max(
            rel(abs(eta * phi[s] - alpha * varphi[s] - mu[s]),
                eta * phi[s] + alpha * varphi[s] + mu[s]) for s in days_),
        "stat_eta": rel(abs(eta - varphi.sum()), eta + varphi.sum()),
        "stat_lambda": max(
            rel(abs(2.0 * lam[t] - weighted[t] - beta[t]),
                2.0 * abs(lam[t]) + abs(weighted[t]) + beta[t])
            for t in hours),
        "identity_19": rel(abs((1.0 - alpha) * varphi.sum() - mu.sum()),
                           varphi.sum() + mu.sum()),
    }


def _assert_kkt_matches_loops(solution, days, x_hat, config, tariff):
    for sol in (solution, dataclasses.replace(
            solution, charging_price=solution.charging_price * 0.99,
            zeta=solution.zeta * 0.9 + 0.1)):
        got = kkt_report(sol, days, x_hat, config, tariff).families
        want = _kkt_loop_reference(sol, days, x_hat, config, tariff)
        assert {k: v.hex() for k, v in got.items()} \
            == {k: v.hex() for k, v in want.items()}


def test_kkt_report_matches_loop_reference(grid_tariff):
    for days, config, tariff in _fixture_cells(grid_tariff):
        quote = robust_premium_bilevel(days, config, tariff)
        _assert_kkt_matches_loops(quote.solution, days, quote.per_kwh,
                                  config, tariff)


def test_worst_case_cost_slopes():
    d = np.array([2.0, 3.0])
    lu = np.array([4.0, 1.0])
    lc = np.array([5.0, 6.0])
    base = worst_case_scenario_cost(d, lc, lu, 1.0, 0.3, 0.8, 7.0)
    manual = (0.7 * (2.0 * (4 - 5) + 3.0 * (1 - 6))
              + 0.3 * (2.0 * (7 - 0.8 * 5) + 3.0 * (7 - 0.8 * 6))
              + 1.0 * 5.0)
    assert_allclose(base, manual, rtol=1e-14)
    # premium slope is the day's energy, price slope is -m d_t
    up = worst_case_scenario_cost(d, lc, lu, 2.0, 0.3, 0.8, 7.0)
    assert_allclose(up - base, d.sum(), rtol=1e-12)
    m = 0.3 * (0.8 - 1.0) + 1.0
    bump = lc + np.array([1.0, 0.0])
    left = worst_case_scenario_cost(d, bump, lu, 1.0, 0.3, 0.8, 7.0)
    assert_allclose(left - base, -m * d[0], rtol=1e-12)


def test_bound_mode_ordering(grid_tariff):
    days = typical_days()
    premiums = [robust_premium_bilevel(
        days, default_risk_config(alpha=1.0, bound_mode=mode),
        grid_tariff).premium for mode in ("lower", "expected", "upper")]
    assert premiums[0] <= premiums[1] + 1e-9
    assert premiums[1] <= premiums[2] + 1e-9
    assert premiums[2] > premiums[0] + 1.0  # the box is not degenerate


def test_infeasible_station_raises():
    # attack certain and nothing insured: revenue cannot move the cost
    policy = PolicyFactors(p_attack=1.0, loading=0.0, risk_share=0.0,
                           history_coeff=0.0, attack_count=0, penalty=3.0)
    days = TypicalDaySet(np.array([1.0]), np.full((1, 4), 10.0))
    tariff = np.full(4, 2.0)
    for alpha in (0.5, 0.0):
        with pytest.raises(RiskInfeasibleError):
            solve_risk_averse_evcs(days, 0.1,
                                   _point_config(policy, alpha), tariff)
    # with no penalty and no premium nothing is at stake: zero prices
    free = dataclasses.replace(policy, penalty=0.0)
    sol = solve_risk_averse_evcs(days, 0.0, _point_config(free, 0.5),
                                 tariff)
    assert_allclose(sol.charging_price, 0.0, rtol=0.0, atol=0.0)
    assert sol.eta == 0.0
    heavy = PolicyFactors(p_attack=0.9, loading=0.5, risk_share=1.0,
                          history_coeff=0.0, attack_count=0, penalty=3.0)
    with pytest.raises(RiskError, match="no finite fixed point"):
        robust_premium_bilevel(days, _point_config(heavy, 1.0), tariff)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_tariff_hour_rejected(bad):
    policy, days, tariff = _tiny_instance()
    tariff[1, 0] = bad
    config = _point_config(policy, 0.5)
    with pytest.raises(RiskError, match=f"day index 1 hour 1 is {bad}$"):
        solve_risk_averse_evcs(days, 0.1, config, tariff)
    with pytest.raises(RiskError, match=f"day index 1 hour 1 is {bad}$"):
        robust_premium_bilevel(days, config, tariff)


def test_tariff_of_other_days_rejected():
    policy, days, tariff = _tiny_instance()
    config = _point_config(policy, 0.5)
    wrong = np.vstack([tariff, tariff[:1]])  # three days for two
    match = r"tariff shape \(3, 2\) incompatible with demand \(2, 2\)"
    with pytest.raises(RiskError, match=match):
        solve_risk_averse_evcs(days, 0.1, config, wrong)
    with pytest.raises(RiskError, match=match):
        robust_premium_bilevel(days, config, wrong)


@pytest.mark.parametrize("case, error, message", [
    ("x_hat nan", RiskError, "x_hat must be finite and nonnegative, got nan"),
    ("x_hat inf", RiskError, "x_hat must be finite and nonnegative, got inf"),
    ("x_start nan", RiskError, "x_start must be finite"),
    ("cvar_sup weights", RiskError, "weights must be finite, got nan at "
     "index 0"),
    ("fit_weibull nan", smp.SmpError, "samples must be finite, got nan at "
     "index 2"),
    ("fit_weibull inf", smp.SmpError, "samples must be finite, got inf at "
     "index 1"),
    ("sojourn nan", smp.SmpError, "sojourn times must be finite, got nan "
     "at index 3"),
    ("kernel nan", smp.SmpError, r"kernel must be finite, got nan at "
     r"index \(1, 2\)"),
])
def test_non_finite_inputs_raise_named_errors(case, error, message):
    """A NaN or inf argument is refused by name (and first bad index)
    before it can turn into NaN prices, a spinning fixed point or a bare
    numpy or scipy error."""
    policy, days, tariff = _tiny_instance()
    config = _point_config(policy, 0.5)
    embedded, chain = smp.run_chain(reference_smp_model())
    kernel = embedded.kernel_inf.copy()
    kernel[1, 2] = np.nan
    sojourn = chain.sojourn.copy()
    sojourn[3] = np.nan
    calls = {
        "x_hat nan": lambda: solve_risk_averse_evcs(days, np.nan, config,
                                                    tariff),
        "x_hat inf": lambda: solve_risk_averse_evcs(days, np.inf, config,
                                                    tariff),
        "x_start nan": lambda: robust_premium_bilevel(days, config, tariff,
                                                      x_start=np.nan),
        "cvar_sup weights": lambda: cvar_sup([1.0, 2.0], [np.nan, 1.0], 0.5),
        "fit_weibull nan": lambda: smp.fit_weibull([1.0, 2.0, np.nan, 3.0]),
        "fit_weibull inf": lambda: smp.fit_weibull([1.0, np.inf, 2.0, 3.0]),
        "sojourn nan": lambda: smp.attack_probability(embedded.stationary,
                                                      sojourn),
        "kernel nan": lambda: smp.stationary_embedded(kernel),
    }
    with pytest.raises(error, match=message):
        calls[case]()


def test_configuration_validation():
    policy = default_policy()
    box = PolicyBox.point(policy)
    with pytest.raises(RiskError, match="alpha"):
        RiskConfig(alpha=1.2, policy_box=box, policy=policy)
    with pytest.raises(RiskError, match="bound mode"):
        RiskConfig(alpha=0.5, policy_box=box, policy=policy,
                   bound_mode="middle")
    with pytest.raises(RiskError, match="p_attack interval"):
        PolicyBox((0.5, 0.2), (0.1, 0.2), (0.0, 0.1))
    with pytest.raises(RiskError, match="outside domain"):
        PolicyBox((0.1, 1.5), (0.1, 0.2), (0.0, 0.1))
    config = _point_config(policy, 0.5)
    days = typical_days()
    with pytest.raises(RiskError, match="x_hat"):
        solve_risk_averse_evcs(days, -0.1, config, np.ones(24))
    with pytest.raises(RiskError, match="per-kWh premium"):
        PremiumQuote(premium=100.0, per_kwh=3.0, charging_price=np.ones(24),
                     bound_mode="expected", alpha=1.0, trace=(), iterations=1,
                     solution=None, kkt_max_residual=0.0, total_demand=10.0)


@pytest.mark.parametrize("field", ["p_attack", "loading", "history_coeff"])
@pytest.mark.parametrize("pair", [(0.2, np.inf), (np.inf, np.inf),
                                  (-np.inf, 0.3)])
def test_policy_box_rejects_infinite_bounds(field, pair):
    """An infinite bound is refused when the box is built, naming the
    field, not later when a bound mode selects it."""
    box = dict(p_attack=(0.1, 0.2), loading=(0.1, 0.2),
               history_coeff=(0.2, 0.3))
    with pytest.raises(RiskError, match=field):
        PolicyBox(**{**box, field: pair})


def _reference_prices(days, x_hat, config, tariff):
    """The price program as the generic QP, solved by backend.solve_qp
    (HiGHS's active-set QP solver); returns its status, the prices and a.

    For 0 < alpha < 1 the variables are (lambda, v', zeta'):

        min ||lambda||^2  s.t.  v' + phi.zeta' <= 0,
        alpha zeta'^s + v' + m d^s.lambda / d_ref >= a^s / d_ref,
        zeta' >= 0, lambda >= 0.

    At alpha = 1 the pair (v', zeta') has a cost-free recession ray, so
    the tail collapses to the expectation row E[c] <= 0; at alpha = 0 it
    is the worst-case epigraph over (lambda, v') with v' <= 0.
    """
    policy = config.resolved_policy()
    m = premium_multiplier_M(policy)
    d, phi, alpha = days.demand_kw, days.likelihood, config.alpha
    n_day, n_hour = d.shape
    tar = np.broadcast_to(tariff, d.shape)
    a = np.array([worst_case_scenario_cost(
        d[s], np.zeros(n_hour), tar[s], x_hat, policy.p_attack,
        policy.risk_share, policy.penalty_cents_per_kw())
        for s in range(n_day)])
    d_ref = max(float(d.sum(axis=1).mean()), 1e-9)
    lam_lo = np.zeros(n_hour)
    q_lam = np.full(n_hour, 2.0)
    if alpha == 1.0:
        qp = ConvexQP.from_dense(q_lam, np.zeros(n_hour),
                                 (m * (phi @ d) / d_ref)[None, :], [SENSE_GE],
                                 np.array([phi @ a / d_ref]), lam_lo, None)
    elif alpha == 0.0:
        rows = np.hstack([m * d / d_ref, np.ones((n_day, 1))])
        qp = ConvexQP.from_dense(
            np.append(q_lam, 0.0), np.zeros(n_hour + 1), rows,
            [SENSE_GE] * n_day, a / d_ref, np.append(lam_lo, -np.inf),
            np.append(np.full(n_hour, np.inf), 0.0))
    else:
        n = n_hour + 1 + n_day
        rows = np.zeros((1 + n_day, n))
        rows[0, n_hour] = 1.0
        rows[0, n_hour + 1:] = phi
        rows[1:, :n_hour] = m * d / d_ref
        rows[1:, n_hour] = 1.0
        rows[1:, n_hour + 1:] = alpha * np.eye(n_day)
        qp = ConvexQP.from_dense(
            np.concatenate([q_lam, np.zeros(1 + n_day)]), np.zeros(n), rows,
            [SENSE_LE] + [SENSE_GE] * n_day,
            np.concatenate([[0.0], a / d_ref]),
            np.concatenate([lam_lo, [-np.inf], np.zeros(n_day)]), None)
    res = solve_qp(qp)
    return res.status, (None if res.x is None else res.x[:n_hour]), a


@st.composite
def _price_programs(draw):
    """Random price programs: S in 1..12, alpha at and near both ends,
    demand from 1e-3 to 1e6 kW, and m = 0 in one draw of ten. Sizes come
    from a seeded generator so they spread evenly rather than gather at
    the strategies' boundary values."""
    alpha = draw(st.sampled_from([0.0, 1e-9, "uniform", 1.0 - 1e-9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_day = int(rng.integers(1, 13))
    n_hour = int(rng.integers(1, 25))
    if alpha == "uniform":
        alpha = float(rng.uniform(0.0, 1.0))
    phi = rng.dirichlet(np.ones(n_day))
    demand = (10.0 ** rng.uniform(-3.0, 6.0)
              * rng.uniform(0.0, 1.0, size=(n_day, n_hour)))
    if n_day > 1 and rng.uniform() < 0.2:
        demand[rng.integers(n_day)] = 0.0
    tariff = rng.uniform(-1.0, 6.0, size=(n_day, n_hour))
    m_zero = rng.uniform() < 0.1
    policy = PolicyFactors(
        p_attack=1.0 if m_zero else float(rng.uniform(0.0, 1.0)),
        loading=0.1, risk_share=0.0 if m_zero else float(rng.uniform()),
        history_coeff=0.0, attack_count=0,
        penalty=float(rng.uniform(0.0, 5.0)))
    if rng.uniform() < 0.5:
        # the draws of the retired price floors, so x_hat stays as it was
        rng.uniform(size=2 * n_hour)
    return (TypicalDaySet(phi / phi.sum(), demand), float(rng.uniform(0, 3)),
            _point_config(policy, alpha), tariff)


@given(_price_programs())
def test_cutting_planes_match_interior_point_reference(program):
    days, x_hat, config, tariff = program
    status, ref, a = _reference_prices(days, x_hat, config, tariff)
    policy = config.resolved_policy()
    if (premium_multiplier_M(policy) == 0.0
            and cvar_sup(a, days.likelihood, config.alpha) > 0.0):
        assert status == "infeasible"
        with pytest.raises(RiskInfeasibleError):
            solve_risk_averse_evcs(days, x_hat, config, tariff)
        return
    assert status == "optimal"
    sol = solve_risk_averse_evcs(days, x_hat, config, tariff)
    lam = sol.charging_price
    # relative to the price level, compared absolutely below 1 cent/kWh
    assert np.abs(lam - ref).max() <= 1e-9 * max(np.abs(ref).max(), 1.0)
    assert kkt_report(sol, days, x_hat, config,
                      tariff).max_residual <= 1e-6
    _assert_kkt_matches_loops(sol, days, x_hat, config, tariff)


def _scaled_multipliers(solution, factor, days):
    """solution with (eta, varphi, mu) scaled by factor and beta kept: a
    point where stat_eta and stat_zeta still hold."""
    varphi = factor * solution.varphi
    eta = float(varphi.sum())
    return dataclasses.replace(
        solution, varphi=varphi, eta=eta,
        mu=np.maximum(eta * days.likelihood - solution.alpha * varphi, 0.0))


@given(_price_programs())
def test_dual_value_bounds_the_program(program):
    """The dual function at the solution's multipliers meets |lambda|^2 at
    a certified solution, and at other multipliers (scaled by 0.9) it
    lies below: the weak-duality bound the CCG round reads."""
    days, x_hat, config, tariff = program
    try:
        sol = solve_risk_averse_evcs(days, x_hat, config, tariff)
    except RiskInfeasibleError:
        return
    assert kkt_report(sol, days, x_hat, config, tariff).max_residual <= 1e-6
    value = float(sol.charging_price @ sol.charging_price)
    bound = dual_value(sol, days, x_hat, config, tariff)
    assert bound <= value + 1e-12 * (1.0 + value)
    assert abs(bound - value) <= 1e-9 * (1.0 + value)
    lower = dual_value(_scaled_multipliers(sol, 0.9, days), days, x_hat,
                       config, tariff)
    # the dual function is a concave quadratic along the ray, flat at 1:
    # the step to 0.9 costs |m D^T varphi|^2 / 400 >= |lambda|^2 / 100
    assert lower <= bound
    if value > 0.0:
        assert bound - lower >= 0.005 * value


def _drawn_program(alpha, rng):
    """A price program drawn like _price_programs at a given alpha, from a
    numpy generator instead of hypothesis ("uniform" draws alpha too)."""
    n_day = int(rng.integers(1, 13))
    n_hour = int(rng.integers(1, 25))
    if alpha == "uniform":
        alpha = float(rng.uniform(0.0, 1.0))
    phi = rng.dirichlet(np.ones(n_day))
    demand = (10.0 ** rng.uniform(-3.0, 6.0)
              * rng.uniform(0.0, 1.0, size=(n_day, n_hour)))
    if n_day > 1 and rng.uniform() < 0.2:
        demand[rng.integers(n_day)] = 0.0
    tariff = rng.uniform(-1.0, 6.0, size=(n_day, n_hour))
    m_zero = rng.uniform() < 0.1
    policy = PolicyFactors(
        p_attack=1.0 if m_zero else float(rng.uniform(0.0, 1.0)),
        loading=0.1, risk_share=0.0 if m_zero else float(rng.uniform()),
        history_coeff=0.0, attack_count=0,
        penalty=float(rng.uniform(0.0, 5.0)))
    return (TypicalDaySet(phi / phi.sum(), demand), float(rng.uniform(0, 3)),
            _point_config(policy, alpha), tariff)


@pytest.mark.parametrize("alpha, seed, status", [
    (1.0 - 1e-9, 1753, "optimal"),  # a non-binding point 4.4e-4 off
    (0.0, 400, "optimal"),  # zero-demand days: 1.8e-7 off
    (0.0, 1330, "optimal"),  # 7.0e-7 off
    (1e-9, 401, "optimal"),  # a zero-demand day: it said "numerical"
    # HiGHS fails on a well-posed program: loud, never a wrong optimum
    ("uniform", 8907, "numerical"),
])
def test_reference_qp_regressions(alpha, seed, status):
    """Programs the former dense interior-point reference got wrong (the
    first three it called optimal), and one the HiGHS reference reports
    as "numerical"; the cutting planes certify every one of them."""
    days, x_hat, config, tariff = _drawn_program(
        alpha, np.random.default_rng([77, seed]))
    got, ref, _ = _reference_prices(days, x_hat, config, tariff)
    assert got == status
    sol = solve_risk_averse_evcs(days, x_hat, config, tariff)
    assert kkt_report(sol, days, x_hat, config, tariff).max_residual <= 1e-6
    if status == "optimal":
        lam = sol.charging_price
        assert np.abs(lam - ref).max() <= 1e-9 * max(np.abs(ref).max(), 1.0)
