"""Closed-form premium: factors, certificates, monotonicity."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from evcs_premium.analytic import (
    AnalyticError,
    PolicyFactors,
    PricingInfeasibleError,
    TypicalDaySet,
    claim_loss,
    closed_form_premium,
    composite_C,
    expected_breakeven_cost,
    premium_multiplier_M,
    sensitivity_sweep,
)
from evcs_premium.dcopf import evcs_tariff_cents, per_day_dlmps
from evcs_premium.fixtures import default_policy, manhattan7, typical_days


@pytest.fixture(scope="module")
def grid_tariff():
    net = manhattan7()
    return evcs_tariff_cents(net, per_day_dlmps(net, typical_days()))


def test_default_composite_factors():
    policy = default_policy()
    # 0.0398 * 1.0 * (1 + 0.25) / (1 - 0.3)
    assert_allclose(composite_C(policy), 0.0398 * 1.25 / 0.7, rtol=1e-15)
    assert_allclose(premium_multiplier_M(policy), 1.0, atol=0.0)


def test_zero_attack_probability_means_zero_premium(grid_tariff):
    policy = dataclasses.replace(default_policy(), p_attack=0.0)
    sol = closed_form_premium(policy, typical_days(), grid_tariff)
    assert sol.premium == 0.0
    assert sol.per_kwh == 0.0
    assert sol.composite_c == 0.0
    assert np.all(sol.charging_price > 0.0)  # still recovers the tariff


def test_zero_risk_share_means_zero_premium(grid_tariff):
    policy = dataclasses.replace(default_policy(), risk_share=0.0)
    sol = closed_form_premium(policy, typical_days(), grid_tariff)
    assert sol.premium == 0.0
    assert_allclose(premium_multiplier_M(policy),
                    1.0 - policy.p_attack, rtol=1e-15)


def test_break_even_certificate(grid_tariff):
    policy = default_policy()
    days = typical_days()
    sol = closed_form_premium(policy, days, grid_tariff)
    cost = expected_breakeven_cost(policy, days, grid_tariff,
                                   sol.charging_price, sol.per_kwh)
    m = premium_multiplier_M(policy)
    revenue = m * float(days.weighted_demand @ sol.charging_price)
    assert abs(cost) <= 1e-7 * revenue


def test_insurer_constraint_binds(grid_tariff):
    policy = default_policy()
    days = typical_days()
    sol = closed_form_premium(policy, days, grid_tariff)
    cl = claim_loss(policy, days, sol.charging_price)
    assert abs(sol.premium - cl) <= 1e-9 * (1.0 + sol.premium)


def test_price_proportional_to_weighted_demand(grid_tariff):
    days = typical_days()
    sol = closed_form_premium(default_policy(), days, grid_tariff)
    d_t = days.weighted_demand
    ratio = sol.charging_price / d_t
    assert_allclose(ratio, ratio[0], rtol=1e-12)
    m = premium_multiplier_M(default_policy())
    assert_allclose(sol.charging_price, 0.5 * sol.omega * m * d_t,
                    rtol=1e-13)


def test_revenue_identity(grid_tariff):
    """M sum_t D_t lam_c_t must equal base cost plus premium."""
    policy = default_policy()
    days = typical_days()
    sol = closed_form_premium(policy, days, grid_tariff)
    m = premium_multiplier_M(policy)
    c = sol.composite_c
    base = sol.premium * (m - c) / c
    lhs = m * float(days.weighted_demand @ sol.charging_price)
    assert_allclose(lhs, base + sol.premium, rtol=1e-11)


def test_demand_homogeneity(grid_tariff):
    policy = default_policy()
    days = typical_days()
    sol = closed_form_premium(policy, days, grid_tariff)
    scaled = closed_form_premium(policy, days.scaled(2.5), grid_tariff)
    assert_allclose(scaled.premium / sol.premium, 2.5, rtol=1e-12)
    assert_allclose(scaled.per_kwh, sol.per_kwh, rtol=1e-12)
    with pytest.raises(AnalyticError, match="scale factor must be positive"):
        days.scaled(0.0)


def test_anchor_values(grid_tariff):
    sol = closed_form_premium(default_policy(), typical_days(),
                              grid_tariff)
    assert_allclose(sol.premium, 589.4482718542944, rtol=1e-9)
    assert_allclose(sol.per_kwh, 1.0172174958769247, rtol=1e-9)
    assert_allclose(float(sol.charging_price.mean()), 11.5672848308,
                    rtol=1e-9)
    assert_allclose(sol.premium_dollars, sol.premium / 100.0, rtol=0.0)


def test_flat_tariff_matches_tiled_per_day(grid_tariff):
    days = typical_days()
    flat = grid_tariff.mean(axis=0)
    tiled = np.tile(flat, (days.n_days, 1))
    a = closed_form_premium(default_policy(), days, flat)
    b = closed_form_premium(default_policy(), days, tiled)
    assert_allclose(a.premium, b.premium, rtol=1e-14)
    assert_allclose(a.charging_price, b.charging_price, rtol=1e-14)


def test_sensitivity_monotone_axes(grid_tariff):
    policy = default_policy()
    days = typical_days()

    def sweep(axis, grid, base=policy):
        return sensitivity_sweep(base, axis, grid, days, grid_tariff)

    r = sweep("loading", np.linspace(0.0, 0.6, 13))
    assert np.all(np.diff(r) > 0.0)
    p = sweep("p_attack", np.linspace(0.01, 0.08, 15))
    assert np.all(np.diff(p) > 0.0)
    g = sweep("risk_share", np.linspace(0.0, 1.0, 11))
    assert np.all(np.diff(g) > 0.0)
    k = sweep("history_coeff", np.linspace(0.0, 0.5, 11))
    assert np.all(np.diff(k) > 0.0)
    a = sweep("attack_count", np.arange(0.0, 5.0))
    assert np.all(np.diff(a) > 0.0)


def test_history_coefficient_inert_without_attacks(grid_tariff):
    base = dataclasses.replace(default_policy(), attack_count=0)
    vals = sensitivity_sweep(base, "history_coeff",
                             np.linspace(0.0, 0.5, 7), typical_days(),
                             grid_tariff)
    assert_allclose(vals, vals[0], rtol=0.0, atol=0.0)


def test_policy_domain_errors():
    good = default_policy()
    with pytest.raises(AnalyticError, match="p_attack"):
        dataclasses.replace(good, p_attack=1.5)
    with pytest.raises(AnalyticError, match="loading"):
        dataclasses.replace(good, loading=1.0)
    with pytest.raises(AnalyticError, match="risk_share"):
        dataclasses.replace(good, risk_share=-0.1)
    with pytest.raises(AnalyticError, match="history_coeff"):
        dataclasses.replace(good, history_coeff=-0.5)
    with pytest.raises(AnalyticError, match="nonnegative integer"):
        dataclasses.replace(good, attack_count=1.5)
    with pytest.raises(AnalyticError, match="penalty"):
        dataclasses.replace(good, penalty=-1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(
    PolicyFactors)])
def test_policy_rejects_non_finite(field, bad):
    with pytest.raises(AnalyticError, match=f"^{field} must be finite, got "):
        dataclasses.replace(default_policy(), **{field: bad})


def test_day_set_validation():
    with pytest.raises(AnalyticError, match="sum to 1"):
        TypicalDaySet(np.array([0.5, 0.4]), np.ones((2, 24)))
    with pytest.raises(AnalyticError, match="nonnegative"):
        TypicalDaySet(np.array([1.5, -0.5]), np.ones((2, 24)))
    with pytest.raises(AnalyticError, match="demand rows"):
        TypicalDaySet(np.array([1.0]), np.ones((2, 24)))
    with pytest.raises(AnalyticError, match="demand must be nonnegative"):
        TypicalDaySet(np.array([1.0]), -np.ones((1, 24)))
    with pytest.raises(AnalyticError, match="day_ids"):
        TypicalDaySet(np.array([1.0]), np.ones((1, 24)),
                      day_ids=("a", "b"))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_day_set_rejects_non_finite(bad):
    phi = np.array([0.5, 0.25, 0.25])
    with pytest.raises(AnalyticError,
                       match=rf"likelihoods must be finite, got {bad} at "
                             r"index 2$"):
        TypicalDaySet(np.array([0.5, 0.5, bad]), np.ones((3, 24)))
    demand = np.ones((3, 24))
    demand[1, 7] = bad
    with pytest.raises(AnalyticError,
                       match=rf"demand must be finite, got {bad} at index "
                             r"\(1, 7\)$"):
        TypicalDaySet(phi, demand)


def test_tariff_shape_errors():
    days = typical_days()
    policy = default_policy()
    with pytest.raises(AnalyticError, match="hours"):
        closed_form_premium(policy, days, np.ones(23))
    with pytest.raises(AnalyticError, match="per-day tariff shape"):
        closed_form_premium(policy, days, np.ones((3, 24)))
    with pytest.raises(AnalyticError, match="axis must be one of"):
        sensitivity_sweep(policy, "penalty_factor", [0.1], days,
                          np.ones(24))
    with pytest.raises(AnalyticError, match="outside domain"):
        sensitivity_sweep(policy, "loading", [0.5, 1.0], days,
                          np.ones(24))


_PRICED_BY_DEMAND = {
    "closed_form_premium": lambda pol, days, prices:
        closed_form_premium(pol, days, prices),
    "sensitivity_sweep": lambda pol, days, prices:
        sensitivity_sweep(pol, "loading", [0.3], days, prices),
    "claim_loss": lambda pol, days, prices: claim_loss(pol, days, prices),
    "breakeven_tariff": lambda pol, days, prices:
        expected_breakeven_cost(pol, days, prices, np.ones(24), 1.0),
    "breakeven_price": lambda pol, days, prices:
        expected_breakeven_cost(pol, days, np.ones(24), prices, 1.0),
}


@pytest.mark.parametrize("per_day", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", sorted(_PRICED_BY_DEMAND))
def test_non_finite_prices_raise_named_error(call, bad, per_day):
    """A non-finite tariff or charging-price entry is named by day and
    hour instead of becoming a NaN or infinite premium."""
    days = typical_days()
    prices = np.full((days.n_days, 24) if per_day else 24, 2.0)
    prices[(2, 6) if per_day else 6] = bad
    where = "day index 2" if per_day else "every day"
    with pytest.raises(AnalyticError,
                       match=f"prices must be finite: {where} hour 7 is "
                             f"{bad!r}"):
        _PRICED_BY_DEMAND[call](default_policy(), days, prices)


def test_infeasible_policy_raises():
    policy = PolicyFactors(p_attack=0.9, loading=0.5, risk_share=1.0,
                           history_coeff=0.0, attack_count=0, penalty=3.0)
    assert composite_C(policy) > premium_multiplier_M(policy)
    with pytest.raises(PricingInfeasibleError):
        closed_form_premium(policy, typical_days(), np.ones(24))
