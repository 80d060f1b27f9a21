"""Tests for the semi-Markov attack-probability estimator.

Oracle values were frozen from independent evaluations: the competing-risk
integrals from a dense fixed-grid quadrature (power-5 substitution removing
the endpoint singularity), the embedded stationary vector from a hand-derived
closed form for the attack-chain topology, and the sojourn means from the
Weibull moment formula.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate
from scipy.special import gamma as gamma_fn

from evcs_premium import smp
from evcs_premium.fixtures import (
    PUBLISHED_P_ATTACK,
    PUBLISHED_SOJOURN,
    PUBLISHED_STEADY_STATE,
    published_embedded_stationary,
    reference_smp_model,
)

# Frozen oracles for the reference transition set.
K_ID = 0.9110898079012282
K_IF = 0.08891019209875989
SOJOURN = np.array([16.66899628241726, 13.343142634080118, 16.604277631835103,
                    14.34282181481365, 17.56026703465227])
P_ATTACK_FULL = 0.026122009541097616


def closed_form_stationary(q):
    """Hand-derived stationary vector of the attack-chain embedded matrix.

    With I -> D probability q the balance equations give
    p_G = p_I = 1/(3+q), p_D = p_C = q/(3+q), p_F = (1-q)/(3+q).
    """
    return np.array([1.0, 1.0, q, q, 1.0 - q]) / (3.0 + q)


def kernel_with_split(q):
    k = np.zeros((5, 5))
    k[0, 1] = 1.0
    k[1, 2] = q
    k[1, 4] = 1.0 - q
    k[2, 3] = 1.0
    k[3, 0] = 1.0
    k[4, 0] = 1.0
    return k


def fixed_grid_competing(winner, survivor, n):
    """Composite Simpson on t = u^5, which regularizes the pdf endpoint."""
    t_max = max(d.quantile(1.0 - 1e-9) for d in (winner, survivor))
    u = np.linspace(0.0, t_max ** 0.2, 2 * n + 1)
    t = u ** 5
    f = np.empty_like(u)
    f[0] = 0.0
    f[1:] = (smp.weibull_survival(t[1:], survivor)
             * smp.weibull_pdf(t[1:], winner) * 5.0 * u[1:] ** 4)
    h = u[1] - u[0]
    return h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())


class TestWeibull:
    def test_cdf_closed_values(self):
        d = smp.WeibullDist(shape=2.0, scale=3.0)
        assert smp.weibull_cdf(0.0, d) == 0.0
        assert_allclose(smp.weibull_cdf(3.0, d), 1.0 - np.exp(-1.0), rtol=1e-14)
        assert_allclose(smp.weibull_cdf(6.0, d), 1.0 - np.exp(-4.0), rtol=1e-14)

    def test_cdf_vectorized_monotone(self):
        d = smp.WeibullDist(shape=0.7, scale=400.0)
        t = np.linspace(0.0, 5000.0, 200)
        h = smp.weibull_cdf(t, d)
        assert np.all(np.diff(h) > 0)
        assert h[0] == 0.0 and h[-1] < 1.0

    def test_cdf_rejects_negative_time(self):
        with pytest.raises(smp.SmpError):
            smp.weibull_cdf(-1.0, smp.WeibullDist(1.0, 1.0))

    def test_invalid_params_rejected(self):
        with pytest.raises(smp.SmpError):
            smp.WeibullDist(shape=0.0, scale=1.0)
        with pytest.raises(smp.SmpError):
            smp.WeibullDist(shape=1.0, scale=-2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["shape", "scale"])
    def test_non_finite_params_rejected(self, field, bad):
        params = {"shape": 2.0, "scale": 3.0, field: bad}
        with pytest.raises(smp.SmpError,
                           match=f"^Weibull {field} must be finite and "
                                 f"positive, got {bad!r}$"):
            smp.WeibullDist(**params)

    def test_mean_moment_formula(self):
        d = smp.WeibullDist(shape=0.5, scale=7.0)
        assert_allclose(d.mean(), 7.0 * gamma_fn(3.0), rtol=1e-13)
        d2 = smp.WeibullDist(shape=2.0, scale=4.0)
        assert_allclose(d2.mean(), 4.0 * np.sqrt(np.pi) / 2.0, rtol=1e-13)

    def test_exponential_mean_is_scale(self):
        # shape 1 reduces to the exponential, whose mean is the scale
        rng = np.random.default_rng(42)
        for scale in rng.uniform(0.1, 100.0, size=100):
            d = smp.WeibullDist(shape=1.0, scale=scale)
            assert_allclose(d.mean(), scale, rtol=1e-12)

    def test_quantile_inverts_cdf(self):
        d = smp.WeibullDist(shape=1.9293, scale=16.0712)
        for p in (0.1, 0.5, 0.9, 1.0 - 1e-9):
            assert_allclose(smp.weibull_cdf(d.quantile(p), d), p, rtol=1e-10)


class TestCompetingTransition:
    def test_no_survivor_returns_one(self):
        d = smp.WeibullDist(2.0, 3.0)
        assert smp.competing_transition_prob(d, None) == 1.0
        value, err = smp.competing_transition_prob(d, None, with_error=True)
        assert value == 1.0 and err == 0.0

    def test_reference_split_frozen(self):
        model = reference_smp_model()
        k_id = smp.competing_transition_prob(model["ID"], model["IF"])
        k_if = smp.competing_transition_prob(model["IF"], model["ID"])
        assert_allclose(k_id, K_ID, rtol=1e-9)
        assert_allclose(k_if, K_IF, rtol=1e-9)
        assert_allclose(k_id + k_if, 1.0, atol=1e-8)

    def test_error_estimate_bounds_fine_grid(self):
        # The returned error estimate must bound the difference from a
        # 10x finer fixed-grid evaluation of the same truncated integral.
        model = reference_smp_model()
        for winner, survivor in ((model["ID"], model["IF"]),
                                 (model["IF"], model["ID"])):
            value, err = smp.competing_transition_prob(winner, survivor,
                                                       with_error=True)
            fine = fixed_grid_competing(winner, survivor, 2_000_000)
            assert abs(value - fine) <= err

    def test_identical_competitors_split_evenly(self):
        d = smp.WeibullDist(shape=1.7, scale=11.0)
        assert_allclose(smp.competing_transition_prob(d, d), 0.5, atol=1e-9)


def _vectorized_quad(integrand, a, b):
    """The chain's quadrature over an integrand built from the public
    vectorized pdf and survival: the reference for its scalar integrands.
    Returns quad's value and error estimate."""
    t_max = max(d.quantile(1.0 - 1e-9) for d in (a, b))
    return integrate.quad(integrand, 0.0, t_max, epsabs=1e-9, epsrel=1e-12,
                          limit=400)


def _vectorized_split(winner, survivor):
    value, err = _vectorized_quad(
        lambda t: smp.weibull_survival(t, survivor)
        * smp.weibull_pdf(t, winner), winner, survivor)
    return min(max(value, 0.0), 1.0), err


def _vectorized_sojourn(a, b):
    return _vectorized_quad(lambda t: smp.weibull_survival(t, a)
                            * smp.weibull_survival(t, b), a, b)[0]


class TestScalarIntegrands:
    def test_reference_model_matches_vectorized(self):
        model = reference_smp_model()
        d_id, d_if = model["ID"], model["IF"]
        k_id = smp.competing_transition_prob(d_id, d_if)
        k_if = smp.competing_transition_prob(d_if, d_id)
        assert abs(k_id - _vectorized_split(d_id, d_if)[0]) <= 1e-15
        assert abs(k_if - _vectorized_split(d_if, d_id)[0]) <= 1e-15
        t_i = smp.sojourn_times(model)[1]
        assert abs(t_i - _vectorized_sojourn(d_id, d_if)) <= 1e-15

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_drawn_pairs_match_vectorized(self):
        # Not bitwise: numpy's exp and libm's differ by an ulp at some
        # points, and at shape < 0.42 that moves quad's subdivision.
        # Some pairs of a sharp clock and a heavy-tailed one defeat the
        # quadrature on the truncated range (no mass found, or no
        # convergence); there the scalar path must fail the same way.
        rng = np.random.default_rng(1212)
        base = reference_smp_model().transitions
        for _ in range(200):
            a, b = (smp.WeibullDist(float(rng.uniform(0.3, 5.0)),
                                    float(rng.uniform(0.5, 50.0)))
                    for _ in range(2))
            for winner, survivor in ((a, b), (b, a)):
                reference, reference_err = _vectorized_split(winner, survivor)
                if reference_err > 1e-6:
                    with pytest.raises(smp.SmpError, match="converge"):
                        smp.competing_transition_prob(winner, survivor)
                    continue
                value, err = smp.competing_transition_prob(
                    winner, survivor, with_error=True)
                diff = abs(value - reference)
                assert diff <= 1e-11 and diff < err, (winner, survivor)
            reference = _vectorized_sojourn(a, b)
            model = smp.SmpModel({**base, "ID": a, "IF": b})
            if reference > 0.0:
                t_i = smp.sojourn_times(model)[1]
                assert abs(t_i - reference) <= 1e-11, (a, b)
            else:
                with pytest.raises(smp.SmpError, match="positive"):
                    smp.sojourn_times(model)

    def test_overflow_reads_as_the_limit(self):
        # (t/scale)^shape leaves the float range inside [0, t_max]: math's
        # power raises there, numpy's reads inf and so exp(-inf) = 0
        sharp = smp.WeibullDist(shape=200.0, scale=10.0)
        assert smp._survival(1e3, sharp) == smp._pdf(1e3, sharp) == 0.0
        model = smp.SmpModel({**reference_smp_model().transitions,
                              "ID": sharp, "IF": smp.WeibullDist(1.0, 30.0)})
        with np.errstate(over="ignore"):
            reference = _vectorized_sojourn(model["ID"], model["IF"])
        assert abs(smp.sojourn_times(model)[1] - reference) <= 1e-11


class TestKernel:
    def test_structure_and_row_sums(self):
        k = smp.kernel_at_infinity(reference_smp_model())
        assert k.shape == (5, 5)
        # single-exit rows carry exactly one entry equal to 1
        for row, col in ((0, 1), (2, 3), (3, 0), (4, 0)):
            assert_allclose(k[row, col], 1.0, atol=1e-9)
            assert np.count_nonzero(k[row]) == 1
        assert_allclose(k[1, 2], K_ID, rtol=1e-8)
        assert_allclose(k[1, 4], K_IF, rtol=1e-8)
        assert_allclose(k.sum(axis=1), np.ones(5), atol=1e-9)
        structural = {(0, 1), (1, 2), (1, 4), (2, 3), (3, 0), (4, 0)}
        for i in range(5):
            for j in range(5):
                if (i, j) not in structural:
                    assert k[i, j] == 0.0


class TestStationary:
    def test_closed_form_random_splits(self):
        rng = np.random.default_rng(7)
        for q in rng.uniform(0.0, 1.0, size=100):
            p = smp.stationary_embedded(kernel_with_split(q))
            assert_allclose(p, closed_form_stationary(q), atol=1e-9)

    def test_degenerate_splits_allowed(self):
        # q = 1 makes F transient, q = 0 makes D and C transient; both keep a
        # unique stationary vector and need no special-casing
        p1 = smp.stationary_embedded(kernel_with_split(1.0))
        assert_allclose(p1, [0.25, 0.25, 0.25, 0.25, 0.0], atol=1e-9)
        p0 = smp.stationary_embedded(kernel_with_split(0.0))
        assert_allclose(p0, [1 / 3, 1 / 3, 0.0, 0.0, 1 / 3], atol=1e-9)

    def test_reducible_chain_rejected(self):
        # two closed classes {0,1} and {2,3}: no unique stationary vector
        k = np.zeros((4, 4))
        k[0, 1] = k[1, 0] = 1.0
        k[2, 3] = k[3, 2] = 1.0
        with pytest.raises(smp.SmpError, match="reducible"):
            smp.stationary_embedded(k)

    def test_nonstochastic_rejected(self):
        k = kernel_with_split(0.5)
        k[0, 1] = 0.9
        with pytest.raises(smp.SmpError, match="sum to 1"):
            smp.stationary_embedded(k)

    def test_residual_property(self):
        k = smp.kernel_at_infinity(reference_smp_model())
        p = smp.stationary_embedded(k)
        assert np.max(np.abs(p @ k - p)) <= 1e-10
        assert_allclose(p.sum(), 1.0, atol=1e-12)
        assert np.all(p >= 0.0)


class TestSojourn:
    def test_reference_vector_frozen(self):
        t = smp.sojourn_times(reference_smp_model())
        assert_allclose(t, SOJOURN, rtol=1e-9)
        assert np.all(t > 0)

    def test_competing_state_matches_published(self):
        # the two-exit state is the one published entry that agrees with the
        # survival-product integral
        t = smp.sojourn_times(reference_smp_model())
        assert_allclose(t[1], 13.3431, atol=5e-5)

    def test_exponential_sojourn_is_scale(self):
        rng = np.random.default_rng(11)
        for scale in rng.uniform(0.5, 50.0, size=100):
            model = smp.SmpModel(transitions={
                k: smp.WeibullDist(shape=1.0, scale=scale)
                for k in smp.TRANSITIONS
            })
            t = smp.sojourn_times(model)
            # single-exit states: exponential mean equals the scale; state I
            # holds two competing exponential clocks, so half the scale
            assert_allclose(t[[0, 2, 3, 4]], scale, rtol=1e-9)
            assert_allclose(t[1], scale / 2.0, rtol=1e-7)


class TestAttackProbability:
    def test_full_pipeline_frozen(self):
        chain, result = smp.run_chain(reference_smp_model())
        assert_allclose(result.p_attack, P_ATTACK_FULL, rtol=1e-9)
        assert_allclose(result.steady_state.sum(), 1.0, atol=1e-9)
        assert np.all(result.steady_state >= 0)

    def test_published_table_reproduced(self):
        # the published probability column is time-stationary; the embedded
        # vector it implies is p_s proportional to P_s / T_s
        p = published_embedded_stationary()
        result = smp.attack_probability(p, PUBLISHED_SOJOURN)
        assert_allclose(result.p_attack, PUBLISHED_P_ATTACK, rtol=1e-12)
        assert_allclose(result.steady_state, PUBLISHED_STEADY_STATE,
                        rtol=1e-10)

    def test_sojourn_rescaling_invariance(self):
        # steady state depends on T only through ratios
        chain, result = smp.run_chain(reference_smp_model())
        for c in (0.1, 3.0, 250.0):
            scaled = smp.attack_probability(chain.stationary, c * SOJOURN)
            assert_allclose(scaled.steady_state, result.steady_state,
                            rtol=1e-10)

    def test_input_validation(self):
        good_p = np.full(5, 0.2)
        good_t = np.ones(5)
        with pytest.raises(smp.SmpError):
            smp.attack_probability(np.full(4, 0.25), good_t)
        with pytest.raises(smp.SmpError):
            smp.attack_probability(np.full(5, 0.3), good_t)
        with pytest.raises(smp.SmpError):
            smp.attack_probability(good_p, -good_t)
        with pytest.raises(smp.SmpError):
            smp.attack_probability(good_p, np.zeros(5))


class TestConfidenceBox:
    def test_relative_mode_published_box(self):
        box = smp.relative_box(0.0398, 0.10)
        assert_allclose(box.lower, 0.03582, rtol=1e-12)
        assert_allclose(box.upper, 0.04378, rtol=1e-12)
        assert box.center == 0.0398

    @pytest.mark.parametrize("center, eps", [
        (np.nan, 0.1), (np.inf, 0.1), (0.0398, np.nan), (0.0398, np.inf)])
    def test_relative_box_rejects_non_finite(self, center, eps):
        with pytest.raises(smp.SmpError, match="finite center and epsilon"):
            smp.relative_box(center, eps)

    @pytest.mark.parametrize("center, sigma, n, xi", [
        (np.nan, 1.0, 10, 0.05), (np.inf, 1.0, 10, 0.05),
        (0.5, np.nan, 10, 0.05), (0.5, np.inf, 10, 0.05),
        (0.5, 1.0, np.nan, 0.05), (0.5, 1.0, np.inf, 0.05),
        (0.5, 1.0, 10, np.nan)])
    def test_confidence_box_rejects_non_finite(self, center, sigma, n, xi):
        with pytest.raises(smp.SmpError, match="finite inputs"):
            smp.confidence_box(center, sigma, n, xi)

    def test_student_t_quantiles(self):
        # df=1, 95%: t = 12.7062047364; large df approaches the normal 1.959964
        box = smp.confidence_box(0.5, 1.0, 2, 0.05)
        assert_allclose(box.upper - box.center,
                        12.706204736432095 / np.sqrt(2.0), rtol=1e-9)
        box_big = smp.confidence_box(0.5, 1.0, 4_000_000, 0.05)
        assert_allclose((box_big.upper - box_big.center) * 2000.0,
                        1.959964, atol=1e-5)

    def test_box_clipped_to_nonnegative(self):
        box = smp.confidence_box(0.01, 1.0, 4, 0.05)
        assert box.lower == 0.0

    def test_domain_errors(self):
        with pytest.raises(smp.SmpError):
            smp.confidence_box(0.5, 1.0, 1, 0.05)
        with pytest.raises(smp.SmpError):
            smp.confidence_box(0.5, 1.0, 10, 1.5)
        with pytest.raises(smp.SmpError):
            smp.confidence_box(0.5, -1.0, 10, 0.05)


class TestFitWeibull:
    def test_recovers_known_parameters(self):
        rng = np.random.default_rng(2024)
        true = smp.WeibullDist(shape=1.9293, scale=16.0712)
        samples = true.scale * rng.weibull(true.shape, size=10_000)
        fit = smp.fit_weibull(samples)
        assert abs(fit.shape - true.shape) / true.shape < 0.03
        assert abs(fit.scale - true.scale) / true.scale < 0.03

    def test_exponential_special_case(self):
        rng = np.random.default_rng(99)
        samples = rng.exponential(scale=13.4487, size=10_000)
        fit = smp.fit_weibull(samples)
        assert abs(fit.shape - 1.0) < 0.05
        assert abs(fit.scale - 13.4487) / 13.4487 < 0.05

    def test_fit_maximizes_likelihood(self):
        rng = np.random.default_rng(5)
        samples = 4.0 * rng.weibull(2.5, size=500)
        fit = smp.fit_weibull(samples)
        best = smp.weibull_log_likelihood(samples, fit)
        for db, da in ((0.05, 0.0), (-0.05, 0.0), (0.0, 0.1), (0.0, -0.1)):
            other = smp.WeibullDist(fit.shape + db, fit.scale + da)
            assert smp.weibull_log_likelihood(samples, other) <= best + 1e-9

    def test_degenerate_samples_rejected(self):
        with pytest.raises(smp.SmpError):
            smp.fit_weibull([5.0, 5.0, 5.0])
        with pytest.raises(smp.SmpError):
            smp.fit_weibull([1.0, 2.0])
        with pytest.raises(smp.SmpError):
            smp.fit_weibull([1.0, -2.0, 3.0])


class TestModelValidation:
    def test_wrong_transition_set_rejected(self):
        params = {k: smp.WeibullDist(1.0, 1.0) for k in smp.TRANSITIONS}
        bad = dict(params)
        del bad["FG"]
        bad["XY"] = smp.WeibullDist(1.0, 1.0)
        with pytest.raises(smp.SmpError):
            smp.SmpModel(transitions=bad)

    def test_non_weibull_value_rejected(self):
        params = {k: smp.WeibullDist(1.0, 1.0) for k in smp.TRANSITIONS}
        params["GI"] = (1.0, 1.0)
        with pytest.raises(smp.SmpError):
            smp.SmpModel(transitions=params)
