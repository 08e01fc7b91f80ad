import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import beta as sp_beta, binom as sp_binom

from cosesi import model
from cosesi.sampling import bahadur_joint
from cosesi.model import (
    CMB,
    ActionCountPMF,
    AdditiveBinomial,
    BahadurJoint,
    BayesBeta,
    BetaEstimation,
    IID,
    InadmissibleCorrelation,
    InteriorRhoUnsupported,
    InvalidSampleMean,
    MarkovShock,
    MLE,
    ModelError,
    PolarizedInteriorSample,
    RhoMixture,
    Sequential,
    UnsupportedN,
    action_count_pmf,
    additive_binomial_rho_bounds,
    bayes_posterior,
    bernstein,
    beta_expectation,
    binom_pmf,
    count_pmf_grid,
    dgp_variance,
    exp_decay_cost,
    expected_cost,
    linear_cost,
    mixture_pmf_grid,
    mean_limit_variance,
    parse_cost,
    power_cost,
    s_shaped_cost,
    weighted_bernstein,
)


class TestCostFunctions:
    def test_power_shapes(self):
        assert "convex" in power_cost(3).shape_tags
        assert "concave" in power_cost(0.5).shape_tags
        assert "linear" in linear_cost().shape_tags

    def test_exp_decay_decreasing(self):
        c = exp_decay_cost(6.0)
        assert "decreasing" in c.shape_tags
        assert c(0.0) == 1.0
        assert c(1.0) == pytest.approx(math.exp(-6.0))

    def test_s_shaped_crosses_diagonal_three_times(self):
        c = s_shaped_cost()
        assert "s_shaped" in c.shape_tags
        assert c(0.0) > 0.0 and c(1.0) < 1.0
        signs = np.sign([c(t) - t for t in np.linspace(0, 1, 2001)])
        crossings = np.count_nonzero(np.diff(signs[signs != 0]))
        assert crossings == 3

    def test_range_validation(self):
        with pytest.raises(ModelError):
            parse_cost("affine:0.5,2")  # exceeds 1 on [0,1]

    def test_analytic_vs_numeric_derivative(self):
        c = power_cost(4)
        for t in (0.2, 0.5, 0.9):
            assert c.derivative(t) == pytest.approx(4 * t**3, rel=1e-6)

    def test_custom_cost_gets_classified(self):
        from cosesi.model import CostFunction

        c = CostFunction(fn=lambda t: 0.1 + 0.8 * t**2)
        assert {"increasing", "convex"} <= c.shape_tags
        assert c.derivative(0.5) == pytest.approx(0.8, rel=1e-4)

    def test_parse_cost_specs(self):
        assert parse_cost("pow:4")(0.5) == 0.0625
        assert parse_cost("linear")(0.3) == 0.3
        assert parse_cost("exp:6")(0.0) == 1.0
        with pytest.raises(ModelError):
            parse_cost("nope")


class TestBetaExpectation:
    def test_uniform_case(self):
        # Beta(1,1) is uniform: E[t^4] = 1/5
        assert beta_expectation(lambda t: t**4, 1, 1) == pytest.approx(0.2, abs=1e-10)

    def test_vs_scipy_across_shapes(self):
        rs = np.random.default_rng(3)
        for _ in range(25):
            a, b = rs.uniform(0.2, 6.0, 2)
            got = beta_expectation(lambda t: t**3, a, b)
            want = sp_beta(a, b).expect(lambda t: t**3)
            assert got == pytest.approx(want, abs=1e-9)

    def test_positive_params_required(self):
        with pytest.raises(ModelError):
            beta_expectation(lambda t: t, 0.0, 1.0)

    @pytest.mark.xfail(strict=True, reason="the quadrature bounds the unnormalised "
                       "integrand to 1e-12 absolute, then divides by B(100, 100) ~ 1e-61")
    def test_large_shapes_exact_second_moment(self):
        # E[X^2] for X ~ Beta(50, 50) is 50 * 51 / (100 * 101); the cell reads 0.18657
        got = BetaEstimation().expected_value(100, 0.5, power_cost(2))
        assert got == pytest.approx(50 * 51 / (100 * 101), abs=1e-9)

    def test_values_bitwise_pinned(self):
        # the quadrature depth budget is Tolerance.max_iter; integrals that
        # converged under the older depth cap of 60 keep every bit
        assert beta_expectation(power_cost(3), 2.5, 0.7).hex() == "0x1.207627627626ep-1"
        assert beta_expectation(power_cost(3), 0.4, 3.0).hex() == "0x1.1094756dad0b1p-6"


class TestExpectedCost:
    def test_mle_is_plugin(self, pow4):
        assert expected_cost(MLE(), 2, 0.5, pow4) == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_beta_estimation_interior(self, pow4):
        # Beta(1,1) estimate at n=2, z=1/2: integral of t^4 is 1/5
        assert expected_cost(BetaEstimation(), 2, 0.5, pow4) == pytest.approx(0.2, abs=1e-10)

    def test_point_mass_at_zero(self, pow4):
        for G in (MLE(), BetaEstimation()):
            assert expected_cost(G, 5, 0.0, pow4) == pytest.approx(pow4(0.0), abs=1e-12)

    def test_invalid_sample_mean(self, pow4):
        with pytest.raises(InvalidSampleMean):
            expected_cost(MLE(), 2, 0.3, pow4)

    @pytest.mark.parametrize("G", [MLE(), BetaEstimation(), BayesBeta(1.0, 2.0, 0.0, 0.7)])
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_fosd_strictly_increasing_in_z(self, G, n, pow3):
        vals = [G.expected_cost(n, y / n, pow3) for y in range(n + 1)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_bayes_polarized_fosd(self, pow3):
        G = BayesBeta(1.0, 1.0, 1.0, 0.0)
        assert G.expected_cost(4, 1.0, pow3) > G.expected_cost(4, 0.0, pow3)

    def test_bayes_interior_rho_rejected(self):
        with pytest.raises(InteriorRhoUnsupported):
            BayesBeta(1.0, 1.0, 0.5, 0.5)

    def test_bayes_polarized_interior_sample(self, pow3):
        G = BayesBeta(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(PolarizedInteriorSample):
            G.expected_cost(2, 0.5, pow3)

    def test_bayes_rho_zero_takes_one_posterior_per_cell(self, monkeypatch):
        # at rho = 0 the aware posterior is the iid one, so zeta must not
        # matter; at this cell 0.3 x + 0.7 x rounds away from x
        c = parse_cost("pow:2.2577")
        x = beta_expectation(c, *bayes_posterior(1.886, 3.435, 62, 5, "iid"))
        assert 0.3 * x + 0.7 * x != x
        calls = []
        real = model.beta_expectation
        monkeypatch.setattr(model, "beta_expectation", lambda *a: calls.append(a) or real(*a))
        assert BayesBeta(1.886, 3.435, 0.0, 0.3).expected_cost(62, 5 / 62, c) == x
        assert len(calls) == 1
        mixed = [BayesBeta(1.886, 3.435, 0.0, 0.3).expected_cost(62, y / 62, c) for y in range(63)]
        naive = [BayesBeta(1.886, 3.435, 0.0).expected_cost(62, y / 62, c) for y in range(63)]
        assert np.array(mixed).tobytes() == np.array(naive).tobytes()
        assert len(calls) == 1 + 2 * 63

    def test_bayes_rho_one_mixes_the_two_posteriors(self, pow3):
        naive = BayesBeta(2.0, 3.0, 0.0).expected_cost(4, 1.0, pow3)
        aware = BayesBeta(2.0, 3.0, 1.0, 0.0).expected_cost(4, 1.0, pow3)
        got = BayesBeta(2.0, 3.0, 1.0, 0.4).expected_cost(4, 1.0, pow3)
        assert got == 0.4 * naive + (1.0 - 0.4) * aware
        assert BayesBeta(2.0, 3.0, 1.0, 1.0).expected_cost(4, 1.0, pow3) == naive


class TestBayesPosterior:
    def test_uniform_prior_conjugacy(self):
        assert bayes_posterior(1, 1, 5, 3, "iid") == (4, 3)

    def test_polarized_all_successes(self):
        # z = 1 with a symmetric prior: Beta(alpha + 1, alpha)
        assert bayes_posterior(2.0, 2.0, 7, 7, "polarized") == (3.0, 2.0)

    def test_polarized_weight_independent_of_n(self):
        # posterior mean weight on the sample is 1/(2 alpha + 1) for every n
        alpha = 1.5
        for n in (1, 4, 50):
            a, b = bayes_posterior(alpha, alpha, n, n, "polarized")
            assert a + b == pytest.approx(2 * alpha + 1)

    def test_polarized_interior_rejected(self):
        with pytest.raises(PolarizedInteriorSample):
            bayes_posterior(1, 1, 4, 2, "polarized")


class TestActionCountPMF:
    def test_rho_mixture_matches_two_signal_table(self):
        # joint of two signals: P(y=2) = theta rho + theta^2 (1-rho), etc.
        theta, rho = 0.37, 0.41
        pmf = action_count_pmf(RhoMixture(rho), 2, theta).probs
        assert pmf[2] == pytest.approx(theta * rho + theta**2 * (1 - rho), abs=1e-12)
        assert pmf[0] == pytest.approx((1 - theta) * rho + (1 - theta) ** 2 * (1 - rho), abs=1e-12)
        assert pmf[1] == pytest.approx(2 * theta * (1 - theta) * (1 - rho), abs=1e-12)

    def test_rho_zero_degenerates_to_binomial(self):
        pmf = action_count_pmf(RhoMixture(0.0), 6, 0.3).probs
        assert np.allclose(pmf, binom_pmf(6, 0.3), atol=1e-14)

    def test_compound_lottery_equivalence(self):
        theta, rho, n = 0.62, 0.27, 5
        pmf = action_count_pmf(RhoMixture(rho), n, theta).probs
        mix = (1 - rho) * binom_pmf(n, theta)
        mix[0] += rho * (1 - theta)
        mix[n] += rho * theta
        assert np.allclose(pmf, mix, atol=1e-15)

    def test_cmb_nu_one_is_binomial(self):
        pmf = action_count_pmf(CMB(1.0), 5, 0.44).probs
        assert np.allclose(pmf, binom_pmf(5, 0.44), atol=1e-12)

    def test_cmb_infinite_sentinels(self):
        neg = action_count_pmf(CMB(-math.inf), 4, 0.3).probs
        assert neg[1:4] == pytest.approx([0, 0, 0])
        assert neg[4] / neg[0] == pytest.approx(0.3**4 / 0.7**4)
        pos = action_count_pmf(CMB(math.inf), 4, 0.3).probs
        assert pos[2] == pytest.approx(1.0)

    def test_normalization_random_parameterizations(self):
        rs = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rs.integers(1, 8))
            theta = rs.uniform(0.02, 0.98)
            tag = rs.integers(0, 5)
            if tag == 0:
                dgp = RhoMixture(rs.uniform(0, 1))
            elif tag == 1:
                dgp = CMB(rs.uniform(-4, 4))
            elif tag == 2 and n >= 2:
                lo, hi = additive_binomial_rho_bounds(n, theta)
                dgp = AdditiveBinomial(rs.uniform(lo, hi))
            elif tag == 3:
                dgp = Sequential(tuple(rs.uniform(0, 0.95, max(0, n - 1))))
            else:
                dgp = IID()
            probs = action_count_pmf(dgp, n, theta).probs
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert probs.min() >= 0.0

    def test_mean_unbiased_for_all_rho(self):
        for rho in (0.0, 0.3, 0.7, 1.0):
            for theta in (0.1, 0.5, 0.9):
                pmf = action_count_pmf(RhoMixture(rho), 7, theta)
                assert pmf.mean() / 7 == pytest.approx(theta, abs=1e-12)

    def test_inadmissible_rho(self):
        with pytest.raises(InadmissibleCorrelation):
            action_count_pmf(RhoMixture(1.2), 3, 0.5)

    def test_bahadur_unsupported_n(self):
        with pytest.raises(UnsupportedN):
            action_count_pmf(BahadurJoint(r2=(0.1,) * 6), 4, 0.5)

    @pytest.mark.parametrize("p, q", [(2.0, 0.5), (0.5, 1.5), (-0.1, 0.5), (0.0, 0.0), (math.nan, 0.5)])
    def test_markov_shock_validated_at_construction(self, p, q):
        with pytest.raises(InadmissibleCorrelation):
            MarkovShock(p, q)

    @pytest.mark.parametrize("rho", [-0.1, 1.2, math.nan, math.inf])
    def test_rho_mixture_validated_at_construction(self, rho):
        with pytest.raises(InadmissibleCorrelation):
            RhoMixture(rho)

    @pytest.mark.parametrize("n, theta", [(1, 0.3), (5, 0.0), (7, 0.62), (12, 0.999), (30, 1.0)])
    def test_iid_and_markov_shock_are_rho_mixtures_bitwise(self, n, theta):
        for law, rho in ((IID(), 0.0), (MarkovShock(0.2, 0.6), 0.25), (MarkovShock(0.7, 0.0), 1.0)):
            assert law.rho == rho
            got = action_count_pmf(law, n, theta).probs
            assert got.tobytes() == action_count_pmf(RhoMixture(rho), n, theta).probs.tobytes()

    def test_markov_shock_uses_stationary_rho(self):
        got = action_count_pmf(MarkovShock(0.2, 0.6), 3, 0.4).probs
        want = action_count_pmf(RhoMixture(0.25), 3, 0.4).probs
        assert np.allclose(got, want, atol=1e-15)

    @pytest.mark.parametrize("lams", [(1.2,), (0.3, 1.0), (0.2, -0.1, 0.5)])
    def test_sequential_weights_validated_at_construction(self, lams):
        with pytest.raises(InadmissibleCorrelation, match="lambda weights must be in"):
            Sequential(lams)

    @pytest.mark.parametrize("lams, n, want", [
        ((0.3,), 4, [0.3, 0.3, 0.3]),
        ((), 3, [0.0, 0.0]),
        ((0.1, 0.2, 0.3), 3, [0.1, 0.2]),
        ((0.4,), 1, []),
    ])
    def test_sequential_weights_pad_with_the_last(self, lams, n, want):
        assert Sequential(lams).weights(n) == want

    def test_markov_shock_step_probability(self):
        law = MarkovShock(0.2, 0.6)
        assert law.step_probability(law.rho) == pytest.approx(law.rho, abs=1e-15)
        assert MarkovShock(0.3, 1.0).step_probability(1.0) == 0.0

    def test_sequential_zero_lambda_is_binomial(self):
        pmf = action_count_pmf(Sequential((0.0, 0.0, 0.0)), 4, 0.35).probs
        assert np.allclose(pmf, binom_pmf(4, 0.35), atol=1e-14)

    def test_sequential_mean_is_theta(self):
        pmf = action_count_pmf(Sequential((0.4, 0.8, 0.2)), 4, 0.35)
        assert pmf.mean() / 4 == pytest.approx(0.35, abs=1e-12)


class TestAdditiveBinomial:
    def test_matches_bahadur_pushforward(self):
        # common pairwise correlation, no third-order term: identical count law
        theta, rho = 0.37, 0.08
        add = action_count_pmf(AdditiveBinomial(rho), 3, theta).probs
        bah = action_count_pmf(BahadurJoint(r2=(rho, rho, rho)), 3, theta).probs
        assert np.allclose(add, bah, atol=1e-12)

    def test_negative_correlation_allowed(self):
        lo, _ = additive_binomial_rho_bounds(3, 0.5)
        pmf = action_count_pmf(AdditiveBinomial(lo * 0.9), 3, 0.5)
        assert pmf.variance() < dgp_variance(RhoMixture(0.0), 3, 0.5)

    def test_bounds_are_sharp(self):
        n, theta = 4, 0.3
        lo, hi = additive_binomial_rho_bounds(n, theta)
        action_count_pmf(AdditiveBinomial(hi * 0.999), n, theta)
        with pytest.raises(InadmissibleCorrelation):
            action_count_pmf(AdditiveBinomial(hi * 1.05), n, theta)
        with pytest.raises(InadmissibleCorrelation):
            action_count_pmf(AdditiveBinomial(lo * 1.05), n, theta)

    def test_pairwise_correlation_is_rho(self):
        # Var(y) = n theta(1-theta) (1 + (n-1) rho) pins the pairwise correlation
        n, theta, rho = 5, 0.42, 0.06
        pmf = action_count_pmf(AdditiveBinomial(rho), n, theta)
        implied = (pmf.variance() / (n * theta * (1 - theta)) - 1) / (n - 1)
        assert implied == pytest.approx(rho, abs=1e-10)


class TestVariance:
    def test_binomial_variance_at_rho_zero(self):
        assert dgp_variance(RhoMixture(0.0), 6, 0.3) == pytest.approx(6 * 0.21)

    def test_maximum_variance_bound(self):
        # rho = 1 at theta = 1/2 attains the n^2/4 ceiling
        assert dgp_variance(RhoMixture(1.0), 8, 0.5) == pytest.approx(64 / 4)

    def test_matches_direct_moments(self):
        for rho in (0.0, 0.4, 1.0):
            pmf = action_count_pmf(RhoMixture(rho), 6, 0.3)
            assert pmf.variance() == pytest.approx(dgp_variance(RhoMixture(rho), 6, 0.3), abs=1e-10)

    def test_mean_limit_variance(self):
        assert mean_limit_variance(0.5, 0.3) == pytest.approx(0.105)


class TestBernstein:
    def test_endpoints(self):
        vals = [0.2, 0.5, 0.9]
        assert bernstein(2, 0.0, vals) == 0.2
        assert bernstein(2, 1.0, vals) == 0.9

    def test_linear_reproduced_exactly(self):
        n = 7
        vals = [0.1 + 0.6 * (y / n) for y in range(n + 1)]
        for t in (0.0, 0.21, 0.5, 0.77, 1.0):
            assert bernstein(n, t, vals) == pytest.approx(0.1 + 0.6 * t, abs=1e-12)

    def test_square_identity(self):
        # B_n(theta; z^2) = theta^2 + theta(1-theta)/n
        n = 9
        vals = [(y / n) ** 2 for y in range(n + 1)]
        for t in (0.13, 0.5, 0.86):
            assert bernstein(n, t, vals) == pytest.approx(t**2 + t * (1 - t) / n, abs=1e-12)

    def test_weighted_endpoint_identity(self):
        vals = [0.15, 0.4, 0.8]
        for rho in (0.0, 0.33, 1.0):
            assert weighted_bernstein(2, 0.0, rho, vals) == pytest.approx(0.15, abs=1e-15)
            assert weighted_bernstein(2, 1.0, rho, vals) == pytest.approx(0.8, abs=1e-15)

    def test_weighted_rho_zero_reduces(self):
        vals = [0.0, 0.3, 0.5, 1.0]
        assert weighted_bernstein(3, 0.4, 0.0, vals) == pytest.approx(
            bernstein(3, 0.4, vals), abs=1e-15
        )

    @pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("shift", [0.0, 0.35])
    def test_weighted_equals_hand_rolled_mixture(self, rho, shift):
        # the residual every application used to spell out by hand; the kernel
        # must reproduce it bit for bit, including min(., 1)-clipped grids
        def reference(n, t, rho, g):
            base = float(binom_pmf(n, t) @ g)
            return (1.0 - rho) * base + rho * (t * g[-1] + (1.0 - t) * g[0])

        for n in (1, 2, 5, 12):
            g = np.minimum(np.array([(y / n) ** 1.7 for y in range(n + 1)]) + shift, 1.0)
            for t in (0.0, 1e-9, 0.23, 0.5, 0.81, 1.0):
                assert weighted_bernstein(n, t, rho, g) == reference(n, t, rho, g)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_weighted_monotone_for_increasing_grid(self, t1, t2, rho):
        vals = [0.05, 0.2, 0.45, 0.7, 0.95]
        lo, hi = sorted((t1, t2))
        assert weighted_bernstein(4, lo, rho, vals) <= weighted_bernstein(4, hi, rho, vals) + 1e-12

    def test_bad_grid_length(self):
        with pytest.raises(ModelError):
            bernstein(3, 0.5, [0.1, 0.2])


def _signal_vectors(n):
    """All 2**n signal vectors as rows of a 0/1 array, and their counts y."""
    x = np.array(list(itertools.product((0, 1), repeat=n)), dtype=float).reshape(-1, n)
    return x, x.sum(axis=1).astype(int)


def _joint(dgp, t, x, y):
    """P(signal vector) under ``dgp`` at an interior theta, one entry per row of x
    (up to normalisation for CMB), written from each law's definition."""
    n = x.shape[1]
    p = np.where(x == 1, t, 1.0 - t)
    if isinstance(dgp, CMB):  # in logs, scaled by the largest weight: t**y underflows
        log_comb = np.log([math.comb(n, k) for k in y])
        logw = y * math.log(t) + (n - y) * math.log1p(-t) - log_comb
        if math.isinf(dgp.nu):
            keep = [0, n] if dgp.nu < 0 else [n // 2, (n + 1) // 2]
            logw = np.where(np.isin(y, keep), logw, -np.inf)
        else:
            logw = logw + dgp.nu * log_comb
        return np.exp(logw - logw.max())
    if isinstance(dgp, Sequential):
        lams = dgp.weights(n)
        for i in range(1, n):
            one = (1.0 - lams[i - 1]) * t + lams[i - 1] * x[:, :i].sum(axis=1) / i
            p[:, i] = np.where(x[:, i] == 1, one, 1.0 - one)
        return p.prod(axis=1)
    w = (x - t) / math.sqrt(t * (1.0 - t))
    pairs = list(itertools.combinations(range(n), 2))
    if isinstance(dgp, AdditiveBinomial):
        return p.prod(axis=1) * (1.0 + dgp.rho * sum(w[:, i] * w[:, j] for i, j in pairs))
    return p.prod(axis=1) * sum(_bahadur_terms(dgp, w))


def _bahadur_terms(dgp, w):
    """The terms 1, r_ij w_i w_j and r3 w_0 w_1 w_2 of the Bahadur correction."""
    pairs = itertools.combinations(range(w.shape[1]), 2)
    terms = [np.ones(len(w))] + [r * w[:, i] * w[:, j] for (i, j), r in zip(pairs, dgp.r2)]
    return terms + ([dgp.r3 * w.prod(axis=1)] if w.shape[1] == 3 else [])


def _bahadur_negative(dgp, t, x, joint):
    """Whether a Bahadur cell lies below the rounding of its terms (16 ulps of their magnitudes)."""
    if t in (0.0, 1.0):
        return False
    p = np.where(x == 1, t, 1.0 - t).prod(axis=1)
    w = (x - t) / math.sqrt(t * (1.0 - t))
    scale = p * sum(np.abs(term) for term in _bahadur_terms(dgp, w))
    return bool((joint < -16 * np.finfo(float).eps * scale).any())


def _oracle(dgp, n, thetas):
    """The count-law rows summed over all 2**n signal vectors (the rho-mixtures:
    scipy's binomial mixed with the polarised draw), or the type and literal
    message of the error the law raises at the first inadmissible theta."""
    if isinstance(dgp, (IID, RhoMixture, MarkovShock)):
        y = np.arange(n + 1)
        return np.array([(1.0 - dgp.rho) * sp_binom.pmf(y, n, t) + dgp.rho * np.where(y == n, t, 0.0)
                         + dgp.rho * np.where(y == 0, 1.0 - t, 0.0) for t in thetas])
    if isinstance(dgp, AdditiveBinomial) and n < 2:
        return UnsupportedN, "additive binomial needs n >= 2"
    if isinstance(dgp, BahadurJoint) and n > 3:
        return UnsupportedN, f"Bahadur joints are supported for n <= 3, got n={n}"
    x, y = _signal_vectors(n)
    rows = []
    for t in thetas:
        if isinstance(dgp, AdditiveBinomial):
            if not 0.0 < t < 1.0:
                return InadmissibleCorrelation, "additive binomial needs theta in (0,1)"
            lo, hi = additive_binomial_rho_bounds(n, t)
            if not lo <= dgp.rho <= hi:
                return InadmissibleCorrelation, (
                    f"rho={dgp.rho} outside admissible [{lo:.6g}, {hi:.6g}] for n={n}, theta={t}")
        if t in (0.0, 1.0):  # every signal equals theta
            joint = (y == n * t).astype(float)
        else:
            joint = _joint(dgp, t, x, y)
        if isinstance(dgp, BahadurJoint) and _bahadur_negative(dgp, t, x, joint):
            return InadmissibleCorrelation, f"correlation parameters produce a negative cell ({joint.min():.3e})"
        rows.append(np.bincount(y, weights=joint, minlength=n + 1))
    rows = np.array(rows).reshape(-1, n + 1)
    return rows / rows.sum(axis=1, keepdims=True)


def _bahadur_law(n):
    pairs = max(0, min(n, 3) * (min(n, 3) - 1) // 2)
    r2 = st.lists(st.floats(-0.6, 0.6), min_size=pairs, max_size=pairs).map(tuple)
    return st.tuples(st.builds(BahadurJoint, r2, st.floats(-0.3, 0.3)), st.just(n))


# (law, n): every family at sample sizes in and just out of its support; the
# laws summed over signal vectors keep n <= 12
_LAWS = st.one_of(
    st.tuples(st.just(IID()), st.integers(1, 40)),
    st.tuples(st.floats(0.0, 1.0).map(RhoMixture), st.integers(1, 40)),
    st.tuples(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
        .filter(lambda pq: pq[0] + pq[1] > 0.0).map(lambda pq: MarkovShock(*pq)),
        st.integers(1, 40),
    ),
    st.tuples(
        st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-math.inf, 0.0, 1.0, math.inf])).map(CMB),
        st.integers(1, 10),
    ),
    st.tuples(st.lists(st.floats(0.0, 0.95), max_size=4).map(lambda w: Sequential(tuple(w))),
              st.integers(1, 10)),
    st.tuples(st.floats(-0.05, 0.3).map(AdditiveBinomial), st.integers(1, 10)),
    st.integers(1, 4).flatmap(_bahadur_law),
)
# below 1e-100 the oracle's w_i = (x_i - theta) / sqrt(theta (1 - theta)) products overflow
_THETAS = st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-100, 1.0)), min_size=1, max_size=12)


class TestCountPmfGrid:
    @settings(max_examples=200, deadline=None)
    @given(law=_LAWS, thetas=_THETAS)
    # three cells of about -9.8e-13, each theta^2 (1 - theta) (1 - r3 sqrt((1 - theta)/theta)):
    # negative beyond rounding, so the law raises here as it does at theta = 1e-5
    @example(law=(BahadurJoint((0.0, 0.0, 0.0), 0.03125), 3), thetas=[1e-07])
    def test_rows_match_the_brute_force_oracle(self, law, thetas):
        dgp, n = law
        want = _oracle(dgp, n, thetas)
        if isinstance(want, tuple):  # inadmissible: the law's error at the first such theta
            with pytest.raises(want[0]) as exc:
                count_pmf_grid(dgp, n, thetas)
            assert type(exc.value) is want[0] and str(exc.value) == want[1]
        else:
            got = count_pmf_grid(dgp, n, thetas)
            assert got.shape == (len(thetas), n + 1)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(
        rho=st.floats(-0.02, 0.1),
        n=st.integers(2, 12),
        thetas=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=12),
    )
    def test_additive_binomial_inside_its_admissible_set(self, rho, n, thetas):
        # the scan nodes theta = 0 and 1 are always inadmissible; here rows are compared
        want = _oracle(AdditiveBinomial(rho), n, thetas)
        if isinstance(want, tuple):
            with pytest.raises(want[0], match=f"^{re.escape(want[1])}$"):
                count_pmf_grid(AdditiveBinomial(rho), n, thetas)
        else:
            np.testing.assert_allclose(count_pmf_grid(AdditiveBinomial(rho), n, thetas), want, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("dgp, n, thetas, error, message", [
        pytest.param(IID(), 0, [0.5], UnsupportedN, "n must be >= 1, got 0", id="dgp0-0-thetas0"),
        pytest.param(CMB(2.0), 3, [0.2, -0.1], ModelError, "theta must be in [0,1], got -0.1",
                     id="dgp1-3-thetas1"),
        pytest.param(Sequential((0.3,)), 3, [0.2, 1.5], ModelError, "theta must be in [0,1], got 1.5",
                     id="dgp2-3-thetas2"),
        pytest.param(RhoMixture(0.4), 3, [math.nan], ModelError, "theta must be in [0,1], got nan",
                     id="dgp3-3-thetas3"),
        pytest.param(BahadurJoint((0.1,)), 3, [0.5], ModelError, "need 3 pairwise correlations for n=3",
                     id="dgp4-3-thetas4"),
        pytest.param(BahadurJoint((0.1, 0.1, 0.1)), 4, [0.5], UnsupportedN,
                     "Bahadur joints are supported for n <= 3, got n=4", id="dgp5-4-thetas5"),
        pytest.param(AdditiveBinomial(0.05), 1, [0.5], UnsupportedN, "additive binomial needs n >= 2",
                     id="dgp6-1-thetas6"),
        pytest.param(AdditiveBinomial(0.05), 4, [0.3, 0.0], InadmissibleCorrelation,
                     "additive binomial needs theta in (0,1)", id="dgp7-4-thetas7"),
        pytest.param("rho:0.3", 3, [0.5], ModelError, "unknown DGP 'rho:0.3'", id="rho:0.3-3-thetas8"),
        pytest.param(CMB(1.0), 3.5, [0.3], UnsupportedN, "n must be an integer, got 3.5", id="cmb-3.5"),
        pytest.param(IID(), math.inf, [0.3], UnsupportedN, "n must be an integer, got inf", id="iid-inf"),
    ])
    def test_rejected_inputs_raise_as_the_scalar_pmf(self, dgp, n, thetas, error, message):
        # the grid raises at its first bad theta what the one-theta pmf raises there
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            count_pmf_grid(dgp, n, thetas)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            for t in thetas:
                action_count_pmf(dgp, n, t)

    def test_mixture_grid_checks_rho_as_the_kernel(self):
        for rho in (-0.1, 1.5, math.nan):
            with pytest.raises(InadmissibleCorrelation, match=r"^rho must be in \[0,1\], got"):
                mixture_pmf_grid(3, [0.5], rho)

    def test_scan_nodes_match_the_oracle(self):
        # every tenth node of the scans, ends included, for one law of each kernel
        nodes = [i / 10_000 for i in range(0, 10_001, 10)]
        for dgp, n in [(RhoMixture(0.3), 12), (CMB(-1.3), 10), (CMB(math.inf), 9),
                       (Sequential((0.3, 0.5)), 6), (BahadurJoint((0.02, 0.01, 0.03)), 3)]:
            np.testing.assert_allclose(count_pmf_grid(dgp, n, nodes), _oracle(dgp, n, nodes), rtol=0.0, atol=1e-13)

    def test_bahadur_third_order_term_at_tiny_theta(self):
        # w_i alone overflows here; each cell is finite, and the r3 term (theta^1.5) underflows
        t = 8.1e-219
        got = action_count_pmf(BahadurJoint((0.0, 0.0, 0.0), 0.25), 3, t).probs
        np.testing.assert_allclose(got, [(1 - t) ** 3, 3 * t * (1 - t) ** 2, 3 * t**2 * (1 - t), t**3],
                                   rtol=1e-15, atol=0.0)
        assert np.isfinite(bahadur_joint(3, t, 0.0, 0.25).probs).all()

    @pytest.mark.parametrize("probs", [[math.nan, 0.5, 0.5], [math.inf, 0.0, 0.0]])
    def test_pmf_rejects_non_finite_entries(self, probs):
        with pytest.raises(ModelError, match="^non-finite pmf entry in"):
            ActionCountPMF(2, probs)


class TestAdditiveBinomialBounds:
    def test_tiny_theta_bounds_are_finite(self):
        lo, hi = additive_binomial_rho_bounds(2, 9.3e-121)
        assert lo == pytest.approx(-9.3e-121, rel=1e-15) and hi == pytest.approx(1.0, rel=1e-15)

    def test_tiny_theta_pmf_is_the_binomial(self):
        got = action_count_pmf(AdditiveBinomial(0.0), 2, 1e-17).probs
        np.testing.assert_allclose(got, [(1 - 1e-17) ** 2, 2e-17 * (1 - 1e-17), 1e-34], rtol=1e-14, atol=0.0)

    def test_subnormal_theta_row_is_finite(self):
        # rho = 0.05 is inside [-0.0, 0.5] here
        assert np.isfinite(count_pmf_grid(AdditiveBinomial(0.05), 3, [5e-324])).all()

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_upper_bound_is_the_nearest_count_definition(self, n):
        # 1/4 - xi0 with xi0 the squared distance from the nearest count to (n-1) theta + 1/2
        for theta in np.linspace(0.001, 0.999, 499).tolist():
            center = (n - 1) * theta + 0.5
            xi0 = min((y - center) ** 2 for y in range(n + 1))
            want = 2 * theta * (1 - theta) / ((n - 1) * theta * (1 - theta) + 0.25 - xi0)
            assert additive_binomial_rho_bounds(n, theta)[1] == pytest.approx(want, rel=1e-12)
