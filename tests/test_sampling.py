import math
import subprocess
import sys

import numpy as np
import pytest

from cosesi.model import (
    ActionCountPMF,
    RhoMixture,
    action_count_pmf,
    binom_pmf,
)
from cosesi.model import InadmissibleCorrelation, ModelError
from cosesi.sampling import (
    LambdaOutOfRange,
    SamplingError,
    SeedableRng,
    asymptotic_action_prob,
    bahadur_joint,
    balance_check,
    chi_square_gof,
    informativeness,
    joint_from_conditionals,
    pairwise_correlation,
    sample_correlated,
    sequential_sample,
)
from cosesi.numerics import norm_cdf

from conftest import subprocess_env


class _NoDraws(SeedableRng):
    def generator(self):
        raise AssertionError("the input is refused before anything is drawn")


@pytest.mark.parametrize("theta", [1.5, -0.1, math.nan])
@pytest.mark.parametrize("draw", [
    lambda theta, rng: sample_correlated(3, theta, 0.5, rng, size=10),
    lambda theta, rng: sequential_sample(3, theta, 0.3, rng, size=10),
])
def test_theta_outside_unit_interval_refused_before_drawing(theta, draw):
    # the draws used to run, and returned all ones at theta = 1.5
    with pytest.raises(ModelError, match=rf"^theta must be in \[0,1\], got {theta}$"):
        draw(theta, _NoDraws(0))


class TestSeedableRng:
    def test_reproducible(self):
        a = SeedableRng(123).generator().random(5)
        b = SeedableRng(123).generator().random(5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = SeedableRng(123, stream=0).generator().random(5)
        b = SeedableRng(123, stream=1).generator().random(5)
        assert not np.array_equal(a, b)

    def test_split(self):
        assert SeedableRng(5).split(3) == SeedableRng(5, 3)


class TestSampleCorrelated:
    def test_full_correlation_duplicates(self, rng):
        bits = sample_correlated(6, 0.4, 1.0, rng, size=500)
        assert np.all(bits == bits[:, [0]])

    def test_independent_draws_uncorrelated(self, rng):
        bits = sample_correlated(4, 0.5, 0.0, rng, size=10**6)
        assert abs(pairwise_correlation(bits)) <= 0.005

    def test_pairwise_correlation_matches_rho(self, rng):
        bits = sample_correlated(4, 0.5, 0.6, rng, size=10**6)
        assert pairwise_correlation(bits) == pytest.approx(0.6, abs=0.01)

    @pytest.mark.parametrize("bits, message", [
        ([[0, 1, 1]], "need at least two draws, got 1"),
        ([[0, 1, 1], [1, 1, 0], [0, 1, 0]], "signal 1 takes one value in every draw: no sample correlation"),
    ])
    def test_pairwise_correlation_needs_varying_draws(self, bits, message):
        with pytest.raises(SamplingError, match=f"^{message}$"):
            pairwise_correlation(np.array(bits))

    def test_count_histogram_matches_pmf(self, rng):
        n, theta, rho, draws = 5, 0.35, 0.6, 10**6
        bits = sample_correlated(n, theta, rho, rng, size=draws)
        counts = np.bincount(bits.sum(axis=1), minlength=n + 1)
        probs = action_count_pmf(RhoMixture(rho), n, theta).probs
        # per-bin binomial 3-sigma check
        for obs, p in zip(counts, probs):
            sd = math.sqrt(draws * p * (1 - p))
            assert abs(obs - draws * p) <= 3 * sd + 1e-9

    def test_chi_square_grid(self, rng):
        for i, (n, theta, rho) in enumerate(
            [(2, 0.5, 0.0), (3, 0.3, 0.5), (5, 0.7, 0.9), (4, 0.5, 1.0)]
        ):
            bits = sample_correlated(n, theta, rho, rng.split(10 + i), size=10**6)
            counts = np.bincount(bits.sum(axis=1), minlength=n + 1)
            probs = action_count_pmf(RhoMixture(rho), n, theta).probs
            _, pvalue, _ = chi_square_gof(counts, probs)
            assert pvalue > 0.001

    def test_chi_square_pvalue_matches_scipy_stats(self):
        from scipy.stats import chi2

        counts = [120, 260, 310, 200, 90, 20]
        probs = [0.12, 0.25, 0.3, 0.2, 0.1, 0.03]
        stat, pvalue, dof = chi_square_gof(counts, probs)
        assert dof == 5
        assert pvalue == float(chi2.sf(stat, dof))

    def test_package_import_leaves_scipy_stats_unloaded(self):
        code = "import sys, cosesi, cosesi.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    def test_invalid_rho(self, rng):
        with pytest.raises(InadmissibleCorrelation):
            sample_correlated(3, 0.5, 1.2, rng)

    @pytest.mark.parametrize("size", [0, -3])
    def test_no_draws_refused(self, rng, size):
        with pytest.raises(SamplingError, match=rf"^need at least one draw, got size={size}$"):
            sample_correlated(3, 0.5, 0.5, rng, size=size)


class TestSequentialSample:
    def test_zero_lambda_is_iid(self, rng):
        bits = sequential_sample(4, 0.3, 0.0, rng, size=10**5)
        counts = np.bincount(bits.sum(axis=1), minlength=5)
        _, pvalue, _ = chi_square_gof(counts, binom_pmf(4, 0.3))
        assert pvalue > 0.001

    def test_marginals_are_theta(self, rng):
        theta, draws = 0.42, 10**6
        bits = sequential_sample(8, theta, 0.55, rng, size=draws)
        sd = math.sqrt(theta * (1 - theta) / draws)
        for pos_mean in bits.mean(axis=0):
            assert abs(pos_mean - theta) <= 3 * sd + 1e-9

    def test_strong_feedback_overdispersion(self, rng):
        n, theta, draws = 50, 0.5, 2 * 10**5
        bits = sequential_sample(n, theta, 0.9, rng, size=draws)
        var = bits.mean(axis=1).var()
        assert var > 5 * theta * (1 - theta) / n

    @pytest.mark.parametrize("short", [(0.3,), [0.3, 0.3]])
    def test_short_weights_are_padded_like_the_pmf(self, rng, short):
        # one padding rule, Sequential.weights: the pmf and the sampler agree
        want = sequential_sample(4, 0.4, (0.3, 0.3, 0.3), rng, size=1000)
        assert np.array_equal(sequential_sample(4, 0.4, short, rng, size=1000), want)

    def test_matches_exact_count_pmf(self, rng):
        from cosesi.model import Sequential

        lams = (0.3, 0.6, 0.2)
        bits = sequential_sample(4, 0.45, lams, rng, size=10**6)
        counts = np.bincount(bits.sum(axis=1), minlength=5)
        probs = action_count_pmf(Sequential(lams), 4, 0.45).probs
        _, pvalue, _ = chi_square_gof(counts, probs)
        assert pvalue > 0.001

    def test_constant_lambda_calibration_is_approximate(self, rng):
        # The constant-lambda heuristic pins the first-pair correlation at
        # lambda exactly; later adjacent pairs decay (corr(x2, x3) is
        # lambda(1+lambda)/2, and so on), so the overall average sits below
        # lambda.  Measured, not asserted, per the calibration's open status.
        lam, draws = 0.4, 10**6
        bits = sequential_sample(6, 0.5, lam, rng, size=draws).astype(float)
        first = np.corrcoef(bits[:, 0], bits[:, 1])[0, 1]
        second = np.corrcoef(bits[:, 1], bits[:, 2])[0, 1]
        assert first == pytest.approx(lam, abs=0.01)
        assert second == pytest.approx(lam * (1 + lam) / 2, abs=0.01)
        avg = pairwise_correlation(bits)
        assert 0.0 < avg < lam

    def test_lambda_validation(self, rng):
        with pytest.raises(InadmissibleCorrelation):
            sequential_sample(3, 0.5, 1.0, rng)


class TestAsymptoticActionProb:
    def test_zero_lambda_display(self, pow2):
        eta, theta, n = 0.6, 0.4, 25
        got = asymptotic_action_prob(eta, theta, 0.0, n, pow2)
        u = eta - theta**2
        want = norm_cdf(u * math.sqrt(n) / (2 * theta * math.sqrt(theta * (1 - theta))))
        assert got == pytest.approx(want, abs=1e-12)

    def test_indifferent_type_is_coin_flip(self, pow2):
        theta = 0.5
        eta = theta**2  # u(eta, theta) = 0
        for lam in (0.0, 0.2, 0.45):
            assert asymptotic_action_prob(eta, theta, lam, 10, pow2) == pytest.approx(0.5)

    def test_decreasing_in_lambda(self, pow2):
        vals = [
            asymptotic_action_prob(0.7, 0.4, lam, 30, pow2)
            for lam in np.linspace(0.0, 0.49, 25)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_lambda_gate(self, pow2):
        with pytest.raises(LambdaOutOfRange):
            asymptotic_action_prob(0.7, 0.4, 0.5, 30, pow2)

    def test_supply_shock_mode(self, pow2):
        # tau = 1 variant: argument scales by sqrt(1-lam)/sqrt(1+lam)
        eta, theta, n, lam = 0.7, 0.4, 30, 0.3
        got = asymptotic_action_prob(eta, theta, lam, n, pow2, mode="supply_shock_tau1")
        u = eta - theta**2
        base = 2 * theta * math.sqrt(theta * (1 - theta))
        want = 1.0 - norm_cdf(u * math.sqrt(n) * math.sqrt(1 - lam) / (base * math.sqrt(1 + lam)))
        assert got == pytest.approx(want, abs=1e-12)

    def test_supply_shock_at_zero_lambda_complements(self, pow2):
        got = asymptotic_action_prob(0.7, 0.4, 0.0, 30, pow2, mode="supply_shock_tau1")
        main = asymptotic_action_prob(0.7, 0.4, 0.0, 30, pow2)
        assert got == pytest.approx(1.0 - main, abs=1e-12)


class TestBahadurJoint:
    def test_zero_correlations_product_measure(self):
        theta = 0.37
        joint = bahadur_joint(3, theta, 0.0, 0.0)
        for b in range(8):
            ones = bin(b).count("1")
            want = theta**ones * (1 - theta) ** (3 - ones)
            assert joint.probs[b] == pytest.approx(want, rel=1e-15)

    def test_two_signal_table_cells(self):
        theta, rho = 0.42, 0.3
        joint = bahadur_joint(2, theta, rho)
        # little-endian: index 3 = both ones, 0 = both zeros
        assert joint.probs[3] == pytest.approx(theta * rho + theta**2 * (1 - rho), abs=1e-14)
        assert joint.probs[0] == pytest.approx(
            (1 - theta) * rho + (1 - theta) ** 2 * (1 - rho), abs=1e-14
        )
        assert joint.probs[1] == pytest.approx(theta * (1 - theta) * (1 - rho), abs=1e-14)

    def test_referral_parity_joint(self):
        # pairwise independent, third-order correlation -1: quarter mass on
        # each even-parity outcome {000, 011, 101, 110}
        joint = bahadur_joint(3, 0.5, 0.0, r3=-1.0)
        even = [0b000, 0b011, 0b101, 0b110]
        for b in range(8):
            want = 0.25 if b in even else 0.0
            assert joint.probs[b] == pytest.approx(want, abs=1e-15)

    def test_negative_cell_rejected(self):
        with pytest.raises(InadmissibleCorrelation):
            bahadur_joint(2, 0.05, -0.9)

    def test_region_error_is_the_model_error(self):
        with pytest.raises(InadmissibleCorrelation, match="negative cell") as exc:
            bahadur_joint(2, 0.05, -0.9)
        assert exc.value.__cause__ is None

    def test_count_pushforward(self):
        joint = bahadur_joint(3, 0.5, 0.2, 0.1)
        pmf = joint.count_pmf()
        assert isinstance(pmf, ActionCountPMF)
        assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-14)

    def test_identical_marginals_flag(self):
        assert bahadur_joint(3, 0.4, 0.1, 0.0).is_identically_distributed()
        lopsided = joint_from_conditionals(0.5, 0.9, 0.9, 0.1, 0.1, 0.1, 0.1)
        assert not lopsided.is_identically_distributed()


class TestBalanceEquations:
    def test_product_measure_holds(self):
        joint = bahadur_joint(3, 0.3, 0.0, 0.0)
        report = balance_check(joint, 0.3)
        assert report.holds

    def test_dependent_but_binomial(self):
        # conditional construction: P(x1)=1/2, P(x2=1|x1=1)=1/4, P(x2=1|x1=0)=3/4,
        # x3 pushed to keep the sum Bin(3, 1/2)
        joint = joint_from_conditionals(0.5, 0.25, 0.75, 1.0, 0.5, 0.5, 0.0)
        report = balance_check(joint, 0.5)
        assert report.holds
        assert np.allclose(joint.count_pmf().probs, binom_pmf(3, 0.5), atol=1e-15)
        # yet the signals are far from independent
        assert joint.probs[0b011] != pytest.approx(0.125, abs=1e-3)

    def test_second_dependent_binomial_example(self):
        joint = joint_from_conditionals(0.5, 1 / 3, 2 / 3, 3 / 4, 1 / 5, 4 / 5, 1 / 4)
        assert balance_check(joint, 0.5).holds
        assert np.allclose(joint.count_pmf().probs, binom_pmf(3, 0.5), atol=1e-12)

    def test_referrals_fail_at_third_order(self):
        joint = bahadur_joint(3, 0.5, 0.0, r3=-1.0)
        report = balance_check(joint, 0.5)
        assert not report.holds
        assert report.moments[0] == pytest.approx(1.5, abs=1e-12)  # W_1 fine
        assert report.moments[1] == pytest.approx(0.75, abs=1e-12)  # W_2 fine
        assert report.moments[2] == pytest.approx(0.0, abs=1e-12)  # W_3 = 0 != 1/8
        assert report.targets[2] == pytest.approx(0.125)

    def test_equivalence_with_informativeness(self):
        # holds <=> psi = 1, on the counterexamples and random joints
        rs = np.random.default_rng(21)
        cases = [
            bahadur_joint(3, 0.5, 0.0, -1.0),
            joint_from_conditionals(0.5, 0.25, 0.75, 1.0, 0.5, 0.5, 0.0),
        ]
        for _ in range(100):
            theta = rs.uniform(0.25, 0.75)
            r = rs.uniform(-0.08, 0.15, size=3)
            if rs.random() < 0.3:
                r[2] = -(r[0] + r[1])  # zero-sum pairs keep the count binomial
            try:
                cases.append(bahadur_joint(3, theta, tuple(r), 0.0))
            except InadmissibleCorrelation:
                continue
        checked_holds = checked_fails = 0
        for joint in cases:
            theta = float(joint.marginals()[0])
            psi = informativeness(joint.n, joint.count_pmf(), theta)
            holds = balance_check(joint, theta).holds
            assert holds == (abs(psi - 1.0) <= 1e-9)
            checked_holds += holds
            checked_fails += not holds
        assert checked_holds >= 2 and checked_fails >= 10


class TestInformativeness:
    def test_binomial_is_fully_informative(self):
        pmf = action_count_pmf(RhoMixture(0.0), 6, 0.4)
        assert informativeness(6, pmf, 0.4) == pytest.approx(1.0, abs=1e-14)

    def test_polarized_vanishes_with_n(self):
        vals = []
        for n in (10, 50, 200):
            pmf = action_count_pmf(RhoMixture(1.0), n, 0.3)
            vals.append(informativeness(n, pmf, 0.3))
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.02

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_parity_construction_is_half(self, n):
        # k-wise independent but not mutually independent signals at
        # theta = 1/2: counts supported on one parity class with doubled
        # binomial weights
        probs = np.zeros(n + 1)
        for j in range(n + 1):
            if j % 2 == n % 2:
                probs[j] = 2 * math.comb(n, j) / 2**n
        pmf = ActionCountPMF(n, probs)
        assert informativeness(n, pmf, 0.5) == pytest.approx(0.5, abs=1e-14)

    def test_mismatched_n(self):
        pmf = action_count_pmf(RhoMixture(0.0), 3, 0.4)
        with pytest.raises(SamplingError):
            informativeness(4, pmf, 0.4)


class TestChiSquare:
    def test_merges_sparse_bins(self):
        # rho near 1 concentrates mass on {0, n}; interior bins get pooled
        probs = action_count_pmf(RhoMixture(0.98), 6, 0.5).probs
        counts = probs * 50
        stat, pvalue, dof = chi_square_gof(counts, probs)
        assert dof < 6
        assert pvalue > 0.5

    def test_detects_wrong_model(self, rng):
        bits = sample_correlated(4, 0.5, 0.8, rng, size=10**5)
        counts = np.bincount(bits.sum(axis=1), minlength=5)
        _, pvalue, _ = chi_square_gof(counts, binom_pmf(4, 0.5))
        assert pvalue < 1e-6
