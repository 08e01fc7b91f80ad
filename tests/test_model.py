import itertools
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import beta as sp_beta, binom as sp_binom

from conftest import subprocess_env
from cosesi import model
from cosesi.equilibrium import cost_grid
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
    linear_cost,
    mixture_pmf_grid,
    mean_limit_variance,
    parse_cost,
    power_cost,
    row_dots,
    s_shaped_cost,
    weighted_bernstein,
    weighted_bernstein_rows,
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

    @pytest.mark.parametrize("rate", [-1.0, math.nan, math.inf])
    def test_exp_decay_rate_outside_its_interval(self, rate):
        with pytest.raises(ModelError, match="exp_decay rate must be"):
            exp_decay_cost(rate)

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

    @pytest.mark.parametrize("spec, message", [
        ("pow:nan", "power cost needs d > 0, got nan"),
        ("pow:-1", "power cost needs d > 0, got -1.0"),
        ("affine:nan,1", "cost 'affine:nan,1' leaves [0,1] on the unit interval"),
        ("affine:0.5,nan", "cost 'affine:0.5,nan' leaves [0,1] on the unit interval"),
    ])
    def test_nan_parameter_refused(self, spec, message):
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            parse_cost(spec)

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

    def test_large_shapes_exact_second_moment(self):
        # E[X^2] for X ~ Beta(50, 50) is 50 * 51 / (100 * 101)
        got = BetaEstimation().expected_value(100, 0.5, power_cost(2))
        assert got == pytest.approx(50 * 51 / (100 * 101), abs=1e-9)

    @pytest.mark.parametrize("a, b", [(2.5, 0.7), (0.4, 3.0)])
    def test_cusp_cells_exact_third_moment(self, a, b):
        # a shape below 1 puts an unbounded cusp at one end, a fractional
        # shape above 1 a weaker one; the end panels take both
        assert beta_expectation(power_cost(3), a, b) == pytest.approx(_beta_moment(3, a, b), abs=1e-15)

    def test_arrays_of_shapes(self):
        a, b = np.array([1.0, 2.5, 60.0]), np.array([1.0, 0.7, 140.0])
        got = beta_expectation(power_cost(2), a, b)
        assert got.shape == (3,)
        assert got.tolist() == [beta_expectation(power_cost(2), x, y) for x, y in zip(a, b)]

    def test_one_rule_per_endpoint_power(self):
        # the shapes alpha + y of one prior share the panel rule of their fractional part
        model._gauss_jacobi.cache_clear()
        BayesBeta(0.93, 1.25, 0.0).expected_cells(200, np.arange(201), power_cost(2))
        # the body's Legendre rule; at 0 the power of 16 (0.93 + y) - 1, -0.12;
        # at 1 that of 16 (1.25 + y) - 1, an integer, so 64-node Legendre
        assert model._gauss_jacobi.cache_info().currsize == 3

    @pytest.mark.parametrize("m", [2, 16, 64, 128])
    @pytest.mark.parametrize("power", [0.0, -0.12, -0.5, -0.75, -0.99])
    def test_gauss_jacobi_rule_is_golub_welsch(self, m, power):
        # the eigenvalues of the Jacobi matrix of P^(0, power) and the squared
        # first components of their eigenvectors
        k = np.arange(1.0, m)
        s = 2.0 * k + power
        diag = np.concatenate([[power / (power + 2.0)], power * power / (s * (s + 2.0))])
        off = 2.0 * k * (k + power) / (s * np.sqrt(s * s - 1.0))
        lam, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        t, u, w = model._gauss_jacobi(m, power)
        np.testing.assert_allclose(t, (1.0 + lam) / 2.0, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(w, vec[0] ** 2 / (power + 1.0), rtol=2e-12)

    @pytest.mark.parametrize("m", [4, 16, 64, 128])
    @pytest.mark.parametrize("power", [0.0, -0.12, -0.5, -0.75, -0.99])
    def test_gauss_jacobi_rule_is_exact_to_its_degree(self, m, power):
        # sum_j w_j t_j^k = int_0^1 t^(power + k) dt for k < 2m
        t, u, w = model._gauss_jacobi(m, power)
        assert np.all(np.abs(t + u - 1.0) <= 2e-16)
        for k in range(2 * m):
            assert float(w @ t**k) == pytest.approx(1.0 / (power + 1.0 + k), rel=1e-12)


def _beta_moment(d, a, b):
    """E[X^d] for X ~ Beta(a, b): prod_{k<d} (a + k) / (a + b + k)."""
    return math.prod((a + k) / (a + b + k) for k in range(d))


class TestBetaAccuracy:
    """The pow:d cells against the exact moments, and exp and steep S-shaped
    cells against 30-digit quadratures, across the cusp and large-shape regimes."""

    @pytest.mark.parametrize("n", [2, 20, 50, 100, 200])
    @pytest.mark.parametrize("G", [BetaEstimation(), BayesBeta(0.5, 0.93, 0.0),
                                   BayesBeta(0.93, 1.25, 0.0), BayesBeta(1.25, 0.5, 0.0)],
                             ids=["beta", "bayes(0.5,0.93)", "bayes(0.93,1.25)", "bayes(1.25,0.5)"])
    def test_pow_cells_are_the_exact_moments(self, G, n):
        ys = np.arange(n + 1)
        if isinstance(G, BayesBeta):
            shapes = [(G.alpha + y, G.beta + n - y) for y in ys]
        else:
            shapes = [(y, n - y) for y in ys]
        for d in range(1, 6):
            grid = cost_grid(G, n, power_cost(d))
            want = [_beta_moment(d, a, b) if a and b else float(a > 0) for a, b in shapes]
            assert np.max(np.abs(grid - want)) <= 1e-13, d

    @pytest.mark.parametrize("d", [0.1, 0.3, 0.51, 1.5, 2.3])
    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.5, 0.93), (1.25, 0.5)])
    def test_fractional_power_cells(self, d, alpha, beta):
        # E[X^d] = B(a + d, b) / B(a, b); x^d is not smooth at 0, so the cells
        # whose density is not negligible there need their end panel
        n = 20
        G = BayesBeta(alpha, beta, 0.0) if alpha else BetaEstimation()
        grid = cost_grid(G, n, power_cost(d))
        ys = range(n + 1) if alpha else range(1, n)
        lg = math.lgamma
        want = [math.exp(lg(a + d) + lg(a + b) - lg(a) - lg(a + b + d))
                for a, b in ((alpha + y, beta + n - y) for y in ys)]
        assert np.max(np.abs(grid[list(ys)] - want)) <= 1e-12

    @pytest.mark.parametrize("a, b", [(1.05, 3.0), (0.5, 0.7), (2.0, 3.0), (3.0, 7.0),
                                      (150.0, 50.0), (198.0, 2.0)])
    @pytest.mark.parametrize("spec", ["exp:2", "sshape:0.05,0.95,50,0.5"])
    def test_smooth_costs_against_mpmath(self, spec, a, b):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            if spec == "exp:2":
                f = lambda t: mp.exp(-2 * t)
            else:
                sig = lambda x: 1 / (1 + mp.exp(-x))
                s0, s1 = sig(mp.mpf(-25)), sig(mp.mpf(25))
                f = lambda t: mp.mpf("0.05") + mp.mpf("0.9") / (s1 - s0) * (sig(50 * (t - mp.mpf("0.5"))) - s0)
            A, B = mp.mpf(a), mp.mpf(b)
            mean, sd = A / (A + B), mp.sqrt(A * B / ((A + B) ** 2 * (A + B + 1)))
            cuts = {mp.mpf(0), mp.mpf(1), mp.mpf("0.45"), mp.mpf("0.5"), mp.mpf("0.55"), mean}
            cuts |= {mean + k * sd for k in (-12, -4, 4, 12) if 0 < mean + k * sd < 1}
            log_norm = mp.log(mp.beta(A, B))
            density = lambda x: mp.exp((A - 1) * mp.log(x) + (B - 1) * mp.log(1 - x) - log_norm)
            want = mp.quad(lambda x: f(x) * density(x), sorted(cuts))
        got = beta_expectation(parse_cost(spec), a, b)
        assert abs(got - float(want)) <= 1e-12


@pytest.mark.parametrize("spec", ["pow:2", "pow:0.5", "pow:3.7", "exp:6", "sshape", "affine:0.1,0.8"])
def test_mle_grid_is_the_cost_at_each_mean(spec):
    # numpy's ** and exp may round differently from Python's in the last place
    c, n = parse_cost(spec), 997
    want = np.array([c.fn(float(y) / n) for y in range(n + 1)])
    np.testing.assert_allclose(cost_grid(MLE(), n, c), want, rtol=4e-16, atol=0.0)


def test_grid_path_imports_neither_scipy_nor_numpy_polynomial():
    # the Gauss rules come from the Jacobi recurrence and the roots from Bernstein
    # coefficients, both on plain numpy arrays; the bank's normal CDF is math.erfc
    code = (
        "import sys, cosesi, cosesi.cli\n"
        "from cosesi.applications import CreditSpec, monopoly_optimize, solve_bank_cosesi\n"
        "from cosesi.equilibrium import cost_grid, enumerate_cosesi, solve_with_dgp\n"
        "from cosesi.model import CMB, MLE, BayesBeta, BetaEstimation, parse_cost\n"
        "cost_grid(BetaEstimation(), 20, parse_cost('pow:2'))\n"
        "cost_grid(BayesBeta(0.5, 1.25, 0.0), 20, parse_cost('exp:2'))\n"
        "solve_with_dgp(parse_cost('pow:3'), MLE(), 10, CMB(2))\n"
        "enumerate_cosesi(parse_cost('sshape'), 12, 0.3)\n"
        "solve_bank_cosesi(CreditSpec(0.1, 0.4, 5, parse_cost('affine:1,-0.8')))\n"
        "monopoly_optimize(0.0, 6.0, rational=True)\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'"
        " or m.startswith('numpy.polynomial')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["mle", "beta", "bayes"]),
    n=st.integers(1, 120),
    data=st.data(),
    spec=st.sampled_from(["pow:2", "pow:0.5", "pow:3.7", "linear", "exp:6", "sshape",
                          "affine:0.1,0.8", "float-only"]),
)
def test_one_cell_is_its_grid_entry_bitwise(kind, n, data, spec):
    if kind == "mle":
        G = MLE()
    elif kind == "beta":
        G = BetaEstimation()
    else:
        shape = st.floats(0.2, 6.0, allow_nan=False)
        G = BayesBeta(data.draw(shape), data.draw(shape), 0.0, data.draw(st.floats(0.0, 1.0)))
    # a cost that takes only floats goes through the per-point fallback
    c = (lambda t: min(1.0 + 0.1 - math.exp(-2.0 * t), 1.0)) if spec == "float-only" else parse_cost(spec)
    grid = cost_grid(G, n, c)
    y = data.draw(st.integers(0, n))
    assert np.float64(G.expected_value(n, y / n, c)).tobytes() == grid[y].tobytes()


class TestExpectedCost:
    def test_mle_is_plugin(self, pow4):
        assert MLE().expected_value(2, 0.5, pow4) == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_beta_estimation_interior(self, pow4):
        # Beta(1,1) estimate at n=2, z=1/2: integral of t^4 is 1/5
        assert BetaEstimation().expected_value(2, 0.5, pow4) == pytest.approx(0.2, abs=1e-10)

    def test_point_mass_at_zero(self, pow4):
        for G in (MLE(), BetaEstimation()):
            assert G.expected_value(5, 0.0, pow4) == pytest.approx(pow4(0.0), abs=1e-12)

    def test_invalid_sample_mean(self, pow4):
        with pytest.raises(InvalidSampleMean):
            MLE().expected_value(2, 0.3, pow4)

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

    def test_bayes_rho_zero_grid_ignores_zeta(self):
        # at rho = 0 the aware posterior is the iid one, so zeta must not
        # matter; on this grid 0.3 x + 0.7 x rounds away from x at some cells
        c = parse_cost("pow:2.2577")
        naive = cost_grid(BayesBeta(1.886, 3.435, 0.0, 1.0), 62, c)
        assert np.any(0.3 * naive + 0.7 * naive != naive)
        mixed = cost_grid(BayesBeta(1.886, 3.435, 0.0, 0.3), 62, c)
        assert mixed.tobytes() == naive.tobytes()
        assert naive[5] == beta_expectation(c, *bayes_posterior(1.886, 3.435, 62, 5, "iid"))

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

    @pytest.mark.parametrize("alpha, beta", [
        (math.nan, 1.0), (1.0, math.nan), (0.0, 1.0), (1.0, -2.0), (math.inf, 1.0), (1.0, math.inf),
    ])
    def test_prior_outside_its_region(self, alpha, beta):
        message = f"^Beta prior parameters must be positive and finite, got \\({alpha}, {beta}\\)$"
        with pytest.raises(ModelError, match=message):
            BayesBeta(alpha, beta, 0.0)
        with pytest.raises(ModelError, match=message):
            bayes_posterior(alpha, beta, 3, 1, "iid")


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
        with pytest.raises(InadmissibleCorrelation, match=rf"^rho must be in \[0,1\], got {rho}$"):
            RhoMixture(rho)

    def test_cmb_refuses_nan_nu(self):
        with pytest.raises(InadmissibleCorrelation, match=r"^CMB needs nu in \[-inf, inf\], got nan$"):
            CMB(math.nan)
        for nu in (-math.inf, math.inf):
            assert action_count_pmf(CMB(nu), 3, 0.4).probs.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
    def test_additive_binomial_refuses_non_finite_rho(self, rho):
        with pytest.raises(InadmissibleCorrelation, match=f"^additive binomial needs a finite rho, got {rho}$"):
            AdditiveBinomial(rho)

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

    @pytest.mark.parametrize("rho", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 7, 30, 200])
    def test_rows_on_one_grid_are_the_scalar_kernel(self, n, rho):
        # every node of a 1e-3 scan, 0 and 1 included, against the kernel at one theta
        g = np.array([s_shaped_cost()(y / n) for y in range(n + 1)])
        thetas = np.arange(1001) / 1000
        want = [weighted_bernstein(n, t, rho, g) for t in thetas.tolist()]
        assert weighted_bernstein_rows(n, thetas, rho, g).tolist() == want
        assert weighted_bernstein_rows(n, thetas, rho, np.tile(g, (1001, 1))).tolist() == want


def _plain_binom_pmf(n, theta):
    """The pmf by ``np.exp`` over the whole log-pmf, each term recomputed:
    the bits that both binomial kernels must give."""
    out = np.zeros(n + 1)
    if theta <= 0.0:
        out[0] = 1.0
        return out
    if theta >= 1.0:
        out[n] = 1.0
        return out
    lg = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    y = np.arange(n + 1, dtype=float)
    return np.exp(math.lgamma(n + 1) - lg - lg[::-1] + y * math.log(theta) + (n - y) * math.log1p(-theta))


_EXTREME_THETAS = [5e-324, 1e-300, 1 - 1e-16]


class TestBinomialKernelBits:
    """Both kernels read their terms from the per-n cache and exponentiate in
    place; every cell, underflowing ones included, must keep the bits of the
    plain expression."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.one_of(st.integers(0, 60), st.integers(0, 100_000)),
        theta=st.one_of(st.floats(0.0, 1.0), st.sampled_from(_EXTREME_THETAS + [0.0, 1.0]),
                        st.floats(5e-324, 1e-3), st.floats(0.999, 1.0)),
    )
    @example(n=5000, theta=0.37)
    @example(n=100_000, theta=5e-324)
    @example(n=100_000, theta=1e-300)
    @example(n=100_000, theta=1 - 1e-16)
    @example(n=1, theta=5e-324)
    @example(n=0, theta=0.5)
    def test_scalar_kernel_is_the_plain_exp(self, n, theta):
        assert binom_pmf(n, theta).tobytes() == _plain_binom_pmf(n, theta).tobytes()

    @pytest.mark.parametrize("n", [1, 30, 1000, 100_000])
    @pytest.mark.parametrize("theta", _EXTREME_THETAS)
    def test_scalar_kernel_at_the_extremes(self, n, theta):
        assert binom_pmf(n, theta).tobytes() == _plain_binom_pmf(n, theta).tobytes()

    def test_scalar_kernel_keeps_nan(self):
        assert np.isnan(binom_pmf(7, math.nan)).all()

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 3000),
        thetas=st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(_EXTREME_THETAS + [0.0, 1.0]),
                                  st.floats(0.0, 0.05), st.floats(0.95, 1.0)),
                        min_size=1, max_size=20),
    )
    # a block where about 20% of the cells underflow, one whose ends
    # underflow in under a tenth of the cells, and one where nothing does
    @example(n=1000, thetas=np.linspace(0.0, 0.5, 11)[1:-1].tolist())
    @example(n=1000, thetas=np.linspace(0.3, 0.5, 11)[1:-1].tolist())
    @example(n=200, thetas=np.linspace(0.2, 0.8, 52)[1:-1].tolist())
    @example(n=5000, thetas=_EXTREME_THETAS + [0.37])
    def test_row_kernel_is_the_plain_exp(self, n, thetas):
        want = b"".join(_plain_binom_pmf(n, t).tobytes() for t in thetas)
        assert model._binom_rows(n, np.array(thetas)).tobytes() == want


class TestRowDots:
    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 10_001), n=st.integers(1, 1000), seed=st.integers(0, 2**32 - 1))
    @example(m=10_001, n=1, seed=0)
    @example(m=10_001, n=3, seed=1)
    @example(m=1, n=1000, seed=2)
    @example(m=9, n=1000, seed=3)
    def test_each_entry_is_the_one_row_product(self, m, n, seed):
        m = min(m, 200_000 // (n + 1))  # at most 200 000 cells
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(n + 1), size=m)
        grid, grids = rng.uniform(0.0, 1.0, n + 1), rng.uniform(0.0, 1.0, (m, n + 1))
        assert row_dots(probs, grid).tolist() == [float(p @ grid) for p in probs]
        assert row_dots(probs, grids).tolist() == [float(p @ g) for p, g in zip(probs, grids)]


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
    @given(law=_LAWS, thetas=_THETAS)
    # a two-row block folded by one matrix product rounded the y = 2 cell differently
    @example(law=(BahadurJoint((0.0, 0.5, 0.479764838910263), 0.0), 3), thetas=[0.0, 0.125])
    def test_a_row_does_not_depend_on_its_block(self, law, thetas):
        # the root scans read one residual in blocks and at one theta alike
        dgp, n = law
        try:
            got = count_pmf_grid(dgp, n, thetas)
        except ModelError:
            return
        assert [row.tolist() for row in got] == [count_pmf_grid(dgp, n, [t])[0].tolist() for t in thetas]

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
