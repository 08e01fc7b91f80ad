import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosesi import equilibrium
from cosesi.model import (
    IID,
    MLE,
    BayesBeta,
    BetaEstimation,
    MarkovShock,
    RhoMixture,
    BahadurJoint,
    InteriorRhoUnsupported,
    ModelError,
    UnsupportedN,
    affine_cost,
    exp_decay_cost,
    linear_cost,
    power_cost,
    s_shaped_cost,
    action_count_pmf,
    parse_cost,
    weighted_bernstein,
)
from cosesi.equilibrium import (
    LARGE_N,
    BadWeights,
    cost_grid,
    cosesi_rho1_closed,
    expected_costs,
    enumerate_cosesi,
    solve_assortative,
    solve_bayesian_cosesi,
    solve_cosesi,
    solve_general_cmb,
    solve_heterogeneous,
    solve_ne,
    solve_with_dgp,
    sweep,
    variation_diagnostic,
)
from cosesi.numerics import Tolerance, find_roots, find_sign_changes, solve_bracketed, solve_decreasing

from conftest import (
    ASSORT_LIMIT,
    NE_POW3,
    NE_POW4,
    ROOT_POW4_BETA_RHO0,
    ROOT_POW4_BETA_RHO5,
    ROOT_POW4_MLE_RHO0,
    ROOT_POW4_MLE_RHO5,
    SESI3_POW3,
)


def grid_root_oracle(residual, step=1e-6):
    """Dense-grid sign scan refined by bisection, independent of the solvers."""
    ts = np.arange(0.0, 1.0 + step, step)
    vals = np.array([residual(t) for t in ts])
    roots = list(ts[vals == 0.0])
    sign = np.sign(vals)
    idx = np.nonzero((sign[:-1] * sign[1:]) < 0)[0]
    for i in idx:
        lo, hi = ts[i], ts[i + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if residual(lo) * residual(mid) <= 0:
                hi = mid
            else:
                lo = mid
        roots.append(0.5 * (lo + hi))
    return sorted(roots)


class TestSolveNE:
    def test_linear(self):
        assert solve_ne(linear_cost()).theta == pytest.approx(0.5, abs=1e-10)

    def test_cubic(self, pow3):
        assert solve_ne(pow3).theta == pytest.approx(NE_POW3, abs=1e-9)

    def test_quartic(self, pow4):
        assert solve_ne(pow4).theta == pytest.approx(NE_POW4, abs=1e-9)

    def test_residual_recorded(self, pow3):
        assert solve_ne(pow3).residual <= 1e-9

    @pytest.mark.parametrize("spec", ["linear", "pow:3", "pow:0.4", "exp:2", "sshape"])
    def test_is_the_infinite_sample_sesi_bitwise(self, spec):
        c = parse_cost(spec)
        got = solve_ne(c)
        limit = solve_cosesi(c, MLE(), math.inf, 0.0)
        assert (got.theta, got.residual) == (limit.theta, limit.residual)
        assert got.concept == "NE" and got.params == {"cost": c.name}
        # reference: the hand-written NE residual 1 - theta - c(theta)
        res = lambda t: 1.0 - t - c(t)
        theta = solve_decreasing(res, tol=Tolerance(abs_tol=1e-12, max_iter=300))
        assert (got.theta, got.residual) == (theta, abs(res(theta)))


class TestSolveCosesi:
    def test_pow4_table(self, mle, beta_est, pow4):
        assert solve_cosesi(pow4, mle, 2, 0.0).theta == pytest.approx(ROOT_POW4_MLE_RHO0, abs=1e-9)
        assert solve_cosesi(pow4, beta_est, 2, 0.0).theta == pytest.approx(ROOT_POW4_BETA_RHO0, abs=1e-9)
        assert solve_cosesi(pow4, mle, 2, 0.5).theta == pytest.approx(ROOT_POW4_MLE_RHO5, abs=1e-9)
        assert solve_cosesi(pow4, beta_est, 2, 0.5).theta == pytest.approx(ROOT_POW4_BETA_RHO5, abs=1e-9)

    def test_full_correlation(self, mle, pow4):
        assert solve_cosesi(pow4, mle, 2, 1.0).theta == pytest.approx(0.5, abs=1e-10)

    def test_sesi_three_signals(self, mle, pow3):
        res = solve_cosesi(pow3, mle, 3, 0.0)
        assert res.theta == pytest.approx(SESI3_POW3, abs=1e-9)
        assert res.concept == "SESI"

    def test_uniqueness_single_sign_change(self, mle, pow3):
        # Residual of the equilibrium equation crosses zero exactly once.
        from cosesi.equilibrium import cost_grid
        from cosesi.model import weighted_bernstein

        for rho in (0.0, 0.5, 1.0):
            grid = cost_grid(mle, 4, pow3)
            scan = find_sign_changes(lambda t: 1 - t - weighted_bernstein(4, t, rho, grid), 1e-4)
            assert len(scan.brackets) + len(scan.node_roots) == 1

    def test_linear_cost_equals_ne_for_all_rho_n(self, mle):
        # Psi collapses to c(theta) for unbiased G and linear c.
        for rho in (0.0, 0.25, 0.75, 1.0):
            for n in (1, 3, 7):
                assert solve_cosesi(linear_cost(), mle, n, rho).theta == pytest.approx(0.5, abs=1e-10)

    def test_persistent_bias_at_full_correlation(self, mle, pow3):
        # theta* stays at 1/2 for every n while NE is about 0.682
        for n in (1, 10, 100, 1000):
            assert solve_cosesi(pow3, mle, n, 1.0).theta == pytest.approx(0.5, abs=1e-10)

    def test_large_n_limit_mode(self, mle, pow3):
        # SESI converges to NE under a consistent procedure; the 1e6 proxy
        # switches to the limit form and must land on the NE root.
        assert solve_cosesi(pow3, mle, 10**6, 0.0).theta == pytest.approx(NE_POW3, abs=1e-9)

    def test_invalid_rho(self, mle, pow3):
        with pytest.raises(ValueError):
            solve_cosesi(pow3, mle, 2, 1.5)

    @pytest.mark.parametrize("n", [0, -3, 2.5])
    @pytest.mark.parametrize("rho", [0.3, 1.0])
    def test_sample_size_must_be_a_positive_integer(self, mle, pow3, n, rho):
        # 2.5 used to solve at n = 2, -3 to index an empty grid, 0 to divide by zero
        with pytest.raises(UnsupportedN, match=f"n must be a positive integer, got {n:g}"):
            solve_cosesi(pow3, mle, n, rho)
        with pytest.raises(UnsupportedN, match="n must be a positive integer"):
            cost_grid(mle, n, pow3)


class TestClosedFormRhoOne:
    def test_power_costs_give_half(self, mle):
        for d in (1, 2, 4, 9):
            for n in (1, 3, 8):
                assert cosesi_rho1_closed(power_cost(d), mle, n).theta == pytest.approx(0.5, abs=1e-12)

    def test_agrees_with_bisection(self, beta_est, pow4):
        for n in (2, 4, 6):
            closed = cosesi_rho1_closed(pow4, beta_est, n).theta
            grid = cost_grid(beta_est, n, pow4)
            iterated = solve_decreasing(lambda t: 1.0 - t - weighted_bernstein(n, t, 1.0, grid))
            assert closed == pytest.approx(iterated, abs=1e-9)

    def test_solve_cosesi_builds_only_the_polarized_cells(self, pow3, monkeypatch):
        # the rho = 1 Bayes procedure with zeta < 1 has no interior cell, and
        # the rho = 1 equation needs none
        G = BayesBeta(1.0, 1.0, 1.0, 0.5)
        calls = []
        monkeypatch.setattr(equilibrium, "cost_grid", _counting(calls, equilibrium.cost_grid))
        got = solve_cosesi(pow3, G, 3, 1.0)
        closed = cosesi_rho1_closed(pow3, G, 3)
        assert calls == []
        assert (got.theta, got.residual) == (closed.theta, closed.residual)
        assert got.concept == "CoSESI" and got.params["rho"] == 1.0

    @pytest.mark.parametrize("spec", ["pow:3", "sshape", "affine:0.2,0.5"])
    def test_infinite_n(self, spec):
        c = parse_cost(spec)
        got = solve_cosesi(c, MLE(), math.inf, 1.0)
        c0, c1 = c(0.0), c(1.0)
        assert got.theta == (1.0 - c0) / (1.0 - c0 + c1)
        assert got.theta == solve_cosesi(c, MLE(), 10**6, 1.0).theta
        assert got.residual <= 1e-15

    def test_direct_substitution(self, mle, pow2):
        # C_{2,0} = 0 and C_{2,1} = 1 give (1-0)/(1-0+1) = 1/2
        assert cosesi_rho1_closed(pow2, mle, 2).theta == pytest.approx(0.5, abs=1e-14)

    def test_prop4_gap_shrinks_with_n(self, pow3):
        # Bayesian endpoint costs converge to c(0), c(1), so the closed form
        # approaches the consistent-limit value (1-c(0))/(1-c(0)+c(1)); the
        # gap decays like 3/(4n) for the uniform prior and cubic cost.
        G = BayesBeta(1.0, 1.0, 0.0, 1.0)
        limit = (1 - pow3(0.0)) / (1 - pow3(0.0) + pow3(1.0))
        gaps = [abs(cosesi_rho1_closed(pow3, G, n).theta - limit) for n in (1, 4, 16, 64, 256)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 5e-3


class TestEnumerate:
    def test_full_correlation_unique_between_ne(self):
        # Asymmetric S-curve whose middle diagonal crossing lies in the
        # concave region, so the single rho=1 root (the chord fixed point
        # c(0)/(1 + c(0) - c(1))) sits strictly between the smallest and
        # second-largest NE.
        c = s_shaped_cost(0.02, 0.85, 25.0, 0.35)
        res = enumerate_cosesi(c, 12, 1.0)
        assert len(res.roots) == 1
        assert res.roots[0] == pytest.approx(c(0.0) / (1.0 + c(0.0) - c(1.0)), abs=1e-9)
        nes = grid_root_oracle(lambda t: t - c(t), 1e-4)
        assert len(nes) == 3
        assert nes[0] < res.roots[0] < nes[1]

    def test_multiplicity_at_low_correlation(self):
        c = s_shaped_cost()
        res = enumerate_cosesi(c, 40, 0.0)
        assert 1 <= len(res.roots) <= 3
        oracle = grid_root_oracle(
            lambda t: t - sum(
                math.comb(40, y) * t**y * (1 - t) ** (40 - y) * c(y / 40) for y in range(41)
            ),
            1e-4,
        )
        assert len(res.roots) == len(oracle)
        for got, want in zip(res.roots, oracle):
            assert got == pytest.approx(want, abs=1e-6)

    def test_count_weakly_decreasing_in_rho(self):
        c = s_shaped_cost()
        n0 = len(enumerate_cosesi(c, 40, 0.0).roots)
        n1 = len(enumerate_cosesi(c, 40, 1.0).roots)
        assert n1 == 1 <= n0


class TestVariationDiagnostic:
    def test_convex(self, pow2):
        d = variation_diagnostic(pow2, 5)
        assert d.delta_1 > 0 and d.delta_nminus1 > 0 and d.unique_guaranteed

    def test_concave(self):
        d = variation_diagnostic(power_cost(0.5), 5)
        assert d.delta_1 < 0 and d.delta_nminus1 < 0 and d.unique_guaranteed

    def test_certificate_implies_unique_root(self):
        # 50 random increasing benefit curves with interior endpoints
        rs = np.random.default_rng(5)
        checked = 0
        for _ in range(50):
            lo = rs.uniform(0.02, 0.25)
            hi = rs.uniform(0.7, 0.98)
            k = rs.uniform(2.0, 25.0)
            m = rs.uniform(0.25, 0.75)
            c = s_shaped_cost(lo, hi, k, m)
            n = int(rs.integers(2, 7))
            rho = rs.uniform(0.0, 0.99)
            if variation_diagnostic(c, n).unique_guaranteed:
                checked += 1
                assert len(enumerate_cosesi(c, n, rho).roots) == 1
        assert checked > 5


class TestAssortative:
    def test_zero_correlation_is_sesi(self, mle, pow3):
        got = solve_assortative(pow3, mle, 3, lambda eta: 0.0).theta
        assert got == pytest.approx(solve_cosesi(pow3, mle, 3, 0.0).theta, abs=1e-9)

    def test_single_signal_linear_cost(self, mle):
        assert solve_assortative(linear_cost(), mle, 1, lambda eta: eta).theta == pytest.approx(
            0.5, abs=1e-10
        )

    def test_closed_form_small_n(self, mle):
        for n in (2, 5, 17):
            target = (5 - 1 / n - math.sqrt(1 / n**2 - 2 / n + 17)) / (2 * (1 - 1 / n))
            got = solve_assortative(linear_cost(), mle, n, lambda eta: eta).theta
            assert got == pytest.approx(target, abs=1e-9)

    def test_infinite_sample_limit(self, mle):
        got = solve_assortative(linear_cost(), mle, 10**6, lambda eta: eta).theta
        assert got == pytest.approx(ASSORT_LIMIT, abs=1e-3)


class TestBayesianCosesi:
    def test_rho_zero_is_bayes_sesi_for_any_zeta(self, pow2):
        thetas = [solve_bayesian_cosesi(pow2, (1.0, 1.0), 2, 0.0, z).theta for z in (0.0, 0.4, 1.0)]
        assert max(thetas) - min(thetas) <= 1e-10

    def test_zeta_one_collapses_to_naive_mixture(self, pow2):
        # full neglect: equals the rho=1 CoSESI under the iid Bayes posterior costs
        naive = BayesBeta(1.0, 1.0, 0.0, 1.0)
        want = solve_cosesi(pow2, naive, 2, 1.0).theta
        got = solve_bayesian_cosesi(pow2, (1.0, 1.0), 2, 1.0, 1.0).theta
        assert got == pytest.approx(want, abs=1e-9)

    def test_interior_rho_rejected(self, pow2):
        with pytest.raises(InteriorRhoUnsupported):
            solve_bayesian_cosesi(pow2, (1.0, 1.0), 2, 0.5, 0.5)

    @pytest.mark.parametrize("zeta", [-0.1, 1.5])
    def test_zeta_is_checked_by_the_procedure(self, pow2, zeta):
        with pytest.raises(ModelError, match="zeta must be in"):
            solve_bayesian_cosesi(pow2, (1.0, 1.0), 2, 1.0, zeta)

    def test_partial_neglect_at_full_correlation_has_no_infinite_limit(self, pow3):
        # the aware posterior Beta(alpha + z, beta + 1 - z) does not depend on n,
        # so the roots do not tend to the MLE limit 0.5: n = inf is refused
        G = BayesBeta(1.0, 1.0, 1.0, 0.5)
        for solve in (lambda: solve_cosesi(pow3, G, math.inf, 1.0),
                      lambda: cosesi_rho1_closed(pow3, G, math.inf),
                      lambda: expected_costs(G, math.inf, pow3)):
            with pytest.raises(UnsupportedN, match="n must be finite"):
                solve()
        assert solve_cosesi(pow3, G, 100_000, 1.0).theta == pytest.approx(0.57576, abs=1e-5)
        ends = (G.expected_cost(10, 0.0, pow3), G.expected_cost(10, 1.0, pow3))
        assert cosesi_rho1_closed(pow3, G, 10).theta == (1.0 - ends[0]) / (1.0 - ends[0] + ends[1])
        # the procedures whose posteriors concentrate keep the limit
        for G in (BayesBeta(1.0, 1.0, 1.0, 1.0), BayesBeta(2.0, 1.0, 0.0, 0.5)):
            assert solve_cosesi(pow3, G, math.inf, 1.0).theta == 0.5

    def test_zeta_direction_depends_on_prior(self, pow2):
        # theta*(zeta) is a Moebius function of zeta at rho = 1, hence monotone
        # pointwise; the non-monotonicity claim is that its direction flips
        # with the parameterization.  Grid search at 1e-3 confirms both signs.
        def gap(a, b):
            zs = np.arange(0.0, 1.0 + 1e-3, 1e-3)
            vals = [solve_bayesian_cosesi(pow2, (a, b), 2, 1.0, 0.0).theta,
                    solve_bayesian_cosesi(pow2, (a, b), 2, 1.0, 1.0).theta]
            # closed form is monotone, endpoints determine direction
            return vals[1] - vals[0]

        assert gap(0.5, 0.2) > 1e-4   # increasing in zeta
        assert gap(0.2, 0.2) < -1e-4  # decreasing in zeta

    @pytest.mark.parametrize("spec, prior, n, zeta", [
        ("pow:2", (1.0, 1.0), 2, 0.5),
        ("exp:3", (2.0, 3.0), 10, 0.9),
        ("pow:3.7", (0.4, 2.5), 37, 0.13),
        ("linear", (5.0, 0.6), 1, 0.0),
        ("sshape", (1.3, 1.3), 120, 1.0),
    ])
    def test_rho_one_is_the_closed_form(self, spec, prior, n, zeta):
        c = parse_cost(spec)
        got = solve_bayesian_cosesi(c, prior, n, 1.0, zeta)
        closed = cosesi_rho1_closed(c, BayesBeta(*prior, 1.0, zeta), n)
        assert (got.theta, got.residual) == (closed.theta, closed.residual)
        assert got.concept == "BayesianCoSESI" and got.params["zeta"] == zeta
        # reference: the zeta-mixed polarized equation, solved iteratively
        naive = BayesBeta(*prior, 0.0)
        aware = BayesBeta(*prior, 1.0, 0.0)
        c0 = (naive.expected_cost(n, 0.0, c), naive.expected_cost(n, 1.0, c))
        c1 = (aware.expected_cost(n, 0.0, c), aware.expected_cost(n, 1.0, c))

        def res(t):
            mixed = zeta * (t * c0[1] + (1.0 - t) * c0[0]) + (1.0 - zeta) * (
                t * c1[1] + (1.0 - t) * c1[0]
            )
            return 1.0 - t - mixed

        iterative = solve_decreasing(res, tol=Tolerance(abs_tol=1e-15, max_iter=300))
        assert abs(got.theta - iterative) <= 1e-12

    @pytest.mark.parametrize("rho", [0.0, 1.0])
    @pytest.mark.parametrize("zeta", [0.0, 0.3, 1.0])
    def test_is_solve_cosesi_under_bayes_beta(self, rho, zeta):
        c = parse_cost("pow:2.5")
        got = solve_bayesian_cosesi(c, (1.5, 0.8), 4, rho, zeta)
        want = solve_cosesi(c, BayesBeta(1.5, 0.8, rho, zeta), 4, rho)
        assert (got.theta, got.residual) == (want.theta, want.residual)

    def test_monotone_in_zeta_pointwise(self, pow2):
        vals = [solve_bayesian_cosesi(pow2, (0.2, 0.2), 2, 1.0, z).theta for z in np.linspace(0, 1, 11)]
        diffs = np.diff(vals)
        assert (diffs <= 1e-12).all() or (diffs >= -1e-12).all()


class TestHeterogeneous:
    def test_single_group_reduces(self, mle, pow4):
        got = solve_heterogeneous([(1.0, mle, 2)], pow4, 0.5).theta
        assert got == pytest.approx(solve_cosesi(pow4, mle, 2, 0.5).theta, abs=1e-10)

    def test_duplicate_groups_degenerate(self, mle, pow4):
        got = solve_heterogeneous([(0.5, mle, 3), (0.5, mle, 3)], pow4, 0.25).theta
        assert got == pytest.approx(solve_cosesi(pow4, mle, 3, 0.25).theta, abs=1e-10)

    def test_mixture_sandwiched_by_pure_equilibria(self, mle, pow4):
        mix = solve_heterogeneous([(0.5, mle, 2), (0.5, mle, 5)], pow4, 0.0).theta
        lo = solve_cosesi(pow4, mle, 2, 0.0).theta
        hi = solve_cosesi(pow4, mle, 5, 0.0).theta
        assert min(lo, hi) < mix < max(lo, hi)

    def test_bad_weights(self, mle, pow4):
        with pytest.raises(BadWeights):
            solve_heterogeneous([(0.6, mle, 2), (0.6, mle, 3)], pow4, 0.0)

    @pytest.mark.parametrize("n", [2, 200_000])
    def test_single_group_equals_cosesi_exactly(self, mle, pow3, n):
        # both solvers read the costs through expected_costs, so the limit
        # switch at n > LARGE_N is the same and the roots agree bit for bit
        got = solve_heterogeneous([(1.0, mle, n)], pow3, 0.3).theta
        assert got == solve_cosesi(pow3, mle, n, 0.3).theta

    def test_weights_within_tolerance_clamp_at_zero(self, mle):
        # weights pass the 1e-9 sum check; with c = 1 the residual is
        # -5e-10 at theta = 0 and negative everywhere, so the clamped root is 0
        got = solve_heterogeneous([(0.5 + 5e-10, mle, 2), (0.5, mle, 2)], affine_cost(1.0, 0.0), 0.3)
        assert got.theta == 0.0


class TestExpectedCosts:
    @pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
    def test_limit_psi_equals_hand_written_mixture(self, mle, pow3, rho):
        costs = expected_costs(mle, 200_000, pow3)
        assert math.isinf(costs.n)
        c0, c1 = pow3(0.0), pow3(1.0)
        for t in (0.0, 1e-9, 0.23, 0.5, 0.81, 1.0):
            assert costs.psi(t, rho) == (1.0 - rho) * pow3(t) + rho * (t * c1 + (1.0 - t) * c0)

    @pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
    def test_grid_psi_equals_weighted_bernstein(self, beta_est, pow3, rho):
        costs = expected_costs(beta_est, 5, pow3)
        grid = cost_grid(beta_est, 5, pow3)
        assert costs.values.tobytes() == grid.tobytes()
        for t in (0.0, 0.23, 0.5, 1.0):
            assert costs.psi(t, rho) == weighted_bernstein(5, t, rho, grid)

    def test_map_on_grid_is_bitwise_elementwise(self, mle):
        grid = cost_grid(mle, 7, exp_decay_cost(6.0))
        costs = expected_costs(mle, 7, exp_decay_cost(6.0))
        for p in (0.0, 0.137, 0.5, 1.0):
            got = costs.map(lambda v: min(1.0 + p - v, 1.0)).values
            assert got.tobytes() == np.minimum(1.0 + p - grid, 1.0).tobytes()

    def test_map_on_grid_keeps_ends(self, beta_est, pow3):
        costs = expected_costs(beta_est, 5, pow3).map(lambda v: 1.0 - 2.0 * v)
        assert costs.ends == (float(costs.values[0]), float(costs.values[-1]))
        assert costs.ends == (1.0 - 2.0 * pow3(0.0), 1.0 - 2.0 * pow3(1.0))

    def test_map_in_limit_composes(self, mle, pow3):
        costs = expected_costs(mle, math.inf, pow3).map(lambda v: 2.0 * v)
        assert costs.psi(0.4, 0.0) == 2.0 * pow3(0.4)

    def test_float_sample_size_is_stored_as_int(self, mle, pow3):
        costs = expected_costs(mle, 4.0, pow3)
        assert costs.n == 4 and isinstance(costs.n, int)
        assert costs.psi(0.3, 0.5) == expected_costs(mle, 4, pow3).psi(0.3, 0.5)

    def test_limit_switch_only_above_large_n_for_mle(self, mle, beta_est, pow3):
        assert expected_costs(mle, LARGE_N, pow3).n == LARGE_N
        assert math.isinf(expected_costs(mle, LARGE_N + 1, pow3).n)
        assert math.isinf(expected_costs(beta_est, math.inf, pow3).n)


class TestGeneralCMB:
    def test_nu_one_reproduces_sesi(self, mle, pow2):
        got = solve_general_cmb(pow2, mle, 4, 1.0)
        assert len(got.roots) == 1
        assert got.roots[0] == pytest.approx(solve_cosesi(pow2, mle, 4, 0.0).theta, abs=1e-9)

    def test_negative_infinity_matches_full_correlation_for_power_cost(self, mle, pow2):
        # power costs have C_{n,0} + C_{n,1} = 1, making the extreme
        # positive-dependence root coincide with the rho = 1 value 1/2
        got = solve_general_cmb(pow2, mle, 3, -math.inf)
        assert got.roots[0] == pytest.approx(solve_cosesi(pow2, mle, 3, 1.0).theta, abs=1e-9)

    def test_root_matches_grid_oracle(self, mle, pow2):
        from cosesi.model import action_count_pmf, CMB
        from cosesi.equilibrium import cost_grid

        grid = cost_grid(mle, 4, pow2)
        oracle = grid_root_oracle(
            lambda t: 1 - t - float(action_count_pmf(CMB(3.0), 4, t).probs @ grid), 1e-4
        )
        got = solve_general_cmb(pow2, mle, 4, 3.0)
        assert len(got.roots) == len(oracle)
        assert got.roots[0] == pytest.approx(oracle[0], abs=1e-6)


class TestGeneralDGPSolver:
    def test_balance_holding_joint_reproduces_sesi(self, mle, pow3):
        # A theta-indexed family of dependent signals whose count stays
        # binomial (the balance equations hold at every theta): the general
        # equilibrium must coincide with the SESI to 1e-9.
        from cosesi.sampling import balance_check, joint_from_conditionals
        from cosesi.equilibrium import cost_grid
        from cosesi.numerics import Bracket, solve_bracketed, Tolerance

        def joint_for(theta):
            s1 = theta
            a = 0.1 * theta * (1 - theta)  # dependence amplitude
            s2 = theta - a
            s3 = theta + a * theta / (1 - theta)
            s4 = theta**2 / (theta - a)  # pins P(111) = theta^3
            s5 = theta
            s6 = (3 * theta**2 * (1 - theta) - s1 * s2 * (1 - s4) - s1 * (1 - s2) * s5) / (
                (1 - s1) * s3
            )
            s7 = 1 - (1 - theta) ** 3 / ((1 - s1) * (1 - s3))
            return joint_from_conditionals(s1, s2, s3, s4, s5, s6, s7)

        for theta in (0.2, 0.5, 0.8):
            joint = joint_for(theta)
            assert balance_check(joint, theta).holds
            # signals are genuinely dependent: P(x2=1|x1=1) != theta
            assert abs((theta - 0.1 * theta * (1 - theta)) - theta) > 1e-3

        grid = cost_grid(mle, 3, pow3)

        def res(t):
            return 1 - t - float(joint_for(t).count_pmf().probs @ grid)

        root = solve_bracketed(res, Bracket(0.05, 0.9, res(0.05), res(0.9)), Tolerance(1e-12))
        assert root == pytest.approx(solve_cosesi(pow3, mle, 3, 0.0).theta, abs=1e-9)

    def test_bahadur_family_infeasible_near_boundary(self, mle, pow3):
        # fixed pairwise correlations of mixed sign stop being admissible as
        # theta approaches the boundary; the pmf constructor must say so
        from cosesi.model import InadmissibleCorrelation, action_count_pmf

        dgp = BahadurJoint(r2=(0.05, 0.05, -0.1), r3=0.0)
        action_count_pmf(dgp, 3, 0.5)  # fine in the interior
        with pytest.raises(InadmissibleCorrelation):
            action_count_pmf(dgp, 3, 0.001)

    def test_rho_mixture_agrees_with_dedicated_solver(self, mle, pow4):
        got = solve_with_dgp(pow4, mle, 2, RhoMixture(0.5))
        assert got.roots[0] == pytest.approx(solve_cosesi(pow4, mle, 2, 0.5).theta, abs=1e-9)

    @pytest.mark.parametrize("law", [IID(), RhoMixture(0.3), MarkovShock(0.2, 0.6)])
    def test_mixture_laws_build_no_pmf(self, mle, pow3, law, monkeypatch):
        def no_pmf(*args):
            raise AssertionError("mixture laws are evaluated by weighted_bernstein")

        monkeypatch.setattr(equilibrium, "action_count_pmf", no_pmf)
        got = solve_with_dgp(pow3, mle, 3, law)
        assert got.roots[0] == pytest.approx(solve_cosesi(pow3, mle, 3, law.rho).theta, abs=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(
        c=st.one_of(
            st.floats(0.3, 6.0).map(power_cost),
            st.just(linear_cost()),
            st.tuples(st.floats(0.0, 0.4), st.floats(0.0, 0.6)).map(lambda p: affine_cost(*p)),
            st.tuples(st.floats(0.01, 0.3), st.floats(0.7, 0.99), st.floats(8.0, 30.0),
                      st.floats(0.3, 0.7)).map(lambda p: s_shaped_cost(*p)),
        ),
        n=st.integers(1, 30),
        law=st.one_of(
            st.just(IID()),
            st.floats(0.0, 1.0).map(RhoMixture),
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
            .filter(lambda pq: pq[0] + pq[1] > 0.0).map(lambda pq: MarkovShock(*pq)),
        ),
    )
    def test_mixture_laws_match_the_pmf_scan(self, c, n, law):
        # reference: the scan of the pmf-weighted residual that the kernel replaced
        grid = cost_grid(MLE(), n, c)
        ref = find_roots(
            lambda t: 1.0 - t - float(action_count_pmf(law, n, t).probs @ grid),
            1e-4, Tolerance(abs_tol=1e-12, max_iter=300),
        )
        got = solve_with_dgp(c, MLE(), n, law).roots
        assert len(got) == len(ref)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(got, ref))


class TestComparativeStatics:
    def test_prop2_cosesi_below_ne(self, mle, beta_est, pow2):
        ne = solve_ne(pow2).theta
        for G in (mle, beta_est):
            for n in range(1, 9):
                for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
                    assert solve_cosesi(pow2, G, n, rho).theta <= ne + 1e-10

    def test_prop3_rho_monotone_large_n(self, mle, pow2):
        table = sweep("rho", [0.0, 0.25, 0.5, 0.75, 1.0], pow2, mle, n=10**4)
        thetas = table.thetas()
        assert all(b <= a + 1e-10 for a, b in zip(thetas, thetas[1:]))

    def test_prop5_n_monotone(self, mle, pow2):
        for rho in (0.0, 0.5, 1.0):
            table = sweep("n", list(range(1, 9)), pow2, mle, rho=rho)
            thetas = table.thetas()
            assert all(b >= a - 1e-10 for a, b in zip(thetas, thetas[1:]))

    def test_prop6_dispersion_ranking_and_vanishing_gap(self, mle, beta_est, pow2):
        gaps = []
        for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
            disp = solve_cosesi(pow2, beta_est, 3, rho).theta
            tight = solve_cosesi(pow2, mle, 3, rho).theta
            assert disp <= tight + 1e-10
            gaps.append(tight - disp)
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] == pytest.approx(0.0, abs=1e-9)

    def test_example4_rho_ranking(self, mle, pow3):
        table = sweep("rho", [0.0, 0.5, 0.75, 1.0], pow3, mle, n=3)
        thetas = table.thetas()
        assert len(set(round(t, 6) for t in thetas)) == 4
        assert all(b < a for a, b in zip(thetas, thetas[1:]))


def _counting(calls, fn):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return wrapper


class TestComputedOnce:
    def test_sweep_rho_builds_one_grid(self, beta_est, pow3, monkeypatch):
        values = [0.0, 0.1, 0.5, 0.9, 1.0]
        want = tuple((v, solve_cosesi(pow3, beta_est, 20, v).theta) for v in values)
        calls = []
        monkeypatch.setattr(equilibrium, "cost_grid", _counting(calls, equilibrium.cost_grid))
        table = sweep("rho", values, pow3, beta_est, n=20)
        assert len(calls) == 1
        assert table.rows == want

    def test_sweep_rho_outside_unit_interval_raises_before_solving(self, mle, pow3, monkeypatch):
        calls = []
        monkeypatch.setattr(equilibrium, "cost_grid", _counting(calls, equilibrium.cost_grid))
        with pytest.raises(ValueError, match="rho must be in"):
            sweep("rho", [0.5, 1.5], pow3, mle, n=3)
        assert calls == []

    @pytest.mark.parametrize("bad", [2.5, 0, -3, math.inf, math.nan])
    def test_sweep_n_rejects_a_non_integer_before_solving(self, mle, pow3, monkeypatch, bad):
        calls = []
        monkeypatch.setattr(equilibrium, "cost_grid", _counting(calls, equilibrium.cost_grid))
        with pytest.raises(ValueError, match=f"positive integer, got {bad:g}"):
            sweep("n", [3, bad], pow3, mle)
        assert calls == []

    def test_limit_endpoints_evaluated_once(self, mle):
        calls = []
        cost = _counting(calls, lambda t: t**3)
        costs = expected_costs(mle, math.inf, cost)
        doubled = costs.map(lambda v: 2.0 * v)
        for t in (0.2, 0.5, 0.8):
            for rho in (0.0, 0.3, 1.0):
                assert doubled.psi(t, rho) == 2.0 * costs.psi(t, rho)
        assert calls.count((0.0,)) == 1 and calls.count((1.0,)) == 1
        assert doubled.ends == (0.0, 2.0)

    def test_assortative_limit_one_quadrature_per_residual(self, monkeypatch):
        rho_fn = lambda eta: eta**1.5
        want = solve_assortative(linear_cost(), MLE(), 200_000, rho_fn)
        evals, quads = [], []
        real_solve = equilibrium.solve_decreasing
        monkeypatch.setattr(equilibrium, "integrate", _counting(quads, equilibrium.integrate))
        monkeypatch.setattr(
            equilibrium, "solve_decreasing",
            lambda f, *a, **k: real_solve(_counting(evals, f), *a, **k),
        )
        got = solve_assortative(linear_cost(), MLE(), 200_000, rho_fn)
        assert got.theta == want.theta
        # one quadrature per residual, one for the reported residual, two endpoints
        assert len(quads) <= len(evals) + 3


class TestQuadratureDepth:
    """Endpoint cusps that exhausted the old 60-level quadrature cap now solve."""

    @pytest.mark.parametrize("spec, G, n, rho", [
        ("exp:3.8", BayesBeta(1.25, 0.93, 0.0, 0.42), 2, 0.08),
        ("exp:4.67", BayesBeta(1.24, 1.66, 0.0, 0.97), 7, 0.0),
    ])
    def test_bayes_prior_shape_just_above_one(self, spec, G, n, rho):
        c = parse_cost(spec)
        got = solve_cosesi(c, G, n, rho).theta
        grid = cost_grid(G, n, c)
        law = RhoMixture(rho)
        assert abs(1.0 - got - float(action_count_pmf(law, n, got).probs @ grid)) <= 1e-9

    def test_assortative_root_cusp(self):
        c, G, n = power_cost(3), BetaEstimation(), 6
        got = solve_assortative(c, G, n, lambda e: e**0.5).theta
        grid = cost_grid(G, n, c)
        lam = np.array([(1.0 - min(1.0, max(v, 0.0)) ** 1.5) / 1.5 for v in grid])
        b = action_count_pmf(IID(), n, got).probs
        resid = 1.0 - got - (float(b @ grid) + float(b @ lam) - (got * lam[-1] + (1.0 - got) * lam[0]))
        assert abs(resid) <= 1e-9
