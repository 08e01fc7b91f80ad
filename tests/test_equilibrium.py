import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cosesi import equilibrium, numerics
from cosesi.model import (
    CMB,
    IID,
    AdditiveBinomial,
    Sequential,
    MLE,
    BayesBeta,
    BetaEstimation,
    MarkovShock,
    RhoMixture,
    BahadurJoint,
    InadmissibleCorrelation,
    InteriorRhoUnsupported,
    ModelError,
    UnsupportedN,
    affine_cost,
    exp_decay_cost,
    linear_cost,
    power_cost,
    s_shaped_cost,
    action_count_pmf,
    bernstein_residual,
    count_pmf_grid,
    parse_cost,
    row_dots,
    weighted_bernstein,
    weighted_bernstein_rows,
    weighted_limit,
)
from cosesi.equilibrium import (
    LARGE_N,
    BadWeights,
    ContinuumOfEquilibria,
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
from cosesi.numerics import (
    DomainError,
    NoSignChange,
    RootInterval,
    Tolerance,
    find_roots,
    SOLVE_TOL,
    find_sign_changes,
    scan_cells,
    solve_bracketed,
    solve_decreasing,
    solve_decreasing_rows,
)

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
        theta = solve_decreasing(res)
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
            scan = find_sign_changes(_nodewise(lambda t: 1 - t - weighted_bernstein(4, t, rho, grid)), 1e-4)
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

    @pytest.mark.parametrize("call", [
        lambda c, G: RhoMixture(1.5),
        lambda c, G: solve_cosesi(c, G, 2, 1.5),
        lambda c, G: solve_cosesi(c, G, math.inf, 1.5),
        lambda c, G: sweep("rho", [0.5, 1.5], c, G, n=2),
        lambda c, G: enumerate_cosesi(s_shaped_cost(), 12, 1.5),
        lambda c, G: enumerate_cosesi(s_shaped_cost(), math.inf, 1.5),
    ])
    def test_one_rho_check(self, call, mle, pow3):
        # the law, the solvers and the kernels share one range test, its error and its text
        with pytest.raises(InadmissibleCorrelation, match=r"^rho must be in \[0,1\], got 1.5$"):
            call(pow3, mle)

    @pytest.mark.parametrize("n", [0, -3, 2.5])
    @pytest.mark.parametrize("rho", [0.3, 1.0])
    def test_sample_size_must_be_a_positive_integer(self, mle, pow3, n, rho):
        # 2.5 used to solve at n = 2, -3 to index an empty grid, 0 to divide by zero
        with pytest.raises(UnsupportedN, match=f"n must be a positive integer, got {n:g}"):
            solve_cosesi(pow3, mle, n, rho)
        with pytest.raises(UnsupportedN, match="n must be a positive integer"):
            cost_grid(mle, n, pow3)

    @pytest.mark.parametrize("G", [MLE(), BetaEstimation()])
    def test_integral_float_n_solves_as_the_integer(self, G, pow3):
        # solve_with_dgp(pow3, MLE(), 4.0, CMB(2.0)) used to raise TypeError from the block size
        same = lambda call: (lambda a, b: a == b and type(a.params.get("n")) is int)(call(4.0), call(4))
        assert same(lambda n: solve_with_dgp(pow3, G, n, CMB(2.0)))
        assert same(lambda n: solve_with_dgp(pow3, G, n, RhoMixture(0.3)))
        assert same(lambda n: solve_general_cmb(pow3, G, n, 2.0))
        assert enumerate_cosesi(s_shaped_cost(), 12.0, 0.3).roots == enumerate_cosesi(s_shaped_cost(), 12, 0.3).roots
        assert solve_cosesi(pow3, G, 4.0, 0.3).theta == solve_cosesi(pow3, G, 4, 0.3).theta
        assert cosesi_rho1_closed(pow3, G, 4.0).theta == cosesi_rho1_closed(pow3, G, 4).theta
        assert (cost_grid(G, 4.0, pow3) == cost_grid(G, 4, pow3)).all()
        assert expected_costs(G, 4.0, pow3).n == 4
        assert sweep("n", [4.0], pow3, G, rho=0.3).thetas() == sweep("n", [4], pow3, G, rho=0.3).thetas()


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

    @pytest.mark.parametrize("G", [MLE(), BetaEstimation(), BayesBeta(1.5, 2.7, 1.0, 0.3),
                                   BayesBeta(1.5, 2.7, 0.0, 1.0), BayesBeta(0.7, 0.9, 1.0, 1.0)])
    def test_ends_are_the_one_cell_values(self, G):
        # both end cells come from one expected_cells call, == the two one-cell values
        for spec in ("pow:2.6", "exp:4.5", "linear", "sshape", "pow:0.3", "affine:0.2,0.5"):
            c = parse_cost(spec)
            for n in (1, 2, 3, 10, 57, 200):
                c0, c1 = G.expected_value(n, 0.0, c), G.expected_value(n, 1.0, c)
                theta = (1.0 - c0) / (1.0 - c0 + c1)
                got = cosesi_rho1_closed(c, G, n)
                assert (got.theta, got.residual) == (theta, abs(1.0 - theta - (theta * c1 + (1.0 - theta) * c0)))

    @pytest.mark.parametrize("G", [MLE(), BetaEstimation()])
    def test_continuum_raises(self, G):
        # C_{n,0} = 1 and C_{n,1} = 0: 1 - theta = theta C_{n,1} + (1 - theta) C_{n,0} at every theta
        c = affine_cost(1.0, -1.0)
        for solve in (lambda: solve_cosesi(c, G, 3, 1.0), lambda: cosesi_rho1_closed(c, G, 3),
                      lambda: sweep("rho", [0.5, 1.0], c, G, n=3)):
            with pytest.raises(ContinuumOfEquilibria, match="^a continuum of equilibria: every theta in"):
                solve()

    def test_constant_residual_without_a_root_raises(self, mle):
        # C_{3,0} = 1 + 2^-40 and C_{3,1} = 2^-40: 1 - C_{3,0} + C_{3,1} = 0, and the
        # residual is the constant -2^-40, where the closed form divided by zero
        c = affine_cost(1.0000000000009095, -1.0)
        for solve in (lambda: solve_cosesi(c, mle, 3, 1.0), lambda: cosesi_rho1_closed(c, mle, 3)):
            with pytest.raises(NoSignChange, match=r"^no equilibrium at rho = 1: .* = -9\.094947017729282e-13$"):
                solve()

    def test_lockstep_continuum_raises(self, mle, pow3):
        # C_{3,0} = 0 and C_{3,1} = 1 mapped by q (1 - v): the row q = 1 has ends 1 and 0,
        # where the lockstep closed form divided 0 by 0 and returned nan
        costs = expected_costs(mle, 3, pow3)
        f = lambda v, q: q * (1.0 - v)
        with pytest.raises(ContinuumOfEquilibria, match=r"^a continuum of equilibria: every theta in \[0,1\] solves$"):
            equilibrium._cosesi_roots(costs, 1.0, f, np.array([0.5, 1.0, 0.7]))
        with pytest.raises(ContinuumOfEquilibria, match=r"^a continuum of equilibria: every theta in \[0,1\] solves$"):
            equilibrium._cosesi_root(costs.map(lambda v: f(v, 1.0)), 1.0)

    def test_lockstep_constant_residual_raises_at_its_first_row(self, mle):
        # rows 1 and 2 have the ends of test_constant_residual_without_a_root_raises;
        # the message names row 1's constant, as the one-row root of that row does
        costs = expected_costs(mle, 3, affine_cost(1.0000000000009095, -1.0))
        f = lambda v, q: q * v
        message = r"^no equilibrium at rho = 1: the residual is the constant 1 - C_n,0 = -9\.094947017729282e-13$"
        with pytest.raises(NoSignChange, match=message):
            equilibrium._cosesi_roots(costs, 1.0, f, np.array([0.5, 1.0, 1.0]))
        with pytest.raises(NoSignChange, match=message):
            equilibrium._cosesi_root(costs.map(lambda v: f(v, 1.0)), 1.0)

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

    @pytest.mark.parametrize("c, n, rho", [
        (power_cost(3.0), 5, 1.0),  # theta - (theta c(1) + (1 - theta) c(0)) with c(0) = 0, c(1) = 1
        (linear_cost(), 12, 0.0),  # B_n reproduces lines
        (linear_cost(), 7, 0.6),
        # the large-n limit, which has no Bernstein coefficients: the 0.1-grid test
        (linear_cost(), 200_000, 0.3),
        (linear_cost(), math.inf, 0.3),
        (power_cost(3.0), math.inf, 1.0),
    ])
    def test_continuum_raises(self, c, n, rho):
        # the scan used to report 10 001 and 842 rounding roots for the first two,
        # and 7 009, 7 009 and 10 001 for the last three
        with pytest.raises(ContinuumOfEquilibria, match=r"^a continuum of equilibria: every theta in \[0,1\] solves$"):
            enumerate_cosesi(c, n, rho)

    def test_continuum_reads_eleven_thetas(self):
        # coefficients that all lie within their bounds: the 0.1-grid test runs before
        # any scan, where a scan of every cell read 10 357, 10 012 and 10 013 thetas
        psi_rows = equilibrium.ExpectedCosts.psi_rows
        for c, n, rho in [(linear_cost(), 12, 0.3), (linear_cost(), 200, 0.3),
                          (linear_cost(), 1000, 0.3), (power_cost(3.0), 2, 1.0)]:
            seen = []
            spy = lambda self, thetas, *a: seen.append(len(thetas)) or psi_rows(self, thetas, *a)
            with mock.patch.object(equilibrium.ExpectedCosts, "psi_rows", spy):
                with pytest.raises(ContinuumOfEquilibria):
                    enumerate_cosesi(c, n, rho)
            assert sum(seen) <= 11
        # a residual with such coefficients that does not vanish is still scanned
        got = solve_with_dgp(affine_cost(0.9, -0.5), MLE(), 4, CMB(1e16))
        assert got.theta_star == (0.35,)
        assert got.params["method"] == "scan"

    def test_continuum_is_a_value_error(self):
        assert issubclass(ContinuumOfEquilibria, ValueError)

    def test_general_law_continuum_raises(self):
        # 1 - theta = B_n(theta; 1 - z) for every theta under iid signals
        with pytest.raises(ContinuumOfEquilibria, match="every theta in \\[0,1\\] solves"):
            solve_with_dgp(affine_cost(1.0, -1.0), MLE(), 4, IID())

    def test_full_correlation_s_shape_keeps_one_root(self):
        res = enumerate_cosesi(s_shaped_cost(), 12, 1.0)
        assert len(res.roots) == 1


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

    @pytest.mark.parametrize("k", [0.0, 0.001, 0.05, 0.1, 0.15, 0.16, 1.0, 7.0])
    @pytest.mark.parametrize("spec, G, n", [
        ("pow:2", MLE(), 10), ("pow:3", BetaEstimation(), 6), ("exp:2", BayesBeta(0.93, 1.25, 0.0), 20),
    ])
    def test_power_rho_is_the_closed_form_tail(self, monkeypatch, spec, G, n, k):
        # L(c) = (1 - c^(k+1)) / (k+1); a cell at c = 0 puts the cusp of eta^k at an end
        monkeypatch.setattr(numerics, "SOLVE_TOL", Tolerance(abs_tol=1e-15, max_iter=300))
        c = parse_cost(spec)
        grid = cost_grid(G, n, c)
        lam = (1.0 - np.clip(grid, 0.0, 1.0) ** (k + 1.0)) / (k + 1.0)
        psi = lambda t: sum(weighted_bernstein(n, t, rho, v) for rho, v in ((0.0, grid), (0.0, lam), (1.0, -lam)))
        want = solve_decreasing(lambda t: 1.0 - t - psi(t))
        assert abs(solve_assortative(c, G, n, lambda eta: eta**k).theta - want) <= 1e-13

    def test_tail_integrals_memory_is_flat_in_n(self, mle, pow3):
        # the 256 nodes of all 100 001 cells would be 205 MB as one array; blocks of 32 cells keep it small
        tracemalloc.start()
        try:
            solve_assortative(pow3, mle, 100_000, lambda eta: eta**0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


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
        ends = (G.expected_value(10, 0.0, pow3), G.expected_value(10, 1.0, pow3))
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
    def test_rho_one_is_the_closed_form(self, spec, prior, n, zeta, monkeypatch):
        c = parse_cost(spec)
        got = solve_bayesian_cosesi(c, prior, n, 1.0, zeta)
        closed = cosesi_rho1_closed(c, BayesBeta(*prior, 1.0, zeta), n)
        assert (got.theta, got.residual) == (closed.theta, closed.residual)
        assert got.concept == "BayesianCoSESI" and got.params["zeta"] == zeta
        # reference: the zeta-mixed polarized equation, solved iteratively
        naive = BayesBeta(*prior, 0.0)
        aware = BayesBeta(*prior, 1.0, 0.0)
        c0 = (naive.expected_value(n, 0.0, c), naive.expected_value(n, 1.0, c))
        c1 = (aware.expected_value(n, 0.0, c), aware.expected_value(n, 1.0, c))

        def res(t):
            mixed = zeta * (t * c0[1] + (1.0 - t) * c0[0]) + (1.0 - zeta) * (
                t * c1[1] + (1.0 - t) * c1[0]
            )
            return 1.0 - t - mixed

        monkeypatch.setattr(numerics, "SOLVE_TOL", Tolerance(abs_tol=1e-15, max_iter=300))
        iterative = solve_decreasing(res)
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

    @pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_is_refused_before_any_grid(self, w, mle, pow4, monkeypatch):
        monkeypatch.setattr(equilibrium, "expected_costs", mock.Mock(side_effect=AssertionError("grid built")))
        with pytest.raises(BadWeights, match="nonnegative and sum to 1"):
            solve_heterogeneous([(w, mle, 2), (0.5, mle, 3)], pow4, 0.0)

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

    def test_map_calls_an_elementwise_f_once_on_the_grid(self, beta_est, pow3):
        costs = expected_costs(beta_est, 9, pow3)
        seen = []
        got = costs.map(lambda v: seen.append(np.shape(v)) or np.minimum(v + 0.2, 1.0))
        assert seen == [(10,)]
        assert got.values.tobytes() == np.minimum(costs.values + 0.2, 1.0).tobytes()

    def test_map_of_a_float_only_f_is_the_same_cells(self, beta_est, pow3):
        # min() refuses an array, so each value is mapped on its own
        costs = expected_costs(beta_est, 9, pow3)
        floats = costs.map(lambda v: min(v + 0.2, 1.0))
        arrays = costs.map(lambda v: np.minimum(v + 0.2, 1.0))
        assert floats.values.tobytes() == arrays.values.tobytes()
        assert floats.values.tolist() == [min(v + 0.2, 1.0) for v in costs.values.tolist()]
        assert floats.ends == arrays.ends == (floats.values[0], floats.values[-1])
        assert all(type(e) is float for e in floats.ends + arrays.ends)

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


_POW_SOLVES = [(spec, G, n, rho) for spec in ("pow:3", "pow:0.5", "pow:1.7") for G in (MLE(), BetaEstimation())
               for n in (2, 10, 200) for rho in (0.0, 0.3, 0.8)]


class TestResidualEvaluationCounts:
    """The residual evaluations of a solve do not depend on the machine, so
    they are pinned: a change of the root step shows its count change here."""

    @pytest.mark.parametrize("spec, G, n, rho, evals", [
        ("pow:3", MLE(), 10, 0.3, 8),
        ("pow:0.5", BetaEstimation(), 10, 0.0, 8),
        ("pow:1.7", MLE(), 200, 0.8, 7),
    ])
    def test_scalar_and_one_row_solves_take_the_pinned_count(self, spec, G, n, rho, evals):
        costs = expected_costs(G, n, parse_cost(spec))
        scalar, rows = [], []
        theta = solve_decreasing(lambda t: scalar.append(t) or 1.0 - t - costs.psi(t, rho))
        got = solve_decreasing_rows(lambda ts, r: rows.append(ts) or 1.0 - ts - costs.psi_rows(ts, rho), 1)
        assert (len(scalar), len(rows)) == (evals, evals)  # the two ends included
        assert got.tolist() == [theta]

    @pytest.mark.parametrize("spec, G, n, rho", _POW_SOLVES)
    def test_pow_cost_solves_take_at_most_10(self, spec, G, n, rho):
        costs = expected_costs(G, n, parse_cost(spec))
        seen = []
        theta = solve_decreasing(lambda t: seen.append(t) or 1.0 - t - costs.psi(t, rho))
        assert len(seen) <= 10  # the two ends included
        if isinstance(G, MLE):
            # the root of the same Bernstein residual, C_{n,y} = (y/n)^d, to 40 digits
            mp = pytest.importorskip("mpmath")
            with mp.workdps(40):
                d = mp.mpf(spec[4:])
                terms = [(mp.binomial(n, y), (mp.mpf(y) / n) ** d) for y in range(n + 1)]
                bern = lambda t: mp.fsum(b * t**y * (1 - t) ** (n - y) * c for y, (b, c) in enumerate(terms))
                want = mp.findroot(lambda t: 1 - t - (1 - rho) * bern(t) - rho * t, theta)
            assert abs(theta - float(want)) <= 1e-12


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
    def test_balance_holding_joint_reproduces_sesi(self, mle, pow3, monkeypatch):
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

        monkeypatch.setattr(numerics, "SOLVE_TOL", Tolerance(1e-12))
        root = solve_bracketed(res, Bracket(0.05, 0.9, res(0.05), res(0.9)))
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
            raise AssertionError("mixture laws are evaluated by weighted_bernstein_rows")

        monkeypatch.setattr(equilibrium, "count_pmf_grid", no_pmf)
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
            lambda xs: 1.0 - xs - count_pmf_grid(law, n, xs) @ grid, 1e-4
        )
        got = solve_with_dgp(c, MLE(), n, law).roots
        assert len(got) == len(ref)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(got, ref))


def _nodewise(res):
    """The residual on arrays that ``find_roots`` takes, calling the scalar ``res`` node by node."""
    return lambda ts: np.array([res(t) for t in ts.tolist()])


def _scalar_scan_roots(res, grid_step):
    """The scan that calls ``res`` at every node, refined and merged within 1e-6,
    with the largest |residual| over the roots: the reference for the array scans."""
    roots = []
    for r in find_roots(_nodewise(res), grid_step):
        if not roots or r - roots[-1] > 1e-6:
            roots.append(r)
    return tuple(roots), max((abs(res(r)) for r in roots), default=math.inf)


def _scalar_residual(dgp, n, grid):
    """The residual that ``solve_with_dgp`` refines, evaluated one theta at a time."""
    if isinstance(dgp, (IID, RhoMixture, MarkovShock)):
        return lambda t: 1.0 - t - weighted_bernstein(n, t, dgp.rho, grid)
    return lambda t: 1.0 - t - float(action_count_pmf(dgp, n, t).probs @ grid)


def _outcome(call):
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


_SCAN_COSTS = st.one_of(
    st.floats(0.3, 6.0).map(power_cost),
    st.just(linear_cost()),
    st.tuples(st.floats(0.0, 0.4), st.floats(0.0, 0.6)).map(lambda p: affine_cost(*p)),
    st.tuples(st.floats(0.01, 0.3), st.floats(0.7, 0.99), st.floats(8.0, 30.0),
              st.floats(0.3, 0.7)).map(lambda p: s_shaped_cost(*p)),
)

# (law, n) for the seven law families, at sizes that keep the reference scan short
_SCAN_LAWS = st.one_of(
    st.tuples(st.just(IID()), st.integers(1, 20)),
    st.tuples(st.floats(0.0, 1.0).map(RhoMixture), st.integers(1, 20)),
    st.tuples(st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)).map(lambda pq: MarkovShock(*pq)),
              st.integers(1, 20)),
    st.tuples(st.one_of(st.floats(-2.0, 3.0), st.sampled_from([-math.inf, math.inf])).map(CMB),
              st.integers(1, 30)),
    st.tuples(st.lists(st.floats(0.0, 0.9), min_size=1, max_size=3).map(lambda w: Sequential(tuple(w))),
              st.integers(1, 6)),
    st.tuples(st.floats(0.0, 0.9).map(lambda r: BahadurJoint((r,))), st.just(2)),
    st.tuples(st.floats(-0.05, 0.1).map(AdditiveBinomial), st.integers(2, 12)),
)


# maps f(v, q), elementwise on arrays, that psi_rows takes row by row
_ROW_MAPS = st.sampled_from([
    lambda v, q: np.minimum(1.0 + q - v, 1.0),  # the monopoly's price map
    lambda v, q: v * v * q + (1.0 - q) * v,
])


class TestPsiRows:
    """``ExpectedCosts.psi_rows`` is ``psi`` (or ``map(...).psi``) at every
    entry, bit for bit, on the grid and in the limit, with and without a map."""

    @settings(max_examples=40, deadline=None)
    @given(
        c=_SCAN_COSTS,
        law=st.one_of(
            st.tuples(st.sampled_from([MLE(), BetaEstimation()]), st.integers(1, 40)),
            st.tuples(st.just(MLE()), st.sampled_from([LARGE_N + 1, math.inf])),
        ),
        rho=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        f=st.one_of(st.none(), _ROW_MAPS),
        m=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_entry_is_the_one_theta_psi(self, c, law, rho, f, m, seed):
        G, n = law
        costs = expected_costs(G, n, c)
        rng = np.random.default_rng(seed)
        thetas = np.concatenate([[0.0, 1.0], rng.random(m)])
        params = rng.random(len(thetas))
        with mock.patch.object(equilibrium, "_SCAN_CELLS", 60):  # blocks of 60 // (n + 1) rows
            got = costs.psi_rows(thetas, rho, f, None if f is None else params)
        if f is None:
            want = [costs.psi(t, rho) for t in thetas.tolist()]
        else:
            want = [costs.map(lambda v: f(v, q)).psi(t, rho) for t, q in zip(thetas.tolist(), params)]
        assert got.tolist() == want

    def test_limit_calls_the_cost_once_per_theta(self, mle):
        calls = []
        costs = expected_costs(mle, math.inf, _counting(calls, lambda t: t**3))
        calls.clear()
        costs.psi_rows(np.linspace(0.0, 1.0, 7), 0.3, lambda v, q: v + q, np.ones(7))
        assert len(calls) == 7



class TestCosesiRoots:
    """``_cosesi_roots`` is the one-row root ``_cosesi_root`` of each mapped
    cost row, bit for bit: both run the one root loop of ``numerics`` on
    residual values with the same bits."""

    @settings(max_examples=40, deadline=None)
    @given(
        c=st.one_of(_SCAN_COSTS, st.floats(0.0, 10.0).map(exp_decay_cost)),
        law=st.one_of(
            st.tuples(st.sampled_from([MLE(), BetaEstimation()]), st.integers(1, 40)),
            st.tuples(st.just(MLE()), st.sampled_from([LARGE_N + 1, math.inf])),
        ),
        rho=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        f=_ROW_MAPS,
        params=st.lists(st.floats(0.0, 1.0), max_size=12),
    )
    def test_every_entry_is_the_one_row_root(self, c, law, rho, f, params):
        G, n = law
        costs = expected_costs(G, n, c)
        params = np.array([0.0, 1.0, *params])
        if rho == 1.0:  # mapped ends 1 and 0 make every theta a root, and the closed form 0/0
            params = params[(f(costs.ends[0], params) < 1.0) | (f(costs.ends[1], params) > 0.0)]
        got = equilibrium._cosesi_roots(costs, rho, f, params)
        want = [equilibrium._cosesi_root(costs.map(lambda v: f(v, q)), rho)[0] for q in params.tolist()]
        assert got.tolist() == want

class TestArrayScan:
    """The count-law scans evaluate their nodes in blocks of rows, each row the
    scalar residual's value bit for bit, so the results are those of the scan
    that calls the scalar residual at every node.  The monotone route solves
    instead of scanning; its root lies within 2e-13 of the scan's."""

    @settings(max_examples=6, deadline=None)
    @given(c=_SCAN_COSTS, law=_SCAN_LAWS)
    def test_solve_with_dgp_is_the_scalar_scan(self, c, law):
        dgp, n = law
        res = _scalar_residual(dgp, n, cost_grid(MLE(), n, c))
        ref = _outcome(lambda: _scalar_scan_roots(res, 1e-4))
        got = _outcome(lambda: solve_with_dgp(c, MLE(), n, dgp))
        if isinstance(ref[0], type):  # AdditiveBinomial fails at theta = 0, both ways alike
            assert got == ref
        elif got.params["method"] == "monotone":
            _assert_near_the_scan(got, ref[0], _nodewise(res))
        else:
            assert (got.theta_star, got.residual) == ref

    @pytest.mark.parametrize("dgp, n", [
        (IID(), 7), (RhoMixture(0.4), 12), (MarkovShock(0.3, 0.6), 5), (CMB(2.0), 10),
        (CMB(-math.inf), 8), (Sequential((0.5, 0.2)), 3), (BahadurJoint((0.3,)), 2),
    ])
    def test_each_family_is_the_scalar_scan(self, dgp, n):
        c = s_shaped_cost(0.05, 0.95, 20.0, 0.5)
        res = _scalar_residual(dgp, n, cost_grid(MLE(), n, c))
        got = solve_with_dgp(c, MLE(), n, dgp)
        if isinstance(dgp, BahadurJoint):
            assert (got.theta_star, got.residual) == _scalar_scan_roots(res, 1e-4)
        else:  # a rising cost: the monotone route
            _assert_near_the_scan(got, _scalar_scan_roots(res, 1e-4)[0], _nodewise(res))

    def test_additive_binomial_fails_as_before(self, pow3):
        with pytest.raises(InadmissibleCorrelation, match=r"^additive binomial needs theta in \(0,1\)$"):
            solve_with_dgp(pow3, MLE(), 4, AdditiveBinomial(0.05))

    @settings(max_examples=5, deadline=None)
    @given(
        c=st.tuples(st.floats(0.01, 0.2), st.floats(0.8, 0.99), st.floats(10.0, 30.0),
                    st.floats(0.35, 0.65)).map(lambda p: s_shaped_cost(*p)),
        n=st.integers(1, 40),
        rho=st.floats(0.0, 1.0),
        grid_step=st.sampled_from([1e-4, 1e-3]),
    )
    def test_enumerate_is_the_scalar_scan(self, c, n, rho, grid_step):
        grid = cost_grid(MLE(), n, c)
        ref = _scalar_scan_roots(lambda t: t - weighted_bernstein(n, t, rho, grid), grid_step)
        assert _benefit_roots(c, n, rho, grid_step)[:2] == ref

    @pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
    def test_enumerate_in_the_limit_is_the_scalar_scan(self, rho):
        # n above LARGE_N: the limit cost, called node by node
        c = s_shaped_cost(0.05, 0.95, 20.0, 0.5)
        ends = (c(0.0), c(1.0))
        ref = _scalar_scan_roots(lambda t: t - weighted_limit(t, rho, c, ends), 1e-4)
        got = enumerate_cosesi(c, 200_000, rho)
        assert (got.theta_star, got.residual) == ref
        assert len(ref[0]) == (1 if rho == 1.0 else 3)

    @pytest.mark.parametrize("rho", [-0.1, 1.5])
    def test_enumerate_rejects_rho_as_the_kernel(self, rho):
        with pytest.raises(InadmissibleCorrelation, match=rf"^rho must be in \[0,1\], got {rho}$"):
            enumerate_cosesi(s_shaped_cost(), 12, rho)

    def test_scan_memory_is_flat_in_n(self):
        # 1001 nodes at n = 50 000 would be 400 MB as one array; blocks keep it to a few rows
        costs = expected_costs(MLE(), 50_000, s_shaped_cost())
        poly = lambda: bernstein_residual(RhoMixture(0.3), 50_000, costs.values, benefit=True)
        tracemalloc.start()
        try:
            equilibrium._roots(lambda xs: xs - costs.psi_rows(xs, 0.3), 1e-3, poly)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


def _array_residual(dgp, n, grid, benefit=False, rows=None):
    """The array residual that ``solve_with_dgp`` (or, with ``benefit``,
    ``enumerate_cosesi``) scans, in the same blocks of count-law rows, or in
    blocks of ``rows`` thetas whatever n: a row's value does not depend on
    its block, and a full scan at n = 10 000 in blocks of one row takes
    seconds per law."""
    if isinstance(dgp, (IID, RhoMixture, MarkovShock)):
        row = lambda xs: weighted_bernstein_rows(n, xs, dgp.rho, grid)
    else:
        row = lambda xs: row_dots(count_pmf_grid(dgp, n, xs), grid)
    if rows is None:
        rhs = equilibrium._in_blocks(n, row)
    else:
        rhs = lambda xs: np.concatenate([row(xs[i : i + rows]) for i in range(0, len(xs), rows)])
    return (lambda xs: xs - rhs(xs)) if benefit else (lambda xs: 1.0 - xs - rhs(xs))


def _benefit_roots(c, n, rho, grid_step):
    """``_roots`` at ``grid_step`` on the residual and the Bernstein coefficients
    that ``enumerate_cosesi(c, n, rho)`` scans; at 1e-4, its fixed step, these
    are ``enumerate_cosesi``'s outputs."""
    grid = cost_grid(MLE(), n, c)
    poly = lambda: bernstein_residual(RhoMixture(rho), n, grid, benefit=True)
    got = equilibrium._roots(_array_residual(RhoMixture(rho), n, grid, True), grid_step, poly)
    if grid_step == 1e-4:
        res = enumerate_cosesi(c, n, rho)
        assert got == (res.theta_star, res.residual, res.params["certificate"], res.params["method"])
    return got


def _full_scan(res, grid_step):
    """Roots and residual of the scan of every cell: ``_roots`` without coefficients."""
    return equilibrium._roots(res, grid_step)[:2]


def _assert_near_the_scan(got, roots, res):
    """A monotone-route result against the roots of a scan of every cell: as
    many roots, ``certified k`` of them, each within 2e-13 of the scan's (the
    residual falls with slope at most -1, so both lie within 1e-13 of the
    exact root), and the |residual| of ``res``, on arrays, there."""
    assert got.params["method"] == "monotone"
    assert got.params["certificate"] == f"certified {len(roots)}"
    assert len(got.roots) == len(roots)
    assert all(abs(a - b) <= 2e-13 for a, b in zip(got.roots, roots))
    assert got.residual == (float(np.abs(res(np.array(got.roots))).max()) if roots else math.inf)


# the laws that model.bernstein_residual gives coefficients for
_ISOLATED_LAWS = st.one_of(
    st.floats(0.0, 1.0).map(RhoMixture),
    st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)).map(lambda pq: MarkovShock(*pq)),
    st.one_of(st.floats(-2.0, 3.0), st.sampled_from([-math.inf, math.inf])).map(CMB),
    st.lists(st.floats(0.0, 0.9), max_size=3).map(lambda w: Sequential(tuple(w))),
)

_CERTIFICATE = r"^(certified \d+|>= \d+ found)$"


class TestIsolatedScan:
    """solve_with_dgp and enumerate_cosesi scan only the cells that the
    residual's Bernstein coefficients cannot rule out, and the end cells; the
    roots and residual are those of the scan of every cell, bit for bit.  On
    a rising cost grid solve_with_dgp takes the monotone route instead, whose
    root lies within 2e-13 of the scan's."""

    @settings(max_examples=25, deadline=None)
    @given(c=_SCAN_COSTS, dgp=_ISOLATED_LAWS, n=st.integers(1, 40))
    @example(c=power_cost(3.0), dgp=CMB(math.inf), n=7)
    @example(c=power_cost(3.0), dgp=CMB(math.inf), n=8)
    @example(c=s_shaped_cost(), dgp=CMB(-math.inf), n=9)
    @example(c=linear_cost(), dgp=MarkovShock(0.3, 0.6), n=12)  # the root is the split point 0.5
    def test_solve_with_dgp_is_the_full_scan(self, c, dgp, n):
        got = solve_with_dgp(c, MLE(), n, dgp)
        res = _array_residual(dgp, n, cost_grid(MLE(), n, c))
        if got.params["method"] == "monotone":
            _assert_near_the_scan(got, _full_scan(res, 1e-4)[0], res)
        else:
            assert (got.theta_star, got.residual) == _full_scan(res, 1e-4)
        assert re.match(_CERTIFICATE, got.params["certificate"])

    @settings(max_examples=25, deadline=None)
    @given(
        c=_SCAN_COSTS,
        n=st.integers(1, 40),
        rho=st.floats(0.0, 1.0),
        grid_step=st.sampled_from([1e-4, 1e-3, 0.01]),
    )
    @example(c=s_shaped_cost(), n=12, rho=0.3, grid_step=1e-4)  # a root a hair past the split point 0.5
    @example(c=power_cost(3.0), n=5, rho=0.3, grid_step=1e-4)  # exact node roots at 0 and 1
    @example(c=power_cost(3.0), n=2, rho=1.0, grid_step=1e-3)  # a residual that is 0 up to rounding
    def test_enumerate_is_the_full_scan(self, c, n, rho, grid_step):
        grid = cost_grid(MLE(), n, c)
        res = _array_residual(RhoMixture(rho), n, grid, True)
        try:
            roots, residual, certificate, _ = _benefit_roots(c, n, rho, grid_step)
        except ContinuumOfEquilibria:
            # every node the full scan reads is a root to the solvers' tolerance
            nodes = np.arange(scan_cells(grid_step) + 1) / scan_cells(grid_step)
            assert np.abs(res(nodes)).max() <= SOLVE_TOL.abs_tol
            return
        assert (roots, residual) == _full_scan(res, grid_step)
        assert re.match(_CERTIFICATE, certificate)

    def test_split_point_root_is_one_half(self):
        # the residual is flat at its symmetric middle root, so a |f| stop far from 0.5 would show here
        got = enumerate_cosesi(s_shaped_cost(), 12, 0.3)
        assert abs(got.theta_star[1] - 0.5) <= 1e-15
        assert got.params["certificate"] == ">= 3 found"  # p(0.5) is within its bound of 0

    def test_node_roots_at_both_ends(self):
        got = enumerate_cosesi(power_cost(3.0), 5, 0.3)
        assert got.theta_star == (0.0, 1.0)
        assert got.params["certificate"] == ">= 2 found"

    def test_scan_takes_few_cells(self, monkeypatch):
        # a decreasing cost: its grid is not monotone, so the law takes the isolation route
        seen = []
        scan = equilibrium.find_roots
        monkeypatch.setattr(equilibrium, "find_roots", lambda *a, **k: seen.append(k["cells"]) or scan(*a, **k))
        got = solve_with_dgp(affine_cost(0.9, -0.5), MLE(), 10, CMB(2.0))
        assert got.params["certificate"] == "certified 1"
        assert got.params["method"] == "bernstein_isolate"
        (cells,) = seen
        assert {0, 9_999} <= set(cells.tolist()) and len(cells) < 500

    def test_monotone_route_scans_no_cell(self, monkeypatch):
        monkeypatch.setattr(equilibrium, "find_roots", lambda *a, **k: pytest.fail("a cell was scanned"))
        monkeypatch.setattr(equilibrium, "bernstein_residual", _no_coefficients)
        monkeypatch.setattr(equilibrium, "isolate_roots", _no_coefficients)
        got = solve_with_dgp(power_cost(3.0), MLE(), 10, CMB(2.0))
        assert got.params["certificate"] == "certified 1"
        assert got.params["method"] == "monotone"

    def test_general_cmb_carries_the_certificate(self):
        got = solve_general_cmb(power_cost(3.0), MLE(), 10, 2.0)
        assert got.params["certificate"] == solve_with_dgp(power_cost(3.0), MLE(), 10, CMB(2.0)).params["certificate"]

    @pytest.mark.parametrize("dgp", [BahadurJoint((0.3,)), AdditiveBinomial(0.05)])
    def test_laws_without_coefficients_scan_every_cell(self, dgp, monkeypatch):
        seen = []
        scan = equilibrium.find_roots
        monkeypatch.setattr(equilibrium, "find_roots", lambda *a, **k: seen.append(k["cells"]) or scan(*a, **k))
        got = _outcome(lambda: solve_with_dgp(power_cost(3.0), MLE(), 2, dgp))
        assert seen == [None]
        if not isinstance(got, tuple):
            assert got.params["certificate"] == ">= 1 found"


def _no_coefficients(*args, **kwargs):
    raise AssertionError("the coefficients are built after every argument check")


def _counted_rows(monkeypatch):
    """The number of thetas of each count-law call that ``solve_with_dgp`` makes."""
    rows = []
    pmf, mixture = equilibrium.count_pmf_grid, equilibrium.weighted_bernstein_rows
    monkeypatch.setattr(equilibrium, "count_pmf_grid", lambda dgp, n, xs: rows.append(len(xs)) or pmf(dgp, n, xs))
    monkeypatch.setattr(equilibrium, "weighted_bernstein_rows",
                        lambda n, xs, rho, grid: rows.append(len(xs)) or mixture(n, xs, rho, grid))
    return rows


class TestMonotoneRoute:
    """Under a law that rises in theta in the usual stochastic order, on a
    non-decreasing cost grid, ``solve_with_dgp`` solves the residual, which
    falls with slope at most -1, by one clamped decreasing solve and states
    ``certified k``.  Its root is within 1e-13 of the exact one, so within
    2e-13 of the full scan's; under the rho-mixture laws it is
    ``solve_cosesi``'s, bit for bit."""

    @pytest.mark.parametrize("spec, want", [
        ("affine:1,0", (0.0,)),  # a node root at 0
        ("affine:0,0", (1.0,)),  # a node root at 1
        ("affine:0.5,0", None),
        ("pow:3", None),
        ("sshape", None),
    ])
    @pytest.mark.parametrize("dgp", [IID(), RhoMixture(0.3), MarkovShock(0.2, 0.6), CMB(2.0), CMB(-math.inf),
                                     CMB(math.inf), Sequential((0.5, 0.2))])
    def test_root_placement_is_near_the_full_scan(self, spec, want, dgp, monkeypatch):
        monkeypatch.setattr(equilibrium, "bernstein_residual", _no_coefficients)
        c, n = parse_cost(spec), 6
        res = _array_residual(dgp, n, cost_grid(MLE(), n, c))
        got = solve_with_dgp(c, MLE(), n, dgp)
        _assert_near_the_scan(got, _full_scan(res, 1e-4)[0], res)
        assert got.params["certificate"] == "certified 1"
        assert got.residual <= SOLVE_TOL.abs_tol
        if want is not None:
            assert got.theta_star == want

    @pytest.mark.parametrize("G", [MLE(), BetaEstimation()], ids=["mle", "beta"])
    @pytest.mark.parametrize("d", [0.5, 1.7, 3.0, 4.0])
    @pytest.mark.parametrize("n", [2, 3, 10, 57, 200])
    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.8])
    def test_rho_mixture_laws_are_the_cosesi_solve(self, G, d, n, rho):
        # one row of the same root loop on residual values with the same bits
        c = power_cost(d)
        want = solve_cosesi(c, G, n, rho)
        for law in [RhoMixture(rho), MarkovShock(rho, 1.0 - rho)] + ([IID()] if rho == 0.0 else []):
            got = solve_with_dgp(c, G, n, law)
            assert (got.theta_star, got.residual) == ((want.theta,), want.residual)

    @pytest.mark.parametrize("level", [1.2, -0.2])
    def test_no_root_is_certified_0(self, level):
        # grids outside [0, 1], which no cost gives: the residual keeps one sign
        grid = np.full(7, level)
        res = _array_residual(RhoMixture(0.3), 6, grid)
        assert equilibrium._monotone_roots(res) == ((), math.inf, "certified 0", "monotone")
        assert _full_scan(res, 1e-4) == ((), math.inf)

    @pytest.mark.parametrize("n", [1_000, 10_000])
    @pytest.mark.parametrize("dgp", [RhoMixture(0.3), IID(), CMB(2.0), CMB(math.inf), CMB(-math.inf)])
    def test_large_n_is_near_the_full_scan(self, n, dgp):
        c = power_cost(3.0)
        got = solve_with_dgp(c, MLE(), n, dgp)
        res = _array_residual(dgp, n, cost_grid(MLE(), n, c), rows=64)
        _assert_near_the_scan(got, _full_scan(res, 1e-4)[0], res)
        assert got.residual <= SOLVE_TOL.abs_tol

    def test_rho_mixture_law_is_the_rho_mixture_solve(self):
        # cosesi --dgp rho:0.3 --n 10000 against cosesi --rho 0.3 --n 10000
        c = parse_cost("pow:4")
        got = solve_with_dgp(c, MLE(), 10_000, RhoMixture(0.3))
        assert got.theta == solve_cosesi(c, MLE(), 10_000, 0.3).theta

    @pytest.mark.parametrize("dgp, n", [(CMB(-math.inf), 50), (CMB(2.0), 10_000)])
    def test_certified_where_the_coefficients_could_not(self, dgp, n):
        got = solve_with_dgp(power_cost(3.0), MLE(), n, dgp)
        assert got.params["certificate"] == "certified 1"

    @pytest.mark.parametrize("n", [3, 30, 10_000])
    def test_residual_calls_and_rows(self, n, monkeypatch):
        # one theta per call: the solve's two ends and steps (6 to 8 in all for
        # a unique-root solve), then the reported residual
        rows = _counted_rows(monkeypatch)
        solve_with_dgp(power_cost(3.0), MLE(), n, CMB(2.0))
        assert set(rows) == {1}
        assert len(rows) <= 10

    @pytest.mark.parametrize("nu, n", [(1e308, 5), (-1e308, 5), (1e300, 5), (1e15, 7)])
    def test_extreme_nu_is_the_full_scan(self, nu, n):
        # a huge finite nu keeps the central counts (the end counts at nu < 0)
        # alone, as nu = +-inf does, at odd n too, where the central pair's
        # weights must be equal, and where nu log comb(n, y) overflows
        c = power_cost(3.0)
        got = solve_with_dgp(c, MLE(), n, CMB(nu))
        want = solve_with_dgp(c, MLE(), n, CMB(math.copysign(math.inf, nu)))
        outputs = lambda r: (r.theta_star, r.residual, r.params["certificate"], r.params["method"])
        assert outputs(got) == outputs(want)
        res = _array_residual(CMB(nu), n, cost_grid(MLE(), n, c))
        _assert_near_the_scan(got, _full_scan(res, 1e-4)[0], res)

    def test_non_finite_value_raises_where_the_solve_meets_it(self, monkeypatch):
        # no built-in law gives one on this route; the solve names the theta and scans no cell
        monkeypatch.setattr(equilibrium, "find_roots", lambda *a, **k: pytest.fail("a cell was scanned"))
        res = lambda xs: np.where(xs > 0.0, 0.5 - xs, math.nan)
        with pytest.raises(DomainError, match=r"^f is not finite at theta = 0\.0: nan$"):
            equilibrium._monotone_roots(res)
        res = lambda xs: np.where((xs > 0.2) & (xs < 0.8), math.inf, 0.5 - xs)  # the first step is 0.5
        with pytest.raises(DomainError, match=r"^f is not finite at theta = 0\.5: inf$"):
            equilibrium._monotone_roots(res)

    @pytest.mark.parametrize("nu", [1e16, 1e30])
    def test_bounds_that_swallow_every_coefficient_scan_every_cell(self, nu):
        # a decreasing cost takes the isolation route; where CMB's bounds swallow
        # every coefficient, they rule out no cell, and the 0.1-grid test alone
        # decides a continuum: here there is none, and one root
        c = affine_cost(0.9, -0.5)
        got = solve_with_dgp(c, MLE(), 4, CMB(nu))
        assert got.theta_star == (0.35,)
        assert (got.params["certificate"], got.params["method"]) == (">= 1 found", "scan")
        assert (got.theta_star, got.residual) == _full_scan(_array_residual(CMB(nu), 4, cost_grid(MLE(), 4, c)), 1e-4)

    def test_route_follows_the_law_and_the_grid(self):
        got = solve_with_dgp(linear_cost(), MLE(), 6, RhoMixture(0.3))
        assert got.params["method"] == "monotone"
        got = solve_with_dgp(affine_cost(0.9, -0.5), MLE(), 6, RhoMixture(0.3))
        assert got.params["method"] == "bernstein_isolate"
        assert solve_with_dgp(power_cost(3.0), MLE(), 2, BahadurJoint((0.3,))).params["method"] == "scan"


class TestIsolatedScanErrors:
    """The errors of the full scan, with their types and messages, raised
    before any coefficient is built."""

    @pytest.fixture(autouse=True)
    def _guard(self, monkeypatch):
        monkeypatch.setattr(equilibrium, "bernstein_residual", _no_coefficients)

    @pytest.mark.parametrize("n", [0, 2.5])
    def test_sample_size(self, n):
        with pytest.raises(UnsupportedN, match=f"^n must be a positive integer, got {n:g}$"):
            solve_with_dgp(power_cost(3.0), MLE(), n, CMB(2.0))
        with pytest.raises(UnsupportedN, match=f"^n must be a positive integer, got {n:g}$"):
            enumerate_cosesi(s_shaped_cost(), n, 0.3)


class TestNonFiniteCoefficients:
    @pytest.mark.parametrize("dgp", [RhoMixture(0.3), CMB(2.0), CMB(math.inf), Sequential((0.4,))])
    def test_non_finite_residual_raises_as_the_full_scan(self, dgp, monkeypatch):
        # a cost that is nan at 1/2 makes a cell, and so a coefficient, nan
        c = lambda t: math.nan if t == 0.5 else t**3
        grid = cost_grid(MLE(), 4, c)
        seen = []
        scan = equilibrium.find_roots
        monkeypatch.setattr(equilibrium, "find_roots", lambda *a, **k: seen.append(k["cells"]) or scan(*a, **k))
        want = _outcome(lambda: _full_scan(_array_residual(dgp, 4, grid), 1e-4))
        assert want[0] is DomainError
        assert _outcome(lambda: solve_with_dgp(c, MLE(), 4, dgp)) == want
        assert seen[-1] is None  # the solve scanned every cell


class TestCertificate:
    @settings(max_examples=40, deadline=None)
    @given(c=_SCAN_COSTS, n=st.integers(2, 30), rho=st.floats(0.0, 1.0, exclude_max=True))
    def test_never_contradicts_the_variation_diagnostic(self, c, n, rho):
        certificate = solve_with_dgp(c, MLE(), n, RhoMixture(rho)).params["certificate"]
        if variation_diagnostic(c, n).unique_guaranteed:
            assert not certificate.startswith("certified") or certificate == "certified 1"

    @settings(max_examples=30, deadline=None)
    @given(c=_SCAN_COSTS, dgp=_ISOLATED_LAWS, n=st.integers(1, 30))
    def test_certified_count_is_the_sign_changes_of_the_full_scan(self, c, dgp, n):
        grid = cost_grid(MLE(), n, c)
        certificate = solve_with_dgp(c, MLE(), n, dgp).params["certificate"]
        if certificate.startswith("certified"):
            scan = find_sign_changes(_array_residual(dgp, n, grid), 1e-4)
            assert certificate == f"certified {len(scan.brackets) + len(scan.node_roots)}"

    @pytest.mark.parametrize("found", [[], [0.3], [0.3, 0.31], [0.3, 0.6], [0.6]])
    def test_not_certified_unless_each_interval_holds_one_root(self, found):
        kept = (RootInterval(0.25, 0.375, True), RootInterval(0.5, 0.625, True))
        want = "certified 2" if found == [0.3, 0.6] else f">= {len(found)} found"
        assert equilibrium._certificate(kept, found, len(found)) == want

    def test_not_certified_when_a_root_is_counted_twice(self):
        # 0.5 ends both intervals, and 0.9 lies in neither
        kept = (RootInterval(0.25, 0.5, True), RootInterval(0.5, 0.75, True))
        assert equilibrium._certificate(kept, [0.5, 0.9], 2) == ">= 2 found"

    def test_not_certified_with_more_than_one_sign_variation(self):
        kept = (RootInterval(0.25, 0.375, False),)
        assert equilibrium._certificate(kept, [0.3], 1) == ">= 1 found"
        assert equilibrium._certificate(None, [0.3], 1) == ">= 1 found"
        assert equilibrium._certificate((), [], 0) == "certified 0"


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

    def test_assortative_grid_one_quadrature(self, mle, pow3, monkeypatch):
        want = solve_assortative(pow3, mle, 12, lambda eta: eta**0.5)
        quads = []
        monkeypatch.setattr(equilibrium, "integrate", _counting(quads, equilibrium.integrate))
        got = solve_assortative(pow3, mle, 12, lambda eta: eta**0.5)
        assert (got.theta, got.residual) == (want.theta, want.residual)
        assert len(quads) == 1  # all 13 tail integrals, through ExpectedCosts.map

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
