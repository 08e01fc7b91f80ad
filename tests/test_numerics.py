import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from cosesi.numerics import (
    Bracket,
    DomainError,
    MaxIterExceeded,
    NoSignChange,
    Tolerance,
    find_roots,
    find_sign_changes,
    integrate,
    norm_cdf,
    norm_pdf,
    norm_quantile,
    owen_t,
    solve_bracketed,
    solve_decreasing,
    solve_decreasing_rows,
)


class TestNormCdf:
    def test_symmetry_at_zero(self):
        assert norm_cdf(0.0) == 0.5

    def test_known_quantile(self):
        # 30-digit oracle: Phi(1.95996398454005424) = 0.975
        assert norm_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_deep_tail(self):
        # tail bound Phi(-x) <= phi(x)/x; mpmath gives 6.2210e-16 at x = 8
        assert norm_cdf(-8.0) < 1e-14
        assert norm_cdf(-8.0) == pytest.approx(6.220960574271784e-16, rel=1e-10)

    def test_vs_scipy(self):
        for x in np.linspace(-10, 10, 101):
            assert norm_cdf(x) == pytest.approx(scipy.special.ndtr(x), abs=1e-12)

    def test_monotone_on_grid(self):
        xs = np.linspace(-12, 12, 2001)
        vals = [norm_cdf(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestNormQuantile:
    def test_median(self):
        assert norm_quantile(0.5) == 0.0

    def test_known_value(self):
        assert norm_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)

    @pytest.mark.parametrize("x", range(-3, 4))
    def test_round_trip_integers(self, x):
        assert norm_quantile(norm_cdf(float(x))) == pytest.approx(x, abs=1e-9)

    def test_round_trip_wide(self):
        for x in np.linspace(-6, 6, 121):
            assert norm_quantile(norm_cdf(x)) == pytest.approx(x, abs=1e-8)

    def test_post_condition(self):
        for p in (1e-12, 1e-6, 0.2, 0.5, 0.9, 1 - 1e-9):
            assert abs(norm_cdf(norm_quantile(p)) - p) <= 1e-10

    @pytest.mark.parametrize("p", [1e-300, 1e-100, 1e-20, 1e-12])
    def test_relative_error_in_the_tail(self, p):
        # an absolute stopping rule on |cdf(x) - p| cannot resolve p this small
        assert abs(norm_cdf(norm_quantile(p)) - p) <= 1e-12 * p

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            norm_quantile(p)


class TestOwenT:
    def test_zero_a(self):
        assert owen_t(1.3, 0.0) == 0.0

    def test_a_one_identity(self):
        # T(h, 1) = Phi(h)(1 - Phi(h)) / 2
        for h in (0.0, 0.4, 1.1, 2.5, -0.7):
            assert owen_t(h, 1.0) == pytest.approx(
                norm_cdf(h) * (1.0 - norm_cdf(h)) / 2.0, abs=1e-10
            )

    def test_h_zero(self):
        # T(0, a) = arctan(a) / 2pi; at a = 1 this is 1/8
        assert owen_t(0.0, 1.0) == pytest.approx(0.125, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(-4, 4, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
    )
    def test_symmetries(self, h, a):
        assert owen_t(h, -a) == pytest.approx(-owen_t(h, a), abs=1e-12)
        assert owen_t(-h, a) == pytest.approx(owen_t(h, a), abs=1e-12)

    def test_vs_scipy(self):
        rs = np.random.default_rng(7)
        for _ in range(50):
            h = rs.uniform(-3, 3)
            a = rs.uniform(-2, 2)
            assert owen_t(h, a) == pytest.approx(scipy.special.owens_t(h, a), abs=1e-10)


class TestIntegrate:
    def test_quartic(self):
        assert integrate(lambda t: t**4, 0.0, 1.0) == pytest.approx(0.2, abs=1e-10)

    def test_constant(self):
        assert integrate(lambda t: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_density_substitution(self):
        # int_0^1 phi(Phi^-1(u)) du = int phi(x)^2 dx = 1/(2 sqrt(pi))
        val = integrate(
            lambda u: norm_pdf(norm_quantile(u)), 1e-14, 1.0 - 1e-14, Tolerance(1e-11)
        )
        assert val == pytest.approx(0.28209479177387814, abs=1e-8)

    def test_empty_interval(self):
        assert integrate(math.sin, 2.0, 2.0) == 0.0

    def test_budget_exhaustion(self):
        with pytest.raises(MaxIterExceeded):
            integrate(lambda t: math.copysign(1.0, math.sin(1.0 / (t + 1e-12))), 0.0, 1.0,
                      Tolerance(abs_tol=1e-14, max_iter=4))


class TestSolveBracketed:
    def test_linear(self):
        root = solve_bracketed(lambda t: 1 - 2 * t, Bracket(0, 1, 1, -1))
        assert root == pytest.approx(0.5, abs=1e-9)

    def test_cubic_residual(self):
        f = lambda t: 1 - t - t**3
        root = solve_bracketed(f, Bracket(0, 1, f(0), f(1)))
        assert root == pytest.approx(0.682328, abs=1e-6)

    def test_quadratic_residual(self):
        f = lambda t: 7 * t**2 + 9 * t - 8
        root = solve_bracketed(f, Bracket(0, 1, f(0), f(1)))
        assert root == pytest.approx((-9 + math.sqrt(305)) / 14, abs=1e-6)

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            Bracket(0, 1, 1.0, 2.0)

    def test_random_monotone_polynomials(self):
        # |f(root)| <= tol for 100 random increasing polynomials with a root
        rs = np.random.default_rng(42)
        tol = Tolerance(abs_tol=1e-10)
        for _ in range(100):
            coeffs = rs.uniform(0.1, 2.0, size=4)  # increasing on [0,1]
            shift = rs.uniform(0.05, 0.95) * coeffs.sum()

            def f(t, c=coeffs, s=shift):
                return c[0] * t + c[1] * t**2 + c[2] * t**3 + c[3] * t**5 - s

            root = solve_bracketed(f, Bracket(0.0, 1.0, f(0.0), f(1.0)), tol)
            assert abs(f(root)) <= 1e-8

    def test_max_iter(self):
        f = lambda t: t**3 + t - 1  # irrational root, secant cannot hit it exactly
        with pytest.raises(MaxIterExceeded):
            solve_bracketed(f, Bracket(0, 1, f(0), f(1)), Tolerance(abs_tol=1e-30, max_iter=3))


class TestFindSignChanges:
    def test_single_crossing(self):
        scan = find_sign_changes(lambda t: 1 - 2.05 * t, 1e-3)
        assert len(scan.brackets) == 1
        b = scan.brackets[0]
        assert b.lo < 1 / 2.05 < b.hi

    def test_triple_crossing(self):
        # cubic with roots off the scan grid
        f = lambda t: (t - 0.2123) * (t - 0.5234) * (t - 0.7789)
        scan = find_sign_changes(f, 1e-3)
        assert len(scan.brackets) == 3

    def test_no_crossing(self):
        scan = find_sign_changes(lambda t: 1.0 + t, 1e-3)
        assert scan.brackets == () and scan.node_roots == ()

    def test_exact_node_root(self):
        scan = find_sign_changes(lambda t: t - 0.5, 1e-3)
        assert 0.5 in scan.node_roots
        assert len(scan.brackets) == 0

    def test_step_validation(self):
        with pytest.raises(DomainError):
            find_sign_changes(lambda t: t, 0.5)


class TestSolveDecreasing:
    def test_clamps_at_lo(self):
        assert solve_decreasing(lambda t: -0.1 - t) == 0.0

    def test_clamps_at_hi(self):
        assert solve_decreasing(lambda t: 2.0 - t) == 1.0

    def test_solves_on_sub_interval(self):
        f = lambda t: 0.6 - t**2
        tol = Tolerance(abs_tol=1e-13)
        root = solve_decreasing(f, 0.5, 0.9, tol)
        assert root == solve_bracketed(f, Bracket(0.5, 0.9, f(0.5), f(0.9)), tol)
        assert root == pytest.approx(math.sqrt(0.6), abs=1e-12)
        # the clamps use the sub-interval's endpoints, not 0 and 1
        assert solve_decreasing(f, 0.8, 0.9) == 0.8
        assert solve_decreasing(f, 0.1, 0.2) == 0.2


class TestSolveDecreasingRows:
    @settings(max_examples=100, deadline=None)
    @given(
        cases=st.lists(st.tuples(st.floats(-0.5, 2.5), st.floats(0.0, 3.0)), min_size=1, max_size=30),
    )
    def test_rows_are_the_scalar_solves_bit_for_bit(self, cases):
        # f_i(t) = s_i - t - c_i t^3, clamped at 0 when s_i <= 0 and at 1 when s_i >= 1 + c_i
        s, c = (np.array(v) for v in zip(*cases))
        seen = []

        def f(ts, rows):
            seen.append(rows)
            return s[rows] - ts - c[rows] * ts * ts * ts

        got = solve_decreasing_rows(f, len(cases))
        want = [solve_decreasing(lambda t, v=v, w=w: v - t - w * t * t * t) for v, w in cases]
        assert got.tolist() == want
        # a row leaves the solve when it stops
        assert all(set(b.tolist()) <= set(a.tolist()) for a, b in zip(seen[1:], seen[2:]))

    def test_budget_exhaustion_raises_as_the_scalar_solve(self):
        tol = Tolerance(abs_tol=1e-30, max_iter=3)
        s = np.array([-0.2, 1.0, 3.0])  # clamped at 0, solving, clamped at 1
        f = lambda ts, rows: s[rows] - ts - ts * ts * ts
        with pytest.raises(MaxIterExceeded):
            solve_decreasing(lambda t: 1.0 - t - t * t * t, tol=tol)
        with pytest.raises(MaxIterExceeded):
            solve_decreasing_rows(f, 3, tol=tol)
        assert solve_decreasing_rows(f, 3).tolist() == [solve_decreasing(lambda t, v=v: v - t - t * t * t)
                                                        for v in s.tolist()]

    def test_nan_end_raises_as_the_scalar_solve(self):
        f = lambda t: math.nan if t == 1.0 else 0.5 - t
        with pytest.raises(NoSignChange):
            solve_decreasing(f)
        with pytest.raises(NoSignChange):
            solve_decreasing_rows(lambda ts, rows: np.array([f(t) for t in ts.tolist()]), 2)


class TestFindRoots:
    def test_node_root_sorted_among_refined_roots(self):
        f = lambda t: (t - 0.2123) * (t - 0.5) * (t - 0.7789)
        roots = find_roots(f, 1e-3, Tolerance(abs_tol=1e-13))
        assert len(roots) == 3
        assert roots[1] == 0.5  # exact node root, found by the scan itself
        assert roots[0] == pytest.approx(0.2123, abs=1e-12)
        assert roots[2] == pytest.approx(0.7789, abs=1e-12)

    def test_no_root(self):
        assert find_roots(lambda t: 1.0 + t, 1e-3) == []
