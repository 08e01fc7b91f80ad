import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from cosesi import numerics
from cosesi.numerics import (
    Bracket,
    DomainError,
    MaxIterExceeded,
    NoSignChange,
    RootInterval,
    Tolerance,
    find_roots,
    find_sign_changes,
    integrate,
    isolate_roots,
    norm_cdf,
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

    def test_vs_mpmath_on_the_box(self):
        # the defining integral to 40 digits, for |h| <= 8 and |a| <= 1
        mpmath = pytest.importorskip("mpmath")
        rs = np.random.default_rng(11)
        points = [(h, a) for h in (-8.0, -2.5, 0.0, 0.3, 1.0, 4.0, 8.0) for a in (-1.0, -0.4, 1e-3, 0.5, 1.0)]
        points += [tuple(p) for p in rs.uniform([-8.0, -1.0], [8.0, 1.0], size=(40, 2)).tolist()]
        for h, a in points:
            with mpmath.workdps(40):
                hh = mpmath.mpf(h) ** 2 / 2
                want = mpmath.quad(lambda x: mpmath.exp(-hh * (1 + x * x)) / (1 + x * x), [0, a]) / (2 * mpmath.pi)
            assert abs(owen_t(h, a) - float(want)) <= 1e-15


class TestIntegrate:
    def test_quartic(self):
        assert integrate(lambda t: t**4, 0.0, 1.0) == pytest.approx(0.2, abs=1e-10)

    def test_constant(self):
        assert integrate(lambda t: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_density_substitution(self):
        # int_0^1 phi(Phi^-1(u)) du = int phi(x)^2 dx = 1/(2 sqrt(pi))
        phi = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        val = integrate(lambda u: phi(norm_quantile(u)), 1e-14, 1.0 - 1e-14)
        assert val == pytest.approx(0.28209479177387814, abs=1e-8)

    def test_empty_interval(self):
        assert integrate(math.sin, 2.0, 2.0) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 8.0))
    def test_powers_with_a_cusp_at_either_end(self, c, d, k):
        # eta^k and (1 - eta)^k have their cusp at 0 and at 1, an end of [c, d] or beyond it
        c, d = min(c, d), max(c, d)
        assert abs(integrate(lambda x: x**k, c, d) - (d ** (k + 1) - c ** (k + 1)) / (k + 1)) <= 1e-14
        want = ((1.0 - c) ** (k + 1) - (1.0 - d) ** (k + 1)) / (k + 1)
        assert abs(integrate(lambda x: (1.0 - x) ** k, c, d) - want) <= 1e-14

    def test_array_of_ends_is_each_scalar_call(self):
        # more cells than one block of nodes, with empty and full intervals among them
        a = np.concatenate([np.linspace(0.0, 1.0, 70), [0.3, 0.0]])
        b = np.concatenate([np.ones(70), [0.3, 1.0]])
        f = lambda x: np.sqrt(x) * np.exp(-x)
        got = integrate(f, a, 1.0)
        assert got.tolist() == [integrate(f, x, 1.0) for x in a.tolist()]
        assert integrate(f, a, b).tolist() == [integrate(f, x, y) for x, y in zip(a.tolist(), b.tolist())]

    @pytest.mark.parametrize("a, b", [(0.5, 0.2), (math.nan, 1.0), (0.0, math.nan),
                                      (np.array([0.0, 0.9, 0.1]), np.array([1.0, 0.5, 1.0]))])
    def test_bad_ends_raise_before_f_is_called(self, a, b):
        calls = []
        with pytest.raises(DomainError, match="a <= b"):
            integrate(lambda x: calls.append(x) or x, a, b)
        assert calls == []


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

    def test_random_monotone_polynomials(self, monkeypatch):
        # |f(root)| <= tol for 100 random increasing polynomials with a root
        rs = np.random.default_rng(42)
        monkeypatch.setattr(numerics, "SOLVE_TOL", Tolerance(abs_tol=1e-10))
        for _ in range(100):
            coeffs = rs.uniform(0.1, 2.0, size=4)  # increasing on [0,1]
            shift = rs.uniform(0.05, 0.95) * coeffs.sum()

            def f(t, c=coeffs, s=shift):
                return c[0] * t + c[1] * t**2 + c[2] * t**3 + c[3] * t**5 - s

            root = solve_bracketed(f, Bracket(0.0, 1.0, f(0.0), f(1.0)))
            assert abs(f(root)) <= 1e-8

    def test_max_iter(self, monkeypatch):
        f = lambda t: t**3 + t - 1  # irrational root, secant cannot hit it exactly
        monkeypatch.setattr(numerics, "SOLVE_TOL", Tolerance(abs_tol=1e-30, max_iter=3))
        with pytest.raises(MaxIterExceeded):
            solve_bracketed(f, Bracket(0, 1, f(0), f(1)))


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

    @pytest.mark.parametrize("grid_step", [0, 0.5])
    def test_grid_step(self, grid_step):
        with pytest.raises(DomainError, match=rf"^grid_step must be in \(0, 0\.01\], got {grid_step}$"):
            find_sign_changes(lambda ts: ts - 0.3, grid_step)

    @pytest.mark.parametrize("grid_step, n", [(1e-4, 10_000), (1e-3, 1000)])
    def test_one_call_on_the_nodes_i_over_n(self, grid_step, n):
        seen = []
        find_sign_changes(lambda ts: seen.append(ts) or ts - 0.3, grid_step)
        assert len(seen) == 1
        assert seen[0].tolist() == [i / n for i in range(n + 1)]

    def test_bracket_ends_are_python_floats(self):
        (b,) = find_sign_changes(lambda ts: 0.3005 - ts, 1e-3).brackets
        assert all(type(v) is float for v in (b.lo, b.hi, b.f_lo, b.f_hi))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_names_the_first_such_node(self, bad):
        # past the only root: a scan that ignored it would return [0.3]
        with pytest.raises(DomainError, match=rf"^f is not finite at theta = 0\.901: {bad}$"):
            find_roots(lambda ts: np.where(ts > 0.9, bad, ts - 0.3), 1e-3)

    def test_nan_beside_a_negative_node_is_no_bracket(self):
        # a nan read as a sign would bracket [0.5, 0.501] and raise NoSignChange
        with pytest.raises(DomainError, match=r"^f is not finite at theta = 0\.501: nan$"):
            find_sign_changes(lambda ts: np.where(ts > 0.5, math.nan, ts - 0.9), 1e-3)


    def test_cells_evaluate_only_their_ends(self):
        seen = []
        scan = find_sign_changes(lambda ts: seen.append(ts) or ts - 0.3005, 1e-3, np.array([0, 300, 700]))
        assert seen[0].tolist() == [i / 1000 for i in (0, 1, 300, 301, 700, 701)]
        (b,) = scan.brackets
        assert (b.lo, b.hi) == (0.3, 0.301)

    def test_cells_bracket_only_grid_neighbours(self):
        # nodes 0.001 and 0.3 are evaluated, but no cell joins them
        scan = find_sign_changes(lambda ts: ts - 0.2, 1e-3, np.array([0, 300]))
        assert scan.brackets == () and scan.node_roots == ()

    @pytest.mark.parametrize("cells", [np.array([199, 200]), np.array([200])])
    def test_cells_find_node_roots_at_either_end(self, cells):
        assert find_sign_changes(lambda ts: ts - 0.2, 1e-3, cells).node_roots == (0.2,)

    @settings(max_examples=30, deadline=None)
    @given(cells=st.lists(st.integers(0, 999), min_size=1, max_size=40).map(np.array))
    def test_cells_are_a_part_of_the_full_scan(self, cells):
        f = lambda ts: np.sin(40.0 * ts) - 0.1
        full, part = find_sign_changes(f, 1e-3), find_sign_changes(f, 1e-3, cells)
        nodes = set(cells.tolist()) | set((cells + 1).tolist())
        assert part.brackets == tuple(
            b for b in full.brackets if round(b.lo * 1000) in nodes and round(b.hi * 1000) in nodes
        )
        assert set(part.node_roots) == {x for x in full.node_roots if round(x * 1000) in nodes}


def _bernstein_at(coeffs, x):
    """de Casteljau evaluation at one x, the reference for the isolation tests."""
    w = np.array(coeffs, dtype=float)
    while len(w) > 1:
        w = (1.0 - x) * w[:-1] + x * w[1:]
    return float(w[0])


def _from_roots(roots, degree):
    """Bernstein coefficients of degree ``degree`` of prod (x - r), by exact
    rational conversion from the power basis."""
    from fractions import Fraction

    power = [Fraction(1)]
    for r in roots:
        r = Fraction(r)
        power = [(power[j - 1] if j else 0) - r * (power[j] if j < len(power) else 0) for j in range(len(power) + 1)]
    power += [Fraction(0)] * (degree + 1 - len(power))
    return np.array([float(sum(Fraction(math.comb(k, j), math.comb(degree, j)) * power[j] for j in range(k + 1)))
                     for k in range(degree + 1)])


class TestIsolateRoots:
    def test_keeps_the_interval_of_each_root(self):
        coeffs = _from_roots([0.21, 0.55, 0.8], 9)
        kept = isolate_roots(coeffs, np.full(10, 1e-15), 6)
        assert [(iv.lo, iv.hi) for iv in kept] == [(0.203125, 0.21875), (0.546875, 0.5625), (0.796875, 0.8125)]
        assert all(iv.single for iv in kept)

    def test_root_free_polynomial_drops_everything(self):
        assert isolate_roots(_from_roots([1.3, -0.2], 5), np.full(6, 1e-15), 8) == ()

    def test_depth_zero_tests_the_whole_interval(self):
        assert isolate_roots(_from_roots([0.4], 3), np.zeros(4), 0) == (RootInterval(0.0, 1.0, True),)
        assert isolate_roots(_from_roots([1.4], 3), np.zeros(4), 0) == ()

    def test_root_at_a_split_point_keeps_both_sides(self):
        # p(0.5) = 0 is the last coefficient of the left half and the first of the right
        kept = isolate_roots(_from_roots([0.5, 0.9], 4), np.full(5, 1e-15), 5)
        assert [(iv.lo, iv.single) for iv in kept] == [(0.46875, False), (0.5, False), (0.875, True)]

    @pytest.mark.parametrize("end", [0.0, 1.0])
    def test_root_at_an_end_is_kept_uncertified(self, end):
        (iv,) = isolate_roots(_from_roots([end], 3), np.full(4, 1e-15), 4)
        assert (iv.lo == 0.0 or iv.hi == 1.0) and not iv.single

    def test_a_coefficient_within_its_bound_is_not_a_sign(self):
        # positive everywhere by 1e-9 at its minimum, but the bound says 1e-8
        coeffs = _from_roots([0.5, 0.5], 2) + 1e-9
        assert isolate_roots(coeffs, np.full(3, 1e-12), 4) == ()
        assert len(isolate_roots(coeffs, np.full(3, 1e-8), 4)) == 2

    @settings(max_examples=40, deadline=None)
    @given(
        roots=st.lists(st.floats(0.01, 0.99), min_size=0, max_size=4),
        extra=st.integers(0, 8),
        depth=st.integers(0, 9),
    )
    def test_every_root_lies_in_a_kept_interval(self, roots, extra, depth):
        coeffs = _from_roots(roots, len(roots) + extra)
        kept = isolate_roots(coeffs, np.full(len(coeffs), 1e-13), depth)
        assert all(any(iv.lo <= r <= iv.hi for iv in kept) for r in roots)
        assert all(iv.hi - iv.lo == 2.0**-depth for iv in kept)
        assert [iv.lo for iv in kept] == sorted(iv.lo for iv in kept)
        # a dropped point is beyond the bound, with the sign of its dropped neighbours
        xs = np.linspace(0.0, 1.0, 257).tolist()
        for a, b in zip(xs, xs[1:]):
            if not any(iv.lo <= b and a <= iv.hi for iv in kept):
                fa, fb = _bernstein_at(coeffs, a), _bernstein_at(coeffs, b)
                assert abs(fa) > 0.9e-13 and fa * fb > 0.0


class TestSolveDecreasing:
    def test_clamps_at_lo(self):
        assert solve_decreasing(lambda t: -0.1 - t) == 0.0

    def test_clamps_at_hi(self):
        assert solve_decreasing(lambda t: 2.0 - t) == 1.0

    def test_solves_on_sub_interval(self, monkeypatch):
        f = lambda t: 0.6 - t**2
        monkeypatch.setattr(numerics, "SOLVE_TOL", Tolerance(abs_tol=1e-13))
        root = solve_decreasing(f, 0.5, 0.9)
        assert root == solve_bracketed(f, Bracket(0.5, 0.9, f(0.5), f(0.9)))
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

    def test_budget_exhaustion_raises_as_the_scalar_solve(self, monkeypatch):
        s = np.array([-0.2, 1.0, 3.0])  # clamped at 0, solving, clamped at 1
        f = lambda ts, rows: s[rows] - ts - ts * ts * ts
        with monkeypatch.context() as m:
            m.setattr(numerics, "SOLVE_TOL", Tolerance(abs_tol=1e-30, max_iter=3))
            with pytest.raises(MaxIterExceeded):
                solve_decreasing(lambda t: 1.0 - t - t * t * t)
            with pytest.raises(MaxIterExceeded):
                solve_decreasing_rows(f, 3)
        assert solve_decreasing_rows(f, 3).tolist() == [solve_decreasing(lambda t, v=v: v - t - t * t * t)
                                                        for v in s.tolist()]

    def test_nan_end_raises_as_the_scalar_solve(self):
        f = lambda t: math.nan if t == 1.0 else 0.5 - t
        with pytest.raises(NoSignChange):
            solve_decreasing(f)
        with pytest.raises(NoSignChange):
            solve_decreasing_rows(lambda ts, rows: np.array([f(t) for t in ts.tolist()]), 2)


class TestFindRoots:
    def test_node_root_sorted_among_refined_roots(self, monkeypatch):
        f = lambda t: (t - 0.2123) * (t - 0.5) * (t - 0.7789)
        monkeypatch.setattr(numerics, "SOLVE_TOL", Tolerance(abs_tol=1e-13))
        roots = find_roots(f, 1e-3)
        assert len(roots) == 3
        assert roots[1] == 0.5  # exact node root, found by the scan itself
        assert roots[0] == pytest.approx(0.2123, abs=1e-12)
        assert roots[2] == pytest.approx(0.7789, abs=1e-12)

    def test_no_root(self):
        assert find_roots(lambda t: 1.0 + t, 1e-3) == []

    def test_refines_on_the_residual_at_one_theta(self):
        seen = []
        f = lambda ts: seen.append(ts) or (ts - 0.2123) * (ts - 0.7789)
        (lo, hi) = find_roots(f, 1e-3)
        assert len(seen[0]) == 1001 and all(ts.shape == (1,) for ts in seen[1:])
        g = lambda t: (t - 0.2123) * (t - 0.7789)
        scan = find_sign_changes(f, 1e-3)
        assert [lo, hi] == [solve_bracketed(g, b) for b in scan.brackets]
