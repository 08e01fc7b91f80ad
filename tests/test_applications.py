import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cosesi import applications
from cosesi.model import (
    BayesBeta,
    BetaEstimation,
    CostFunction,
    InadmissibleCorrelation,
    MLE,
    ModelError,
    RhoMixture,
    UnsupportedN,
    action_count_pmf,
    exp_decay_cost,
    affine_cost,
    linear_cost,
    power_cost,
    weighted_bernstein,
)
from cosesi.equilibrium import LARGE_N, _roots, cost_grid, expected_costs, solve_cosesi
from cosesi.applications import (
    ApplicationError,
    CreditSpec,
    MonopolyOutcome,
    NoPositiveEquilibrium,
    RhoZeroUnsupported,
    TwoSidedSpec,
    default_stats,
    mixed_population_employment,
    monopoly_demand,
    monopoly_optimize,
    monopoly_rational_demand,
    solve_bank_cosesi,
    solve_two_sided,
    tax_policy_check,
    two_part_supply,
    var_two_borrowers,
    vasicek_cdf,
)
from cosesi.numerics import integrate, norm_cdf
from cosesi.sampling import SeedableRng

from conftest import TAX_THETA0


class TestTwoSidedMarket:
    @pytest.mark.parametrize("lam", [0.1, 0.3, 0.5])
    def test_rational_expectations_benchmark(self, lam):
        out = solve_two_sided(TwoSidedSpec(lam=lam), rational=True)
        assert out.alpha_star == pytest.approx(lam, abs=1e-8)
        assert out.beta_star == pytest.approx(lam, abs=1e-8)
        assert out.employment == pytest.approx(lam**2, abs=1e-8)
        assert out.concept == "NE"

    @pytest.mark.parametrize("spec", [
        TwoSidedSpec(lam=0.3),
        TwoSidedSpec(lam=0.45, v=0.3, k=5, n=3, rho_w=0.4, rho_f=0.9, G_w=BetaEstimation()),
    ])
    def test_rational_is_the_infinite_uncorrelated_market_bitwise(self, spec):
        got = solve_two_sided(spec, rational=True)
        limit = solve_two_sided(replace(spec, k=math.inf, n=math.inf, rho_w=0.0, rho_f=0.0))
        assert (got.alpha_star, got.beta_star, got.employment) == (
            limit.alpha_star, limit.beta_star, limit.employment)
        assert got.concept == "NE"

    @pytest.mark.parametrize("lam", [0.1, 0.3, 0.5])
    def test_full_correlation_both_sides(self, lam):
        out = solve_two_sided(TwoSidedSpec(lam=lam, rho_w=1.0, rho_f=1.0))
        assert out.alpha_star == pytest.approx(lam**2, abs=1e-8)
        assert out.beta_star == pytest.approx(lam**2, abs=1e-8)
        assert out.employment == pytest.approx(lam**3, abs=1e-8)

    def test_correlated_workers_limit(self):
        # one-sided correlation with infinite samples: employment lam^(16/7)
        lam = 0.1
        out = solve_two_sided(TwoSidedSpec(lam=lam, k=math.inf, n=math.inf, rho_w=1.0, rho_f=0.0))
        assert out.employment == pytest.approx(lam ** (16.0 / 7.0), abs=1e-9)
        assert out.alpha_star == pytest.approx(lam ** (10.0 / 7.0), abs=1e-9)
        assert out.beta_star == pytest.approx(lam ** (8.0 / 7.0), abs=1e-9)

    def test_employment_invariant(self):
        out = solve_two_sided(TwoSidedSpec(lam=0.4, v=0.3, k=3, n=2, rho_w=0.2, rho_f=0.6))
        assert out.employment == pytest.approx(
            0.4 * out.alpha_star**0.3 * out.beta_star**0.7, abs=1e-9
        )

    def test_cosesi_employment_below_ne_on_grid(self):
        ne = solve_two_sided(TwoSidedSpec(lam=0.3), rational=True).employment
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        for rw in grid:
            for rf in grid:
                emp = solve_two_sided(TwoSidedSpec(lam=0.3, rho_w=rw, rho_f=rf)).employment
                assert emp <= ne + 1e-9

    def test_employment_increases_with_samples(self):
        for k in (1, 2, 4):
            e1 = solve_two_sided(TwoSidedSpec(lam=0.3, k=k, n=2, rho_w=0.5, rho_f=0.5)).employment
            e2 = solve_two_sided(TwoSidedSpec(lam=0.3, k=k + 1, n=2, rho_w=0.5, rho_f=0.5)).employment
            assert e2 >= e1 - 1e-10
        for n in (1, 2, 4):
            e1 = solve_two_sided(TwoSidedSpec(lam=0.3, k=2, n=n, rho_w=0.5, rho_f=0.5)).employment
            e2 = solve_two_sided(TwoSidedSpec(lam=0.3, k=2, n=n + 1, rho_w=0.5, rho_f=0.5)).employment
            assert e2 >= e1 - 1e-10

    def test_mixed_population_endpoints(self):
        spec = TwoSidedSpec(lam=0.1, k=math.inf, n=math.inf)
        at0 = mixed_population_employment(spec, 0.0)
        at1 = mixed_population_employment(spec, 1.0)
        assert at0.employment_total == pytest.approx(0.01, abs=1e-9)
        assert at1.employment_total == pytest.approx(0.1 ** (16.0 / 7.0), abs=1e-9)
        assert at1.disadvantage_ratio == pytest.approx(0.1 ** (-2.0 / 7.0), abs=1e-9)

    def test_bad_spec(self):
        with pytest.raises(ApplicationError):
            TwoSidedSpec(lam=1.5)

    def test_polarized_term_uses_grid_endpoints(self):
        # Bayes posteriors give C_{k,0} > 0 and C_{k,1} < 1, so the polarized
        # term theta C_{k,1} + (1 - theta) C_{k,0} is not theta itself
        from scipy.optimize import brentq

        spec = TwoSidedSpec(0.4, 0.5, 3, 4, 0.6, 0.3, BayesBeta(1, 1, 0), BayesBeta(2, 1, 0))

        def side(G, m, rho):
            grid = [G.expected_value(m, y / m, math.sqrt) for y in range(m + 1)]
            return lambda other: weighted_bernstein(m, other, rho, grid)

        s_w, s_f = side(spec.G_w, 3, 0.6), side(spec.G_f, 4, 0.3)
        alpha_of = lambda b: (0.4 * s_w(b)) ** (1 / 1.5)
        beta = brentq(lambda b: b - (0.4 * s_f(alpha_of(b))) ** (1 / 1.5), 1e-12, 1.0, xtol=1e-15)
        out = solve_two_sided(spec)
        assert out.beta_star == pytest.approx(beta, abs=1e-10)
        assert out.alpha_star == pytest.approx(alpha_of(beta), abs=1e-10)
        assert out.alpha_star == pytest.approx(0.3956, abs=1e-4)


class TestMonopoly:
    def test_full_correlation_inverse_demand(self):
        # theta = (1 - p)/(2 - p) for prices above the e^{-6} cutoff
        for p in (0.01, 0.3, 0.586, 0.9):
            got = monopoly_demand(p, rho=1.0, t=6.0, n=4)
            assert got == pytest.approx((1 - p) / (2 - p), abs=1e-9)

    @pytest.mark.parametrize("n, G", [(2, MLE()), (4, MLE()), (3, BetaEstimation())])
    def test_full_correlation_is_the_closed_form_bitwise(self, n, G):
        # theta = (1 - lam_0) / (1 - lam_0 + lam_1), lam_z = min(1 + p - C_{n,z}, 1)
        cost = exp_decay_cost(6.0)
        for p in (0.0, 0.001, 0.137, 0.586, 0.9, 1.0):
            lam0, lam1 = (min(1.0 + p - G.expected_value(n, z, cost), 1.0) for z in (0.0, 1.0))
            want = (1.0 - lam0) / (1.0 - lam0 + lam1)
            assert monopoly_demand(p, rho=1.0, t=6.0, n=n, G=G) == want

    def test_no_buyers_at_max_price(self):
        assert monopoly_demand(1.0, rho=1.0, t=6.0, n=3) == pytest.approx(0.0, abs=1e-9)

    def test_single_signal_matches_shifted_cosesi(self):
        # the rho = 0, n = 1 demand solves the SESI equation with the
        # purchase threshold min(1 + p - C, 1) playing the cost role
        p, t = 0.2, 6.0
        shifted = CostFunction(
            fn=lambda z: min(1.0 + p - math.exp(-t * z), 1.0), name="shifted"
        )
        want = solve_cosesi(shifted, MLE(), 1, 0.0).theta
        assert monopoly_demand(p, rho=0.0, t=t, n=1) == pytest.approx(want, abs=1e-9)

    def test_rational_demand_equation(self):
        th = monopoly_rational_demand(0.449, t=6.0)
        assert th == pytest.approx(1 - 0.449 - (1 - math.exp(-6 * th)), abs=1e-10)

    def test_rational_optimum(self):
        out = monopoly_optimize(rho=0.0, t=6.0, rational=True)
        assert out.quantity_star == pytest.approx(0.10, abs=5e-3)
        assert out.profit_star == pytest.approx(0.045, abs=5e-3)
        # the profit curve is flat: the narrated price 0.449 loses < 5e-5 profit
        th_at = monopoly_rational_demand(0.449, t=6.0)
        assert out.profit_star - 0.449 * th_at < 5e-5
        assert out.profit_star >= 0.449 * th_at

    def test_full_correlation_optimum(self):
        out = monopoly_optimize(rho=1.0, t=6.0, n=2)
        assert out.price_star == pytest.approx(2 - math.sqrt(2), abs=5e-3)
        assert out.quantity_star == pytest.approx(1 - 1 / math.sqrt(2), abs=5e-3)
        assert out.profit_star == pytest.approx(3 - 2 * math.sqrt(2), abs=5e-3)

    def test_profit_exceeds_rational_for_all_n(self):
        rational = monopoly_optimize(rho=0.0, t=6.0, rational=True).profit_star
        for n in (1, 2, 5):
            assert monopoly_optimize(rho=1.0, t=6.0, n=n).profit_star > rational

    def test_profit_nondecreasing_in_rho_large_n(self):
        # consistent-procedure limit of the profit ranking, n = 1000 proxy
        profits = [
            monopoly_optimize(rho=r, t=6.0, n=1000).profit_star
            for r in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(profits, profits[1:]))

    @pytest.mark.parametrize("n", [2, 200_000])
    def test_inadmissible_rho(self, n):
        with pytest.raises(InadmissibleCorrelation):
            monopoly_optimize(rho=1.5, t=6.0, n=n)
        with pytest.raises(InadmissibleCorrelation):
            monopoly_demand(0.3, rho=-0.1, n=n)


# (n, G): finite grids of both procedures, and the MLE limit above LARGE_N
_DEMAND_LAWS = st.one_of(
    st.tuples(st.integers(1, 60), st.sampled_from([MLE(), BetaEstimation()])),
    st.just((200_000, MLE())),
)


class TestMonopolyDemandRows:
    """A lockstep row does not read the others: a demand curve's entry at a
    price is the one-price demand there, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        rho=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        t=st.floats(0.0, 10.0),
        law=_DEMAND_LAWS,
        prices=st.lists(st.floats(0.0, 1.0), max_size=20),
    )
    def test_rows_are_the_one_price_demand_bit_for_bit(self, rho, t, law, prices):
        n, G = law
        prices = np.array([0.0, 1.0, *prices])  # the clamped ends among them
        got = applications._demand_curve(rho, t, n, G)(prices).tolist()
        assert got == [monopoly_demand(p, rho, t, n, G) for p in prices.tolist()]

    @pytest.mark.parametrize("rho, n, rational", [(0.35, 3, False), (1.0, 4, False), (0.0, 2, True)])
    def test_demand_curve_is_the_one_price_demand(self, rho, n, rational):
        out = monopoly_optimize(rho, 6.0, n, rational=rational)
        prices = np.arange(0.0, 1.0005, 1e-3).tolist()
        if rational:
            want = [(p, monopoly_rational_demand(p, 6.0)) for p in prices]
        else:
            want = [(p, monopoly_demand(p, rho, 6.0, n)) for p in prices]
        assert out.demand_curve == tuple(want)

    @settings(max_examples=40, deadline=None)
    @given(
        t=st.one_of(st.sampled_from([0.0, 6.0]), st.floats(0.0, 30.0)),
        prices=st.lists(st.floats(0.0, 1.0), max_size=20),
    )
    @example(t=4.6561, prices=[0.449])
    def test_rational_rows_are_the_one_price_demand_bit_for_bit(self, t, prices):
        prices = np.array([0.0, 1.0, *prices])  # the clamped ends among them
        got = applications._rational_demand_curve(t)(prices).tolist()
        assert got == [monopoly_rational_demand(p, t) for p in prices.tolist()]

    @pytest.mark.parametrize("t", [0.5, 3.0, 6.8663, 12.0])
    def test_rational_curve_is_the_one_price_demand(self, t):
        out = monopoly_optimize(0.0, t, rational=True)
        assert out.demand_curve == tuple((p, monopoly_rational_demand(p, t)) for p, _ in out.demand_curve)

    def test_naive_curve_at_n_200_is_the_one_price_demand(self):
        # 10 000 cost cells hold 49 prices at n = 200: the 1 001 prices span 21 blocks
        out = monopoly_optimize(0.4, 6.0, 200)
        sampled = out.demand_curve[::37] + out.demand_curve[-1:]
        assert sampled == tuple((p, monopoly_demand(p, 0.4, 6.0, 200)) for p, _ in sampled)

    def test_blocks_do_not_change_the_demand(self):
        # 10 000 cost cells hold 9 prices at n = 1000: 40 prices make five blocks
        demand = applications._demand_curve(0.3, 6.0, 1000, MLE())
        prices = np.linspace(0.0, 1.0, 40)
        assert demand(prices).tolist() == [demand(np.array([p]))[0] for p in prices.tolist()]


def _never(*args, **kwargs):
    raise AssertionError("a solve this path must not make")


def _resolving_search(rho, t, n, rational):
    """The price search as it was before each grid kept its bracket's ends:
    every refinement grid solves all 21 of its prices."""
    demand = (applications._rational_demand_curve(t) if rational
              else applications._demand_curve(rho, t, n, MLE()))
    prices = np.arange(0.0, 1.0 + 1e-3 / 2, 1e-3)
    quantities = demand(prices)
    curve = tuple(zip(prices.tolist(), quantities.tolist()))
    while True:
        best = int(np.argmax(prices * quantities))
        lo, hi = prices[max(0, best - 1)], prices[min(len(prices) - 1, best + 1)]
        if hi - lo <= applications._REFINE_WIDTH:
            break
        prices = np.linspace(lo, hi, applications._REFINE_PRICES)
        quantities = demand(prices)
    p, q = float(prices[best]), float(quantities[best])
    return MonopolyOutcome(p, q, p * q, curve, "NE" if rational else ("SESI" if rho == 0.0 else "CoSESI"))


class TestMonopolyPriceSearch:
    """The price search reads demand only through the lockstep curves."""

    @pytest.mark.parametrize("rho, t, n, rational", [
        *((rho, t, n, False) for rho in (0.0, 0.3, 0.62, 1.0) for t in (3.0, 6.0, 7.2) for n in (2, 5, 50)),
        *((0.0, t, 2, True) for t in (3.0, 6.0, 7.2)),
    ])
    def test_kept_ends_give_the_resolving_search(self, rho, t, n, rational):
        assert monopoly_optimize(rho, t, n, rational=rational) == _resolving_search(rho, t, n, rational)

    @pytest.mark.parametrize("rational", [False, True])
    def test_each_refinement_grid_solves_its_19_interior_prices(self, rational, monkeypatch):
        name = "_rational_demand_curve" if rational else "_demand_curve"
        curve, rows = getattr(applications, name), []

        def spy(*args):
            demand = curve(*args)
            return lambda prices: rows.append(len(prices)) or demand(prices)

        monkeypatch.setattr(applications, name, spy)
        monopoly_optimize(0.3, 6.0, 5, rational=rational)
        assert rows[0] == 1001 and len(rows) > 1
        assert rows[1:] == [applications._REFINE_PRICES - 2] * (len(rows) - 1)

    @pytest.mark.parametrize("rho, n, rational", [
        *((rho, n, False) for rho in (0.0, 0.3, 1.0) for n in (2, 50)),
        (0.0, 2, True),
    ])
    def test_search_makes_no_scalar_solve(self, rho, n, rational, monkeypatch):
        monkeypatch.setattr(applications, "_cosesi_root", _never)
        monkeypatch.setattr(applications, "solve_decreasing", _never)
        out = monopoly_optimize(rho, 6.0, n, rational=rational)
        assert 0.0 < out.price_star < 1.0

    def test_full_correlation_price_is_the_closed_form(self):
        # demand (1 - p)/(2 - p) peaks at p = 2 - sqrt(2), with profit 3 - 2 sqrt(2)
        out = monopoly_optimize(1.0, 6.0, 2)
        assert abs(out.price_star - (2.0 - math.sqrt(2.0))) <= 1e-8
        assert abs(out.profit_star - (3.0 - 2.0 * math.sqrt(2.0))) <= 1e-15

    @pytest.mark.parametrize("rho, n", [(0.0, 2), (0.3, 50), (1.0, 2), (0.5, 1000)])
    def test_quantity_is_the_demand_at_the_price(self, rho, n):
        out = monopoly_optimize(rho, 6.0, n)
        assert out.quantity_star == monopoly_demand(out.price_star, rho, 6.0, n)
        assert out.profit_star == out.price_star * out.quantity_star

    @pytest.mark.parametrize("t", [0.5, 6.0])
    def test_rational_quantity_is_the_demand_at_the_price(self, t):
        out = monopoly_optimize(0.0, t, rational=True)
        assert out.quantity_star == monopoly_rational_demand(out.price_star, t)

    @pytest.mark.parametrize("rho, n", [(0.0, 2), (0.7, 10), (1.0, 4)])
    def test_price_is_the_best_of_a_finer_grid_to_its_stop_width(self, rho, n):
        # 201 prices 1e-9 apart around p*: none beats it by more than the
        # 1e-14 unevenness the demand's root tolerance leaves in profit
        out = monopoly_optimize(rho, 6.0, n)
        prices = out.price_star + np.linspace(-1e-7, 1e-7, 201)
        profits = prices * applications._demand_curve(rho, 6.0, n, MLE())(prices)
        assert profits.max() - out.profit_star <= 1e-14
        assert out.profit_star >= max(p * q for p, q in out.demand_curve)

    @pytest.mark.parametrize("p", [2.0, -0.5, math.nan])
    def test_one_price_demands_refuse_a_price_outside_0_1(self, p, monkeypatch):
        monkeypatch.setattr(applications, "solve_decreasing_rows", _never)
        monkeypatch.setattr(applications, "_cosesi_roots", _never)
        with pytest.raises(ApplicationError, match="price must be in \\[0,1\\]"):
            monopoly_rational_demand(p)
        with pytest.raises(ApplicationError, match="price must be in \\[0,1\\]"):
            monopoly_demand(p, 0.3)

    @pytest.mark.parametrize("kwargs, error, message", [
        ({"t": -1.0}, ModelError, "exp_decay rate must be >= 0, got -1.0"),
        ({"t": math.nan}, ModelError, "exp_decay rate must be >= 0, got nan"),
        ({"t": math.inf}, ModelError, "exp_decay rate must be finite, got inf"),
        ({"rho": 5.0}, InadmissibleCorrelation, "rho must be in [0,1], got 5.0"),
        ({"rho": math.nan}, InadmissibleCorrelation, "rho must be in [0,1], got nan"),
        ({"n": -5}, UnsupportedN, "n must be a positive integer, got -5"),
        ({"n": 2.5}, UnsupportedN, "n must be a positive integer, got 2.5"),
    ])
    @pytest.mark.parametrize("rational", [False, True])
    def test_inputs_are_checked_alike_before_any_solve(self, kwargs, error, message, rational, monkeypatch):
        monkeypatch.setattr(applications, "solve_decreasing_rows", _never)
        monkeypatch.setattr(applications, "_cosesi_roots", _never)
        args = {"rho": 0.3, "t": 6.0, "n": 2, **kwargs}
        with pytest.raises(error) as info:
            monopoly_optimize(**args, rational=rational)
        assert str(info.value) == message


class TestVasicek:
    def test_gaussian_mode_uniform_limit(self):
        for eta in np.linspace(0.1, 0.9, 9):
            got = vasicek_cdf(eta, 0.5, 0.0, 1e-12, gaussian_omega=True)
            assert got == pytest.approx(eta, abs=1e-6)

    def test_gaussian_mode_median_invariant(self):
        for rho in (0.1, 0.5, 0.9, 1.0):
            assert vasicek_cdf(0.5, 0.7, 0.0, rho, gaussian_omega=True) == pytest.approx(0.5, abs=1e-12)

    def test_valid_cdf_random_parameters(self):
        rs = np.random.default_rng(8)
        for _ in range(100):
            theta = rs.uniform(0.05, 1.0)
            omega = rs.uniform(-2.0, 2.0)
            rho = rs.uniform(0.05, 0.99)
            etas = np.linspace(1e-9, 1 - 1e-9, 41)
            vals = [vasicek_cdf(e, theta, omega, rho) for e in etas]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            assert vasicek_cdf(0.0, theta, omega, rho) == 0.0
            assert vasicek_cdf(1.0, theta, omega, rho) == 1.0
            assert vals[0] < 0.5 + 0.5  # finite

    def test_monte_carlo_fixed_omega(self):
        # simulate the conditional default rate and compare the limiting CDF
        theta, omega, rho = 0.8, 0.0, 0.4
        gen = SeedableRng(99).generator()
        xi = gen.normal(0.0, 1.0 / theta, size=10**6)
        from scipy.special import ndtr

        eta_inf = ndtr((omega - xi * math.sqrt(rho)) * theta / math.sqrt(1 - rho))
        for q in np.linspace(0.1, 0.9, 9):
            emp = float((eta_inf <= q).mean())
            exact = vasicek_cdf(q, theta, omega, rho)
            se = math.sqrt(max(exact * (1 - exact), 1e-12) / len(xi))
            assert abs(emp - exact) <= 3 * se + 1e-9

    def test_monte_carlo_gaussian_omega(self):
        theta, rho = 0.6, 0.5
        gen = SeedableRng(7).generator()
        n_draws = 10**6
        xi = gen.normal(0.0, 1.0 / theta, size=n_draws)
        omega = gen.normal(0.0, 1.0 / theta, size=n_draws)
        from scipy.special import ndtr

        eta_inf = ndtr((omega - xi * math.sqrt(rho)) * theta / math.sqrt(1 - rho))
        for q in np.linspace(0.1, 0.9, 9):
            emp = float((eta_inf <= q).mean())
            exact = vasicek_cdf(q, theta, 0.0, rho, gaussian_omega=True)
            se = math.sqrt(exact * (1 - exact) / n_draws)
            assert abs(emp - exact) <= 3 * se + 1e-9

    def test_rho_zero_direct_mode_rejected(self):
        with pytest.raises(RhoZeroUnsupported):
            vasicek_cdf(0.3, 0.5, 0.1, 0.0)


class TestDefaultStats:
    def test_conditional_formula(self):
        got = default_stats(0.4, 0.7, 0.3, "conditional", xi=1.2)
        want = norm_cdf((0.4 - 1.2 * math.sqrt(0.3)) * 0.7 / math.sqrt(0.7))
        assert got == pytest.approx(want, abs=1e-12)

    def test_unconditional(self):
        assert default_stats(0.4, 0.7, 0.3) == pytest.approx(norm_cdf(0.28), abs=1e-12)

    def test_high_credibility_limit(self):
        assert default_stats(-40.0, 0.9, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_covariance_extremes(self):
        assert default_stats(0.7, 1.0, 0.0, "covariance") == pytest.approx(0.0, abs=1e-10)
        p = norm_cdf(0.7)
        assert default_stats(0.7, 1.0, 1.0, "covariance") == pytest.approx(p * (1 - p), abs=1e-10)

    def test_covariance_increasing_in_rho(self):
        vals = [default_stats(0.3, 1.0, r, "covariance") for r in np.linspace(0, 1, 11)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestBankEquilibrium:
    def test_prohibitive_cost_shuts_everything(self):
        always_one = CostFunction(fn=lambda t: 1.0, name="unit")
        out = solve_bank_cosesi(CreditSpec(omega=0.5, rho=0.4, n=2, cost=always_one))
        assert out.theta_star == pytest.approx(0.0, abs=1e-9)

    def test_matches_grid_scan(self):
        # omega = 0, shutdown cost c(1 - theta') with c(x) = 1 - x
        from cosesi.model import binom_pmf

        cost = CostFunction(fn=lambda x: 1.0 - x, deriv=lambda x: -1.0, name="1-x")
        spec = CreditSpec(omega=0.0, rho=0.5, n=2, cost=cost)
        out = solve_bank_cosesi(spec)

        def residual(t):
            grid = np.array([y / 2 for y in range(3)])  # c(1-z) = z
            lam = np.array(
                [1.0 - vasicek_cdf(c, t, 0.0, 0.5) if 0 < c < 1 else (0.0 if c >= 1 else 1.0)
                 for c in grid]
            )
            base = float(binom_pmf(2, t) @ lam)
            pol = t * lam[2] + (1 - t) * lam[0]
            return t - (0.5 * base + 0.5 * pol)

        # dense 1e-6 grid locates the sign change independently of the solver
        ts = np.arange(0.0, 1.0 + 1e-6, 1e-6)
        vals = np.array([residual(t) for t in ts[::1000]])
        i = int(np.nonzero(np.diff(np.sign(vals)))[0][0]) * 1000
        fine = ts[i : i + 1001]
        fine_vals = np.array([residual(t) for t in fine])
        j = int(np.nonzero(np.diff(np.sign(fine_vals)))[0][0])
        root = 0.5 * (fine[j] + fine[j + 1])  # midpoint of the 1e-6 cell
        assert out.theta_star == pytest.approx(root, abs=1e-6)

    def test_full_correlation_limit_equation(self):
        # As rho -> 1 the tail mass Lam(C, theta) approaches Phi(omega theta)
        # for every interior expected cost C (the loss law concentrates on
        # {0, 1}), so the equilibrium approaches the root of
        # theta = Phi(omega * theta).  The source narration "Lam -> 0 hence
        # theta* -> 0" follows the vanishing density prefactor and drops the
        # endpoint atom; the CDF complement keeps it.
        cost = CostFunction(fn=lambda x: 0.9 - 0.6 * x, name="0.9-0.6x")
        omega = -1.0
        # shutdown-cost grid c(1-z) = 0.3 + 0.6 z stays strictly inside (0,1)
        spec = CreditSpec(omega=omega, rho=1.0 - 1e-9, n=2, cost=cost)
        out = solve_bank_cosesi(spec)

        def limit_res(t):
            return t - norm_cdf(omega * t)

        lo, hi = 1e-6, 1.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if limit_res(lo) * limit_res(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert out.theta_star == pytest.approx(0.5 * (lo + hi), abs=1e-4)
        assert out.p_star == pytest.approx(norm_cdf(omega * out.theta_star), abs=1e-12)

    def test_flat_middle_root_is_one_half(self):
        # the residual is flat at the symmetric middle root, so a |f| stop far
        # from the root would move it well past the solver's tolerance
        out = solve_bank_cosesi(CreditSpec(-0.017, 0.251, 3, linear_cost(), gaussian_omega=True))
        assert len(out.roots) == 3
        assert abs(out.roots[1] - 0.5) <= 1e-13

    def test_rho_validation(self):
        with pytest.raises(ApplicationError):
            CreditSpec(omega=0.0, rho=0.0, n=2, cost=linear_cost())

    @pytest.mark.parametrize("spec", [
        CreditSpec(0.0, 1.0, 2, power_cost(2)),
        CreditSpec(0.0, 0.5, 2, linear_cost(), gaussian_omega=True),
    ])
    def test_continuum_of_equilibria_raises(self, spec):
        # the residual is 0 up to rounding on all of [0, 1]; a scan would
        # report hundreds of rounding roots and theta* = 0
        with pytest.raises(ApplicationError, match="every theta in \\[0,1\\] solves"):
            solve_bank_cosesi(spec)


def _scalar_bank_residual(spec):
    """The bank residual one theta at a time: every cost cell mapped by
    ``1 - vasicek_cdf`` at that theta, then ``ExpectedCosts.psi``."""
    shutdown_cost = lambda t: np.clip(spec.cost(1.0 - t), 0.0, 1.0)
    costs = expected_costs(spec.G, spec.n, shutdown_cost).map(lambda v: min(1.0, max(0.0, v)))

    def res(theta):
        tail = lambda v: 1.0 - vasicek_cdf(v, theta, spec.omega, spec.rho, spec.gaussian_omega)
        return theta - costs.map(tail).psi(theta, spec.rho)

    return res


def _scalar_bank(spec):
    """``solve_bank_cosesi`` on the one-theta residual."""
    res = _scalar_bank_residual(spec)
    if all(abs(res(i / 10)) <= 1e-12 for i in range(11)):
        raise ApplicationError("a continuum of bank equilibria: every theta in [0,1] solves")
    roots = _roots(lambda xs: np.array([res(t) for t in xs.tolist()]), 1e-3)[0]
    if not roots:
        raise ApplicationError("no bank equilibrium found on [0,1]")
    p_star = 0.5 if spec.gaussian_omega else norm_cdf(spec.omega * roots[0])
    return applications.BankOutcome(roots[0], p_star, roots)


def _outcome(solve, spec):
    """The outcome, or the error's type and message."""
    try:
        return solve(spec)
    except Exception as exc:
        return type(exc), str(exc)


_BANK_COSTS = st.one_of(
    st.floats(0.05, 1.0).map(lambda slope: affine_cost(1.0, -slope)),  # the workload's costs
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(lambda ab: affine_cost(ab[0], ab[1] - ab[0])),
    st.floats(0.3, 4.0).map(power_cost),
    st.just(linear_cost()),
)


class TestBankResidualRows:
    """The bank residual on arrays is, at every scan node and every single
    theta, the one-theta residual bit for bit, and so are the outcomes."""

    @settings(max_examples=30, deadline=None)
    @given(
        omega=st.floats(-2.0, 2.0),
        rho=st.one_of(st.just(1.0), st.floats(1e-6, 1.0)),
        n=st.integers(1, 40),
        cost=_BANK_COSTS,
        G=st.sampled_from([MLE(), BetaEstimation()]),
        gaussian=st.booleans(),
        theta=st.floats(0.0, 1.0),
    )
    @example(omega=0.3, rho=0.4, n=5, cost=affine_cost(1.0, -0.8), G=MLE(), gaussian=False, theta=0.25)
    @example(omega=0.0, rho=0.5, n=2, cost=affine_cost(1.0, -1.0), G=MLE(), gaussian=False, theta=0.5)
    @example(omega=0.0, rho=1.0, n=2, cost=power_cost(2.0), G=MLE(), gaussian=False, theta=0.3)
    @example(omega=0.0, rho=0.5, n=2, cost=linear_cost(), G=MLE(), gaussian=True, theta=0.3)
    def test_every_scan_node_is_the_scalar_residual(self, omega, rho, n, cost, G, gaussian, theta):
        spec = CreditSpec(omega, rho, n, cost, G, gaussian)
        res, ref = applications._bank_residual(spec), _scalar_bank_residual(spec)
        nodes = np.arange(1001) / 1000
        assert res(nodes).tolist() == [ref(t) for t in nodes.tolist()]
        assert res(np.array([theta])).tolist() == [ref(theta)]
        assert _outcome(solve_bank_cosesi, spec) == _outcome(_scalar_bank, spec)

    @pytest.mark.parametrize("gaussian", [False, True])
    @pytest.mark.parametrize("rho", [0.4, 1.0])
    def test_the_limit_is_the_scalar_residual(self, gaussian, rho):
        spec = CreditSpec(0.3, rho, LARGE_N + 1, affine_cost(1.0, -0.8), MLE(), gaussian)
        res, ref = applications._bank_residual(spec), _scalar_bank_residual(spec)
        nodes = np.arange(1001) / 1000
        assert res(nodes).tolist() == [ref(t) for t in nodes.tolist()]
        assert res(np.array([0.123])).tolist() == [ref(0.123)]
        assert _outcome(solve_bank_cosesi, spec) == _outcome(_scalar_bank, spec)


class TestVarTwoBorrowers:
    def test_independent_defaults(self):
        assert var_two_borrowers(0.05, 0.0, 0.95) == 0.5

    def test_comonotone_defaults(self):
        # tau = 1 and alpha above the survival probability: full loss
        assert var_two_borrowers(0.05, 1.0, 0.96) == 1.0

    def test_high_correlation_story(self):
        # thresholds 0.94525 and 0.95475 put alpha = 0.95 in the half-loss band
        assert var_two_borrowers(0.05, 0.9, 0.95) == 0.5

    def test_matches_four_outcome_enumeration(self):
        grid = np.linspace(0.01, 0.99, 20)
        for p in grid:
            for tau in grid:
                p11 = p * p + tau * p * (1 - p)
                p00 = (1 - p) ** 2 + tau * p * (1 - p)
                cdf0 = p00
                cdf_half = 1.0 - p11
                for alpha in grid:
                    if alpha <= cdf0:
                        want = 0.0
                    elif alpha <= cdf_half:
                        want = 0.5
                    else:
                        want = 1.0
                    assert var_two_borrowers(p, tau, alpha) == want

    def test_monotone_in_alpha(self):
        grid = np.linspace(0.0, 1.0, 20)
        for p in grid:
            for tau in grid:
                losses = [var_two_borrowers(p, tau, a) for a in grid]
                assert all(b >= a for a, b in zip(losses, losses[1:]))

    def test_monotone_in_tau_above_survival_probability(self):
        # Monotonicity in the default correlation holds only for confidence
        # levels above 1 - p.  Below that, extra correlation moves mass onto
        # the zero-loss outcome and the quantile can drop from 0.5 to 0, a
        # standard feature of quantile risk measures.
        grid = np.linspace(0.0, 1.0, 20)
        for p in np.linspace(0.02, 0.98, 20):
            for alpha in grid:
                if alpha <= 1.0 - p:
                    continue
                losses = [var_two_borrowers(p, tau, alpha) for tau in grid]
                assert all(b >= a for a, b in zip(losses, losses[1:]))

    def test_tau_nonmonotone_counterexample(self):
        # p = 0.3, alpha = 0.6 lies in ((1-p)^2, 1-p): raising tau from 0
        # to 0.9 moves the quantile down, not up
        assert var_two_borrowers(0.3, 0.0, 0.6) == 0.5
        assert var_two_borrowers(0.3, 0.9, 0.6) == 0.0


class TestTaxPolicy:
    def test_untaxed_sesi_root(self, mle, pow2):
        out = tax_policy_check(pow2, mle, 2, 0.0, 0.0)
        assert out.theta_zero == pytest.approx(TAX_THETA0, abs=1e-9)
        # check value is positive at the true root: no tax recommended
        assert out.check_value == pytest.approx(1 - 3 * TAX_THETA0**2, abs=1e-9)
        assert not out.recommend_tax

    def test_full_correlation_case(self, mle, pow2):
        out = tax_policy_check(pow2, mle, 2, 1.0, 0.0)
        assert out.theta_tau == pytest.approx(0.5, abs=1e-9)
        assert out.check_value == pytest.approx(0.25, abs=1e-9)
        assert not out.recommend_tax

    def test_prohibitive_tax(self, mle, pow2):
        out = tax_policy_check(pow2, mle, 2, 0.3, 1.0)
        assert out.theta_tau == pytest.approx(0.0, abs=1e-12)

    def test_welfare_matches_quadrature(self, mle, pow2):
        # closed-form welfare equals direct numerical integration over types
        from cosesi.model import action_count_pmf, RhoMixture

        rho, tau = 0.4, 0.1
        out = tax_policy_check(pow2, mle, 2, rho, tau)
        pmf = action_count_pmf(RhoMixture(rho), 2, out.theta_tau).probs
        grid = np.minimum([pow2(y / 2) + tau for y in range(3)], 1.0)
        want = sum(
            w * integrate(lambda e: e - pow2(out.theta_tau), a, 1.0)
            for w, a in zip(pmf, grid)
        )
        assert out.welfare == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("n, rho, tau", [(2, 0.0, 0.0), (5, 0.4, 0.1), (3, 0.25, 0.05), (7, 1.0, 0.3)])
    def test_welfare_is_the_pmf_weighted_cell_welfare(self, mle, pow2, n, rho, tau):
        out = tax_policy_check(pow2, mle, n, rho, tau)
        taxed = np.minimum(cost_grid(mle, n, pow2) + tau, 1.0)
        cells = (1.0 - taxed**2) / 2.0 - pow2(out.theta_tau) * (1.0 - taxed)
        pmf = action_count_pmf(RhoMixture(rho), n, out.theta_tau).probs
        assert abs(out.welfare - float(np.sum(pmf * cells))) <= 1e-14

    def test_inadmissible_rho(self, mle, pow2):
        with pytest.raises(InadmissibleCorrelation):
            tax_policy_check(pow2, mle, 2, -0.2, 0.1)

    def test_taxing_lowers_participation(self, mle, pow2):
        t0 = tax_policy_check(pow2, mle, 2, 0.0, 0.0).theta_tau
        t1 = tax_policy_check(pow2, mle, 2, 0.0, 0.2).theta_tau
        assert t1 < t0


class TestTwoPartSupply:
    def test_no_shock_reduces_to_sesi(self, mle, pow2):
        out = two_part_supply(pow2, mle, 0.0)
        assert out.theta1 == pytest.approx(solve_cosesi(pow2, mle, 2, 0.0).theta, abs=1e-9)
        assert out.theta2 == out.theta1

    def test_linear_cost_degenerate(self, mle):
        out = two_part_supply(linear_cost(), mle, 0.05)
        assert out.delta_curvature == pytest.approx(0.0, abs=1e-12)
        assert out.condition_ok
        # with a linear expected cost the pre-shock root solves
        # 1 - t = c(t + eps/2), slightly below the unshocked NE
        assert out.theta1 == pytest.approx(0.5 - 0.05 / 4, abs=1e-9)

    def test_negative_shock_sorts_out(self, mle, pow2):
        out = two_part_supply(pow2, mle, -0.05)
        assert out.theta1 > out.theta2
        assert out.condition_ok

        def residual(t):
            t2 = t - 0.05
            p0 = (1 - t) * (1 - t2)
            p1 = t * (1 - t2) + (1 - t) * t2
            p2 = t * t2
            return 1 - t - (p0 * 0.0 + p1 * 0.25 + p2 * 1.0)

        ts = np.arange(0.05, 1.0, 1e-6)
        vals = residual(ts)
        i = int(np.nonzero(np.diff(np.sign(vals)))[0][0])
        assert out.theta1 == pytest.approx(ts[i], abs=1e-5)

    @pytest.mark.parametrize("eps, shown", [(5.0, "5"), (1.0, "1"), (-1.0, "-1"), (-2.5, "-2.5"), (math.nan, "nan")])
    def test_shock_of_unit_size_or_more_is_refused(self, mle, pow2, eps, shown, monkeypatch):
        # no theta keeps both periods in [0, 1]; refused before the grid is built
        monkeypatch.setattr(applications, "cost_grid", None)
        with pytest.raises(ApplicationError, match=rf"^supply shock needs \|eps\| < 1, got {shown}$"):
            two_part_supply(pow2, mle, eps)

    def test_shock_just_below_unit_size_solves(self, mle, pow2):
        out = two_part_supply(pow2, mle, 0.99)
        assert 0.0 <= out.theta1 <= 1.0 - 0.99 and out.theta2 == out.theta1 + 0.99
