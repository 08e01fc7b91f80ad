import math

import numpy as np
import pytest

from cosesi import dynamics
from cosesi.model import MLE, InadmissibleCorrelation, MarkovShock, RhoMixture, linear_cost, power_cost
from cosesi.equilibrium import solve_cosesi
from cosesi.dynamics import (
    DynamicsError,
    MarkovShockChain,
    mc_population_equilibrium,
    simulate_dynamics,
    stationary_rho,
)
from conftest import ROOT_POW4_MLE_RHO0


class TestStationaryRho:
    def test_formula(self):
        assert stationary_rho(MarkovShockChain(0.2, 0.8)) == pytest.approx(0.2)

    def test_symmetric_chain(self):
        assert stationary_rho(MarkovShockChain(0.35, 0.35)) == pytest.approx(0.5)

    def test_degenerate(self):
        with pytest.raises(InadmissibleCorrelation):
            MarkovShockChain(0.0, 0.0)

    def test_chain_is_the_model_law(self):
        assert dynamics.MarkovShockChain is MarkovShock
        assert not hasattr(dynamics, "DegenerateChain")
        assert stationary_rho(MarkovShock(0.3, 0.1)) == MarkovShock(0.3, 0.1).rho

    def test_matches_simulated_frequency(self, rng):
        chain = MarkovShockChain(0.3, 0.5)
        gen = rng.generator()
        steps = 200_000
        u = gen.random(steps)
        state = 0
        visits = 0
        for t in range(steps):
            if state == 0:
                state = int(u[t] < chain.p_xi)
            else:
                state = int(u[t] >= chain.q_xi)
            visits += state
        freq = visits / steps
        target = stationary_rho(chain)
        # 3-sigma with an autocorrelation-inflated variance bound
        se = 3 * math.sqrt(target * (1 - target) / steps) * 3
        assert abs(freq - target) <= se


class TestSimulateDynamics:
    def test_converges_to_analytic_steady_state(self, mle, pow4):
        traj = simulate_dynamics(pow4, mle, 2, MarkovShockChain(0.0, 0.5), 0.1, 0.9, 0.0, 500)
        assert traj.final_theta() == pytest.approx(ROOT_POW4_MLE_RHO0, abs=1e-4)

    def test_rho_reaches_half_in_one_step(self, mle, pow4):
        traj = simulate_dynamics(pow4, mle, 2, MarkovShockChain(0.5, 0.5), 0.1, 0.5, 0.0, 10)
        assert traj.rho[1] == pytest.approx(0.5, abs=1e-15)
        assert traj.rho[-1] == pytest.approx(0.5, abs=1e-15)

    def test_linear_cost_fixed_point_is_invariant(self, mle):
        # full replacement, linear cost: theta stays at the NE from step one
        traj = simulate_dynamics(linear_cost(), mle, 3, MarkovShockChain(0.2, 0.8), 1.0, 0.5, 0.7, 50)
        assert np.allclose(traj.theta, 0.5, atol=1e-12)

    def test_rho_geometric_convergence_exact(self):
        chain = MarkovShockChain(0.15, 0.45)
        traj = simulate_dynamics(power_cost(2), MLE(), 2, chain, 0.1, 0.5, 0.9, 60)
        rho_star = stationary_rho(chain)
        factor = 1.0 - chain.p_xi - chain.q_xi
        for t in range(61):
            want = rho_star + (0.9 - rho_star) * factor**t
            assert traj.rho[t] == pytest.approx(want, abs=1e-12)

    def test_monotone_approach_for_small_gamma(self, mle, pow3):
        traj = simulate_dynamics(pow3, mle, 3, MarkovShockChain(0.0, 1.0), 0.2, 0.05, 0.0, 300)
        target = solve_cosesi(pow3, mle, 3, 0.0).theta
        gaps = np.abs(traj.theta - target)
        tail = gaps[5:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))

    def test_realized_shock_path(self, mle, pow2, rng):
        traj = simulate_dynamics(
            pow2, mle, 2, MarkovShockChain(0.3, 0.3), 0.1, 0.5, 0.5, 40,
            realize_shocks=True, rng=rng,
        )
        assert traj.xi is not None
        assert set(np.unique(traj.xi)) <= {0, 1}

    def test_rho_stays_a_probability(self, mle, pow2):
        # unclamped, p + (1-p-q) rho rounds to -5.6e-17 at p = 0.3, q = 1, rho = 1
        traj = simulate_dynamics(pow2, mle, 2, MarkovShockChain(0.3, 1.0), 0.1, 0.5, 1.0, 5)
        assert traj.rho.min() >= 0.0 and traj.rho.max() <= 1.0

    def test_gamma_validated(self, mle, pow2):
        with pytest.raises(DynamicsError):
            simulate_dynamics(pow2, mle, 2, MarkovShockChain(0.2, 0.8), 0.0, 0.5, 0.5, 10)


class TestPopulationOracle:
    def test_independent_sampling_example(self, mle, pow4, rng):
        out = mc_population_equilibrium(pow4, mle, 2, RhoMixture(0.0), rng=rng)
        assert abs(out.theta_hat - ROOT_POW4_MLE_RHO0) <= 3 * out.stderr

    def test_full_correlation_example(self, mle, pow4, rng):
        out = mc_population_equilibrium(pow4, mle, 2, RhoMixture(1.0), rng=rng.split(1))
        assert abs(out.theta_hat - 0.5) <= 3 * out.stderr

    def test_three_signal_example(self, mle, pow3, rng):
        out = mc_population_equilibrium(pow3, mle, 3, RhoMixture(0.0), rng=rng.split(2))
        target = solve_cosesi(pow3, mle, 3, 0.0).theta
        assert abs(out.theta_hat - target) <= 3 * out.stderr

    def test_minimum_population_enforced(self, mle, pow2, rng):
        with pytest.raises(DynamicsError):
            mc_population_equilibrium(pow2, mle, 2, RhoMixture(0.0), num_agents=100, rng=rng)

    def test_stderr_is_positive_and_small(self, mle, pow2, rng):
        out = mc_population_equilibrium(pow2, mle, 2, RhoMixture(0.5), rng=rng.split(3))
        assert 0.0 < out.stderr < 0.01


class TestAsymptoticOverdispersion:
    def test_sample_mean_variance_persists(self, rng):
        # at rho = 0.5, n = 200 the sample-mean variance stays near
        # rho * theta * (1 - theta) instead of vanishing like 1/n
        n, theta, rho, draws = 200, 0.3, 0.5, 10**6
        from cosesi.model import action_count_pmf

        probs = action_count_pmf(RhoMixture(rho), n, theta).probs
        gen = rng.generator()
        counts = gen.choice(n + 1, size=draws, p=probs)
        var_z = (counts / n).var()
        limit = rho * theta * (1 - theta)
        assert var_z > limit / 2
        assert var_z == pytest.approx(limit, rel=0.05)
