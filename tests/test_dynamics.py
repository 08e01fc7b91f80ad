import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cosesi import dynamics
from cosesi.model import (
    CMB,
    MLE,
    BayesBeta,
    BetaEstimation,
    CostFunction,
    InadmissibleCorrelation,
    MarkovShock,
    RhoMixture,
    Sequential,
    action_count_pmf,
    affine_cost,
    linear_cost,
    parse_cost,
    power_cost,
    s_shaped_cost,
)
from cosesi.equilibrium import LARGE_N, ExpectedCosts, cost_grid, expected_costs, solve_cosesi, solve_with_dgp
from cosesi.dynamics import (
    DynamicsError,
    MarkovShockChain,
    McEquilibrium,
    NonConvergence,
    mc_population_equilibrium,
    simulate_dynamics,
    stationary_rho,
)
from cosesi.sampling import SeedableRng
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

    def test_rho_stays_a_probability(self, mle, pow2):
        # unclamped, p + (1-p-q) rho rounds to -5.6e-17 at p = 0.3, q = 1, rho = 1
        traj = simulate_dynamics(pow2, mle, 2, MarkovShockChain(0.3, 1.0), 0.1, 0.5, 1.0, 5)
        assert traj.rho.min() >= 0.0 and traj.rho.max() <= 1.0

    def test_gamma_validated(self, mle, pow2):
        with pytest.raises(DynamicsError):
            simulate_dynamics(pow2, mle, 2, MarkovShockChain(0.2, 0.8), 0.0, 0.5, 0.5, 10)


def _full_recursion(c, G, n, chain, gamma, theta0, rho0, T):
    """Every step of the recursion to T: the output that ``simulate_dynamics``
    must give bit for bit."""
    costs = expected_costs(G, n, c)
    thetas = np.empty(T + 1)
    rhos = np.empty(T + 1)
    thetas[0], rhos[0] = theta0, rho0
    for t in range(1, T + 1):
        th, rh = float(thetas[t - 1]), float(rhos[t - 1])
        psi = costs.psi(th, rh)
        thetas[t] = (1.0 - gamma) * th + gamma * (1.0 - psi)
        rhos[t] = chain.step_probability(rh)
    return thetas, rhos


def _first_repeat(thetas, rhos, window):
    """(t, P): the first step whose state has the bits of the state P <= window
    steps back, or None."""
    th, rh = thetas.view(np.int64).tolist(), rhos.view(np.int64).tolist()
    return next(((t, p) for t in range(1, len(th)) for p in range(1, min(t, window) + 1)
                 if th[t] == th[t - p] and rh[t] == rh[t - p]), None)


# (first repeat (t, P), cost, G, n, p, q, gamma, theta0, rho0): a fixed point
# from step 17, a 2-cycle from step 42 (also under Beta and in the limit), a
# 3-cycle from step 147 and an 8-cycle, the longest the window finds, from step 38
_CYCLES = {
    "period 1": ((17, 1), "pow:4", MLE(), 2, 0.4, 0.5, 0.5, 0.5, 0.5),
    "period 2": ((42, 2), "pow:4", MLE(), 2, 0.4, 1.0, 0.5, 0.5, 0.5),
    "period 2, Beta": ((42, 2), "pow:2", BetaEstimation(), 5, 0.4, 1.0, 0.5, 0.5, 0.5),
    "period 2, limit": ((42, 2), "pow:2", MLE(), LARGE_N + 1, 0.4, 1.0, 0.5, 0.5, 0.5),
    "period 3": ((147, 3), "pow:2", MLE(), 7, 0.4231819942696411, 0.9174817732993081,
                 0.8559122943833432, 0.22096916376486697, 0.166583176525819),
    "period 8": ((38, 8), "sshape", MLE(), 39, 0.303066331782163, 0.9855397512621293,
                 0.7947879067898228, 0.5594132210327717, 0.35398845788636424),
}


def _inference(law):
    """(G, n) of a drawn ("mle" | "beta" | "limit", n)."""
    kind, n = law
    if kind == "limit":
        return MLE(), LARGE_N + 1
    return (MLE() if kind == "mle" else BetaEstimation()), n


class TestCycleShortcut:
    """Once the state repeats, the rest of the path is copied, not computed."""

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.sampled_from(["linear", "pow:2", "pow:4", "affine:1,-1", "sshape", "exp:6"]),
        law=st.one_of(st.tuples(st.just("mle"), st.integers(1, 40)),
                      st.tuples(st.just("beta"), st.integers(1, 12)),
                      st.just(("limit", 0))),
        pq=st.one_of(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), st.just((1.0, 1.0))),
        gamma=st.floats(0.01, 1.0),
        theta0=st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.0, 0.0, 1.0])),
        rho0=st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.0, 0.0, 1.0])),
        T=st.integers(1, 300),
    )
    @example(spec="pow:4", law=("mle", 2), pq=(0.4, 0.5), gamma=0.5, theta0=0.5, rho0=0.5, T=1)
    @example(spec="pow:4", law=("mle", 2), pq=(0.4, 0.5), gamma=0.5, theta0=0.5, rho0=0.5, T=16)
    @example(spec="pow:4", law=("mle", 2), pq=(0.4, 1.0), gamma=0.5, theta0=0.5, rho0=0.5, T=300)
    @example(spec="pow:2", law=("beta", 5), pq=(0.4, 1.0), gamma=0.5, theta0=0.5, rho0=0.5, T=300)
    @example(spec="pow:2", law=("limit", 0), pq=(0.4, 1.0), gamma=0.5, theta0=0.5, rho0=0.5, T=43)
    @example(spec="linear", law=("mle", 3), pq=(1.0, 1.0), gamma=1.0, theta0=-0.0, rho0=-0.0, T=20)
    def test_is_the_full_recursion_bit_for_bit(self, spec, law, pq, gamma, theta0, rho0, T):
        p, q = pq
        assume(p + q > 0.0)
        G, n = _inference(law)
        args = (parse_cost(spec), G, n, MarkovShockChain(p, q), gamma, theta0, rho0, T)
        traj = simulate_dynamics(*args)
        thetas, rhos = _full_recursion(*args)
        assert traj.theta.tobytes() == thetas.tobytes()
        assert traj.rho.tobytes() == rhos.tobytes()
        assert traj.t.tolist() == list(range(T + 1))

    @pytest.mark.parametrize("case", list(_CYCLES))
    def test_psi_stops_at_the_first_repeat(self, case, monkeypatch):
        repeat, spec, G, n, p, q, gamma, theta0, rho0 = _CYCLES[case]
        args = (parse_cost(spec), G, n, MarkovShockChain(p, q), gamma, theta0, rho0, 400)
        thetas, rhos = _full_recursion(*args)
        assert _first_repeat(thetas, rhos, dynamics._CYCLE_WINDOW) == repeat
        calls = []
        psi = ExpectedCosts.psi
        monkeypatch.setattr(ExpectedCosts, "psi", lambda self, th, rh: calls.append(th) or psi(self, th, rh))
        traj = simulate_dynamics(*args)
        assert len(calls) == repeat[0]
        assert traj.theta.tobytes() == thetas.tobytes() and traj.rho.tobytes() == rhos.tobytes()

    def test_a_path_without_a_repeat_runs_every_step(self, monkeypatch):
        # T shorter than the first repeat (step 147): every step is computed
        _, spec, G, n, p, q, gamma, theta0, rho0 = _CYCLES["period 3"]
        calls = []
        psi = ExpectedCosts.psi
        monkeypatch.setattr(ExpectedCosts, "psi", lambda self, th, rh: calls.append(th) or psi(self, th, rh))
        simulate_dynamics(parse_cost(spec), G, n, MarkovShockChain(p, q), gamma, theta0, rho0, 146)
        assert len(calls) == 146

    def test_same_bits(self):
        assert dynamics._same_bits(0.25, 0.25)
        assert dynamics._same_bits(-0.0, -0.0)
        assert not dynamics._same_bits(0.0, -0.0)
        assert not dynamics._same_bits(-0.0, 0.0)
        assert not dynamics._same_bits(math.nan, math.nan)
        assert not dynamics._same_bits(0.25, math.nextafter(0.25, 1.0))


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

    @pytest.mark.parametrize("num_agents", [20_000.5, math.inf, -math.inf, math.nan, 9_999, 100.0])
    def test_population_must_be_an_integer_of_at_least_1e4(self, mle, pow2, num_agents):
        class NoDraws:
            def generator(self):
                raise AssertionError("drew before checking num_agents")

        with pytest.raises(DynamicsError, match=r"an integer number of agents in \[10000, 2\*\*53\], got "):
            mc_population_equilibrium(pow2, mle, 2, RhoMixture(0.0), num_agents=num_agents, rng=NoDraws())

    @pytest.mark.parametrize("num_agents", [2**53 + 1, 2.0**54, 10**17, 2**64])
    def test_population_above_2_53_is_refused(self, mle, pow3, num_agents):
        # above 2**53, N is not an exact float; above 2**63 the cuts overflow int64
        with pytest.raises(DynamicsError, match=re.escape(f" in [10000, 2**53], got {num_agents}")):
            mc_population_equilibrium(pow3, mle, 3, RhoMixture(0.5), num_agents=num_agents)

    def test_population_of_2_53_runs(self, mle, pow3):
        out = mc_population_equilibrium(pow3, mle, 3, RhoMixture(0.5), num_agents=2**53, rng=SeedableRng(1))
        assert abs(out.theta_hat - solve_with_dgp(pow3, mle, 3, RhoMixture(0.5)).roots[0]) <= 5 * out.stderr

    def test_integral_float_population_is_its_int(self, mle, pow2, rng):
        want = mc_population_equilibrium(pow2, mle, 2, RhoMixture(0.3), num_agents=20_000, rng=rng)
        got = mc_population_equilibrium(pow2, mle, 2, RhoMixture(0.3), num_agents=20_000.0, rng=rng)
        assert _fields(got) == _fields(want)

    def test_estimates_are_python_floats(self, mle, pow2, rng):
        out = mc_population_equilibrium(pow2, mle, 2, RhoMixture(0.5), rng=rng)
        assert type(out.theta_hat) is float and type(out.stderr) is float

    def test_stderr_is_positive_and_small(self, mle, pow2, rng):
        out = mc_population_equilibrium(pow2, mle, 2, RhoMixture(0.5), rng=rng.split(3))
        assert 0.0 < out.stderr < 0.01

    def test_sweeps_used_counts_each_sweep_once(self, mle, pow3):
        # one binomial call per sweep; the converging sweep is also the first recorded
        class CountedDraws:
            def __init__(self):
                self.gen, self.calls = SeedableRng(1).generator(), 0

            def generator(self):
                return self

            def binomial(self, n, p):
                self.calls += 1
                return self.gen.binomial(n, p)

        draws = CountedDraws()
        out = mc_population_equilibrium(pow3, mle, 3, RhoMixture(0.5), rng=draws)
        assert out.sweeps_used == draws.calls == 52


def _choice_takers(gen, eta, grid, probs):
    """Acting agents of one per-agent sweep: ``Generator.choice`` draws every
    agent's count Y from the pmf, and agent i acts iff eta_i >= grid[Y]."""
    return int(np.count_nonzero(eta >= grid[gen.choice(len(grid), size=len(eta), p=probs)]))


def _choice_oracle(c, G, n, dgp, num_agents, rng):
    """The per-agent count search that the block draws replaced, kept as
    their reference."""
    gen = rng.generator()
    eta = (np.arange(num_agents) + 0.5) / num_agents
    grid = cost_grid(G, n, c)
    theta_hat = prev = 0.5
    converged_at = None
    recorded = []
    for sweep_idx in range(1, dynamics._MAX_SWEEPS + 1):
        pmf = action_count_pmf(dgp, n, theta_hat)
        br = _choice_takers(gen, eta, grid, pmf.probs) / num_agents
        theta_hat = (1.0 - dynamics._DAMPING) * theta_hat + dynamics._DAMPING * br
        if converged_at is None and abs(theta_hat - prev) < dynamics._CONV_TOL:
            converged_at = sweep_idx
        prev = theta_hat
        if converged_at is not None:
            recorded.append(theta_hat)
            if len(recorded) >= dynamics._RECORD_SWEEPS:
                break
    if converged_at is None or len(recorded) < dynamics._RECORD_SWEEPS:
        raise NonConvergence("no convergence")
    values = np.array(recorded)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(len(values)))
    if len(values) > 2 and values.std() > 0.0:
        centered = values - mean
        phi = float(np.dot(centered[:-1], centered[1:]) / np.dot(centered, centered))
        phi = min(max(phi, 0.0), 0.9)
        se *= np.sqrt((1.0 + phi) / (1.0 - phi))
    return McEquilibrium(mean, se, converged_at + len(values) - 1, values)


def _fields(out):
    """Every field of an oracle result, the sweep means by their bytes."""
    return (out.theta_hat, out.stderr, out.sweeps_used, out.sweep_means.tobytes())


# costs that rise on [0, 1]
_RISING_COSTS = st.one_of(
    st.floats(0.2, 6.0).map(power_cost),
    st.just(linear_cost()),
    st.tuples(st.floats(0.01, 0.3), st.floats(0.7, 0.99), st.floats(1.0, 40.0), st.floats(0.2, 0.8))
    .map(lambda p: s_shaped_cost(*p)),
    st.tuples(st.floats(0.0, 0.5), st.floats(1e-3, 0.5)).map(lambda ab: affine_cost(*ab)),
)
# rho = 1, CMB(+-inf) and tail cells that underflow give pmfs with zero cells
_MC_LAWS = st.one_of(
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)).map(RhoMixture),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    .filter(lambda pq: pq[0] + pq[1] > 0.0).map(lambda pq: MarkovShock(*pq)),
    st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-math.inf, math.inf])).map(CMB),
    st.lists(st.floats(0.0, 0.95), max_size=3).map(lambda w: Sequential(tuple(w))),
)


class _Binomials:
    """A generator whose ``binomial(n, p)`` returns round(n p) and records its
    arguments, one call per sweep."""

    def __init__(self):
        self.calls = []

    def generator(self):
        return self

    def binomial(self, n, p):
        self.calls.append((np.array(n), np.array(p)))
        return np.round(n * p)


class TestBlockDraws:
    """Each sweep draws the takers of every block of agents that accepts the
    same counts as one binomial; each agent keeps its law,
    P(grid[Y] <= eta_i)."""

    @settings(max_examples=30, deadline=None)
    @given(
        c=_RISING_COSTS,
        G=st.sampled_from([MLE(), BetaEstimation()]),
        n=st.integers(1, 30),
        dgp=_MC_LAWS,
        num_agents=st.integers(10_000, 30_000),
    )
    # ties: at an odd N the type eta_5000 = 1/2 is a grid value, which it covers;
    # a flat cost gives one block holding every count
    @example(c=linear_cost(), G=MLE(), n=2, dgp=RhoMixture(0.3), num_agents=10_001)
    @example(c=affine_cost(0.5, 0.0), G=MLE(), n=3, dgp=CMB(0.5), num_agents=10_001)
    def test_every_sweep_has_the_per_agent_mean(self, c, G, n, dgp, num_agents):
        draws = _Binomials()
        try:
            mc_population_equilibrium(c, G, n, dgp, num_agents, draws)
        except NonConvergence:
            pass
        eta = (np.arange(num_agents) + 0.5) / num_agents
        covering = (eta[:, None] >= cost_grid(G, n, c)).sum(axis=0)  # types that act at each count
        theta = 0.5
        for sizes, p in draws.calls:
            assert sizes.sum() == num_agents
            probs = action_count_pmf(dgp, n, theta).probs
            assert np.sum(sizes * p) == pytest.approx(covering @ probs / probs.sum(), rel=1e-12)
            takers = np.round(sizes * p).sum()
            theta = (1.0 - dynamics._DAMPING) * theta + dynamics._DAMPING * takers / num_agents

    @pytest.mark.parametrize("c, dgp", [
        (parse_cost("pow:3"), RhoMixture(0.5)),
        (parse_cost("exp:6"), CMB(1.5)),
    ], ids=["pow3-rho", "exp6-cmb"])
    def test_takers_at_a_fixed_theta_have_the_choice_searchs_mean(self, mle, c, dgp):
        n, num_agents, sweeps = 6, 20_000, 200
        gen = SeedableRng(20241020).generator()
        eta = (np.arange(num_agents) + 0.5) / num_agents
        grid = cost_grid(mle, n, c)
        probs = action_count_pmf(dgp, n, 0.4).probs
        order = np.argsort(grid, kind="stable")
        sizes = np.diff(np.searchsorted(eta, grid[order]), prepend=0, append=num_agents)
        blocks = [dynamics._takers(gen, sizes, probs[order]) for _ in range(sweeps)]
        agents = [_choice_takers(gen, eta, grid, probs) for _ in range(sweeps)]
        se = math.hypot(np.std(blocks, ddof=1), np.std(agents, ddof=1)) / math.sqrt(sweeps)
        assert abs(np.mean(blocks) - np.mean(agents)) <= 5.0 * se

    @pytest.mark.parametrize("c, n, dgp", [
        (parse_cost("pow:3"), 3, RhoMixture(0.5)),
        (parse_cost("exp:6"), 6, CMB(1.5)),
        (linear_cost(), 2, RhoMixture(0.3)),
    ], ids=["pow3-rho", "exp6-cmb", "linear-ties"])
    def test_fixed_point_is_the_choice_searchs(self, mle, c, n, dgp):
        rng = SeedableRng(7)
        got = mc_population_equilibrium(c, mle, n, dgp, 20_001, rng)
        want = _choice_oracle(c, mle, n, dgp, 20_001, rng)
        assert abs(got.theta_hat - want.theta_hat) <= 5.0 * math.hypot(got.stderr, want.stderr)

    def test_memory_does_not_grow_with_the_population(self, mle, pow3):
        run = lambda num_agents: mc_population_equilibrium(
            pow3, mle, 3, RhoMixture(0.5), num_agents=num_agents, rng=SeedableRng(3))
        run(10**4)  # the caches of the first call are not the sweep's
        peaks = []
        for num_agents in (10**4, 10**12):
            tracemalloc.start()
            try:
                run(num_agents)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 64 * 1024

    @pytest.mark.parametrize("c, G, n, dgp", [
        (parse_cost("exp:6"), MLE(), 6, CMB(1.5)),
        (parse_cost("affine:1,-1"), BayesBeta(2.0, 6.0, 0.0), 2, RhoMixture(0.3)),
        (CostFunction(fn=lambda z: 0.1 + 3.2 * z * (1.0 - z), name="hump"), MLE(), 5, CMB(0.5)),
        (CostFunction(fn=lambda z: 0.1 + 3.2 * z * (1.0 - z), name="hump"), MLE(), 4,
         Sequential((0.4,))),
    ], ids=["exp6-cmb", "affine-decreasing-bayes", "hump-cmb", "hump-sequential"])
    def test_unordered_grid_keeps_the_law(self, c, G, n, dgp):
        assert np.any(np.diff(cost_grid(G, n, c)) < 0.0)
        out = mc_population_equilibrium(c, G, n, dgp, rng=SeedableRng(20240817))
        roots = solve_with_dgp(c, G, n, dgp).roots
        assert min(abs(out.theta_hat - r) for r in roots) <= 3 * out.stderr

    @pytest.mark.xfail(strict=True, reason="the recorded sweeps still hold the approach to the root "
                       "when the damped map contracts slowly (slope 0.76 here); ROADMAP item 8")
    def test_slow_contraction_is_unbiased(self, mle):
        # an unbiased oracle with an honest stderr has a mean z-score within
        # 1 of 0 over twenty seeds; this one reads -1.48
        c, dgp = parse_cost("exp:6"), RhoMixture(0.5)
        root = max(solve_with_dgp(c, mle, 3, dgp).roots)
        z = []
        for seed in range(20):
            out = mc_population_equilibrium(c, mle, 3, dgp, rng=SeedableRng(seed))
            z.append((out.theta_hat - root) / out.stderr)
        assert abs(np.mean(z)) < 1.0


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
