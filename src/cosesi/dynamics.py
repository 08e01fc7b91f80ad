"""Generational dynamics and the agent-population Monte Carlo oracle.

The dynamic model evolves the action share theta_t by partial cohort
replacement while the Markov shock law ``model.MarkovShock`` drives the
sampling correlation rho_t toward its stationary ``rho``.  The population
oracle simulates a large stratified population of agents drawing action
counts from any ``model.SignalDGP``, estimating, and best-responding; it
validates every analytic equilibrium independently of the Bernstein
machinery.  The agents that accept the same counts act independently with
one probability, so each such block's takers are one Binomial(|block|, cdf_k)
draw: the law of one draw per agent, in O(n) work and memory per sweep.
Neither defines or validates a law of its own.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .model import CostFunction, InferenceProcedure, MarkovShock, SignalDGP, action_count_pmf
from .equilibrium import cost_grid, expected_costs
from .sampling import SeedableRng

__all__ = [
    "DynamicsError",
    "NonConvergence",
    "MarkovShockChain",
    "Trajectory",
    "McEquilibrium",
    "stationary_rho",
    "simulate_dynamics",
    "mc_population_equilibrium",
]

# population-oracle iteration: sweep budget, damping of the share update,
# convergence tolerance between sweeps, and sweeps averaged after convergence
_MAX_SWEEPS = 400
_DAMPING = 0.5
_CONV_TOL = 1e-4
_RECORD_SWEEPS = 20

# the dynamics compare each new state with this many previous ones: of 300
# random 600-step trajectories, 264 repeated with period 1 or 2 and 8 with a
# period from 3 to 8; none had a longer period up to 64, and 28 no repeat
_CYCLE_WINDOW = 8


class DynamicsError(Exception):
    """Base error for the dynamic model."""


class NonConvergence(DynamicsError):
    """Population oracle kept oscillating beyond tolerance."""


# the model's Markov shock law, under the name the benchmark workloads import
MarkovShockChain = MarkovShock


def stationary_rho(chain: MarkovShock) -> float:
    """Stationary state-1 probability p_xi / (p_xi + q_xi), the chain's ``rho``.

    Kept only because the benchmark workloads call it, like the
    ``MarkovShockChain`` name above.
    """
    return chain.rho


@dataclass(frozen=True)
class Trajectory:
    """Time path (t, theta_t, rho_t)."""

    t: np.ndarray
    theta: np.ndarray
    rho: np.ndarray

    def final_theta(self) -> float:
        return float(self.theta[-1])


def _same_bits(a: float, b: float) -> bool:
    """``a == b`` with the same sign: the same bits, except that -0.0 is not
    0.0 and NaN matches nothing."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _period(recent: deque[tuple[float, float]], th: float, rh: float) -> int:
    """The least p such that ``recent[p - 1]``, the state p steps back, has the
    bits of (th, rh), or 0.  Membership by ``==`` screens first: it is about
    half the time of the bitwise scan, and it misses no bitwise match."""
    if (th, rh) not in recent:
        return 0
    return next((p for p, (a, b) in enumerate(recent, 1)
                 if _same_bits(a, th) and _same_bits(b, rh)), 0)


def simulate_dynamics(
    c: CostFunction,
    G: InferenceProcedure,
    n: int,
    chain: MarkovShock,
    gamma: float,
    theta0: float,
    rho0: float,
    T: int,
) -> Trajectory:
    """Deterministic theta-recursion with the chain's state-1 probability.

    theta_t = (1-gamma) theta_{t-1} + gamma (1 - Psi_n(theta_{t-1}, rho_{t-1}; C_n)),
    with rho_t propagated as the exact scalar probability recursion.  The
    replaced cohort best-responds to the previous period's state, as written.

    A step is a function of the state (theta, rho) alone.  So once a new state
    has the bits of the state P steps back, the path repeats with period P:
    the rest of ``theta`` and ``rho`` is filled by x[u] = x[u - P] and Psi is
    not evaluated again.  The output is the full recursion's, bit for bit.
    Each new state is compared with the last ``_CYCLE_WINDOW`` states, so the
    memory beside the path is constant in T; -0.0 does not match 0.0 and NaN
    matches nothing.  A cycle longer than the window is not found and the
    recursion runs to T, as it did before.
    """
    if not 0.0 < gamma <= 1.0:
        raise DynamicsError(f"replacement rate gamma must be in (0,1], got {gamma}")
    if T < 1:
        raise DynamicsError(f"T must be >= 1, got {T}")
    if not 0.0 <= theta0 <= 1.0 or not 0.0 <= rho0 <= 1.0:
        raise DynamicsError("theta0 and rho0 must be in [0,1]")
    costs = expected_costs(G, n, c)
    thetas = np.empty(T + 1)
    rhos = np.empty(T + 1)
    thetas[0], rhos[0] = theta0, rho0
    th, rh = float(thetas[0]), float(rhos[0])
    recent: deque[tuple[float, float]] = deque(maxlen=_CYCLE_WINDOW)  # newest first
    for t in range(1, T + 1):
        psi = costs.psi(th, rh)
        recent.appendleft((th, rh))
        th = thetas[t] = (1.0 - gamma) * th + gamma * (1.0 - psi)
        rh = rhos[t] = chain.step_probability(rh)
        period = _period(recent, th, rh)
        if period:
            for x in (thetas, rhos):
                x[t + 1:] = np.resize(x[t - period + 1:t + 1], T - t)
            break
    return Trajectory(np.arange(T + 1), thetas, rhos)


@dataclass(frozen=True)
class McEquilibrium:
    theta_hat: float
    stderr: float
    sweeps_used: int
    sweep_means: np.ndarray


def _takers(gen: np.random.Generator, sizes: np.ndarray, probs: np.ndarray) -> int:
    """Takers of one sweep: block k + 1 of ``sizes`` accepts the k + 1 first
    counts of ``probs`` (block 0 none), one Binomial(sizes[k + 1], cdf[k]) draw."""
    cdf = np.concatenate(([0.0], probs.cumsum()))
    return int(gen.binomial(sizes, cdf / cdf[-1]).sum())


def mc_population_equilibrium(
    c: CostFunction,
    G: InferenceProcedure,
    n: int,
    dgp: SignalDGP,
    num_agents: int = 100_000,
    rng: SeedableRng | None = None,
) -> McEquilibrium:
    """Agent-population fixed point, the independent Monte Carlo oracle.

    ``num_agents`` (an integer in [10 000, 2**53]; an integral float is taken
    as its int) stratified types eta_i = (i - 1/2)/N (deterministic grid, one
    less Monte Carlo error source).  Per sweep each agent draws an action
    count Y from ``dgp`` at the current share estimate and acts iff its type
    covers the expected cost at the realized sample mean, grid[Y] <= eta_i;
    the share is updated with damping.  Drawing the count directly is equivalent
    in law to drawing the full signal vector since the estimate depends on
    the sample only through its mean.

    With the counts ordered by cost, the types that accept the k + 1
    cheapest form one block of the sorted types, whose agents act
    independently with probability cdf_k, the pmf's cdf at k: its takers are
    one Binomial(|block|, cdf_k) draw (:func:`_takers`).  That is the law of
    N per-agent draws, in O(n) work and memory whatever N is: no per-agent
    array is built.

    Returns the mean of the last ``_RECORD_SWEEPS`` share values with the
    lag-1-autocorrelation-adjusted standard error.
    """
    if not (float(num_agents).is_integer() and 10_000 <= num_agents <= 2**53):
        raise DynamicsError("population oracle needs an integer number of agents in "
                            f"[10000, 2**53], got {num_agents}")
    num_agents = int(num_agents)
    gen = (rng or SeedableRng(0)).generator()
    grid = cost_grid(G, n, c)
    order = np.argsort(grid, kind="stable")
    # ceil(v N - 1/2) types lie below v; those from cut k on have eta_i >=
    # grid[order][k] and accept the k + 1 cheapest counts, up to the next cut,
    # and the types below the first cut accept none.  Up to 2**53 agents N is
    # exact, and the rounding of v N can misplace only a type within about an
    # ulp of v, a tie at float resolution
    cuts = np.clip(np.ceil(grid[order] * num_agents - 0.5), 0, num_agents).astype(np.int64)
    sizes = np.diff(cuts, prepend=0, append=num_agents)
    theta_hat = prev = 0.5
    converged_at = None
    recorded: list[float] = []
    for sweep_idx in range(1, _MAX_SWEEPS + 1):
        br = _takers(gen, sizes, action_count_pmf(dgp, n, theta_hat).probs[order]) / num_agents
        theta_hat = (1.0 - _DAMPING) * theta_hat + _DAMPING * br
        if converged_at is None and abs(theta_hat - prev) < _CONV_TOL:
            converged_at = sweep_idx
        prev = theta_hat
        if converged_at is not None:
            recorded.append(theta_hat)
            if len(recorded) >= _RECORD_SWEEPS:
                break
    else:
        raise NonConvergence(f"no convergence within {_MAX_SWEEPS} sweeps (tol {_CONV_TOL})")
    values = np.array(recorded)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(len(values)))
    if values.std() > 0.0:
        centered = values - mean
        phi = float(np.dot(centered[:-1], centered[1:]) / np.dot(centered, centered))
        phi = min(max(phi, 0.0), 0.9)
        se *= math.sqrt((1.0 + phi) / (1.0 - phi))
    # the converging sweep is also the first recorded one
    return McEquilibrium(mean, se, converged_at + len(values) - 1, values)
