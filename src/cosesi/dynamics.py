"""Generational dynamics and the agent-population Monte Carlo oracle.

The dynamic model evolves the action share theta_t by partial cohort
replacement while the Markov shock law ``model.MarkovShock`` drives the
sampling correlation rho_t toward its stationary ``rho``.  The population
oracle simulates a large stratified population of agents drawing action
counts from any ``model.SignalDGP``, estimating, and best-responding; it
validates every analytic equilibrium independently of the Bernstein
machinery.  Neither defines or validates a law of its own.
"""

from __future__ import annotations

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
    """Time path (t, theta_t, rho_t) plus realized shocks when simulated."""

    t: np.ndarray
    theta: np.ndarray
    rho: np.ndarray
    xi: np.ndarray | None = None

    def final_theta(self) -> float:
        return float(self.theta[-1])


def simulate_dynamics(
    c: CostFunction,
    G: InferenceProcedure,
    n: int,
    chain: MarkovShock,
    gamma: float,
    theta0: float,
    rho0: float,
    T: int,
    realize_shocks: bool = False,
    rng: SeedableRng | None = None,
) -> Trajectory:
    """Deterministic theta-recursion with the chain's state-1 probability.

    theta_t = (1-gamma) theta_{t-1} + gamma (1 - Psi_n(theta_{t-1}, rho_{t-1}; C_n)),
    with rho_t propagated as the exact scalar probability recursion.  The
    replaced cohort best-responds to the previous period's state, as written.
    ``realize_shocks`` additionally samples a shock path for display; it does
    not feed back into the theta recursion.
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
    xi_path = None
    gen = None
    if realize_shocks:
        gen = (rng or SeedableRng(0)).generator()
        xi_path = np.empty(T + 1, dtype=np.int8)
        xi_path[0] = gen.random() < rho0
    for t in range(1, T + 1):
        th, rh = float(thetas[t - 1]), float(rhos[t - 1])
        psi = costs.psi(th, rh)
        thetas[t] = (1.0 - gamma) * th + gamma * (1.0 - psi)
        rhos[t] = chain.step_probability(rh)
        if xi_path is not None:
            stay = 1.0 - chain.q_xi if xi_path[t - 1] else chain.p_xi
            xi_path[t] = gen.random() < stay
    return Trajectory(np.arange(T + 1), thetas, rhos, xi_path)


@dataclass(frozen=True)
class McEquilibrium:
    theta_hat: float
    stderr: float
    sweeps_used: int
    sweep_means: np.ndarray


def mc_population_equilibrium(
    c: CostFunction,
    G: InferenceProcedure,
    n: int,
    dgp: SignalDGP,
    num_agents: int = 100_000,
    rng: SeedableRng | None = None,
) -> McEquilibrium:
    """Agent-population fixed point, the independent Monte Carlo oracle.

    ``num_agents`` stratified types eta_i = (i - 1/2)/N (deterministic grid,
    one less Monte Carlo error source).  Per sweep each agent draws an action
    count from ``dgp`` at the current share estimate, compares its type to
    the expected cost at the realized sample mean, and the share is updated
    with damping.  Drawing the count directly is equivalent in law to drawing
    the full signal vector since the estimate depends on the sample only
    through its mean.

    Returns the mean of the last ``_RECORD_SWEEPS`` share values with the
    lag-1-autocorrelation-adjusted standard error.
    """
    if num_agents < 10_000:
        raise DynamicsError(f"population oracle needs at least 1e4 agents, got {num_agents}")
    gen = (rng or SeedableRng(0)).generator()
    eta = (np.arange(num_agents) + 0.5) / num_agents
    grid = cost_grid(G, n, c)
    theta_hat = 0.5
    converged_at = None
    recorded: list[float] = []
    prev = theta_hat
    for sweep_idx in range(1, _MAX_SWEEPS + 1):
        pmf = action_count_pmf(dgp, n, theta_hat)
        counts = gen.choice(n + 1, size=num_agents, p=pmf.probs)
        take_action = eta >= grid[counts]
        br = float(take_action.mean())
        theta_hat = (1.0 - _DAMPING) * theta_hat + _DAMPING * br
        if converged_at is None and abs(theta_hat - prev) < _CONV_TOL:
            converged_at = sweep_idx
        prev = theta_hat
        if converged_at is not None:
            recorded.append(theta_hat)
            if len(recorded) >= _RECORD_SWEEPS:
                break
    if converged_at is None or len(recorded) < _RECORD_SWEEPS:
        raise NonConvergence(
            f"no convergence within {_MAX_SWEEPS} sweeps (tol {_CONV_TOL})"
        )
    values = np.array(recorded)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(len(values)))
    if len(values) > 2 and values.std() > 0.0:
        centered = values - mean
        phi = float(np.dot(centered[:-1], centered[1:]) / np.dot(centered, centered))
        phi = min(max(phi, 0.0), 0.9)
        se *= np.sqrt((1.0 + phi) / (1.0 - phi))
    return McEquilibrium(mean, se, converged_at + len(values), values)
