"""Fixed-point solvers for the sampling equilibria.

Every concept here is a root of "one minus theta equals the expected measure
of agents choosing the outside action", with the expectation taken under the
relevant action-count law:

* SESI:      1 - theta = B_n(theta; C_n)                      (iid sampling)
* CoSESI:    1 - theta = (1-rho) B_n(theta; C_n) + rho BB_n(theta; C_n)
* NE:        1 - theta = c(theta), the SESI with infinitely many signals
* variants:  assortative, Bayesian partial neglect, heterogeneous groups,
             general count laws.

Under a rho-mixture law the right side is ``ExpectedCosts.psi``: the kernel
``model.weighted_bernstein`` on the cost grid, or its large-n limit
``model.weighted_limit`` on the cost itself.  :func:`expected_costs` is the
one place that picks between them: MLE requests with n above ``LARGE_N``
and infinite n (hence NE) use the limit B_n(theta; C_n) -> c(theta).  For
increasing costs the left side decreases and the right side increases, so a
unique-root solve is one ``numerics.solve_decreasing`` on [0, 1] (a closed
form at rho = 1); enumerating solvers use ``numerics.find_roots``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .numerics import Tolerance, find_roots, integrate, solve_decreasing
from .model import (
    CMB,
    BayesBeta,
    CostFunction,
    IID,
    InferenceProcedure,
    InteriorRhoUnsupported,
    MLE,
    MarkovShock,
    RhoMixture,
    SignalDGP,
    action_count_pmf,
    weighted_bernstein,
    weighted_limit,
)

__all__ = [
    "EquilibriumResult",
    "SweepTable",
    "BadWeights",
    "LARGE_N",
    "solve_ne",
    "solve_cosesi",
    "cosesi_rho1_closed",
    "enumerate_cosesi",
    "variation_diagnostic",
    "VariationDiagnostic",
    "solve_assortative",
    "solve_bayesian_cosesi",
    "solve_heterogeneous",
    "solve_general_cmb",
    "solve_with_dgp",
    "sweep",
    "cost_grid",
    "ExpectedCosts",
    "expected_costs",
]

LARGE_N = 100_000  # above this, MLE Bernstein sums switch to the limit C(theta)

_SOLVE_TOL = Tolerance(abs_tol=1e-12, max_iter=300)


class BadWeights(ValueError):
    """Mixture weights are negative or do not sum to one."""


@dataclass(frozen=True)
class EquilibriumResult:
    """Fixed point(s) with the residual of the defining equation.

    ``theta_star`` is a float for unique-equilibrium concepts and a tuple for
    enumerating solvers.  ``residual`` is the largest |equation residual|
    across the reported roots.
    """

    theta_star: float | tuple[float, ...]
    concept: str
    residual: float
    params: dict = field(default_factory=dict)

    @property
    def theta(self) -> float:
        """The unique root, or the first one for multi-root results."""
        if isinstance(self.theta_star, tuple):
            return self.theta_star[0]
        return self.theta_star

    @property
    def roots(self) -> tuple[float, ...]:
        if isinstance(self.theta_star, tuple):
            return self.theta_star
        return (self.theta_star,)


@dataclass(frozen=True)
class SweepTable:
    """Comparative-statics table: sorted (axis value, theta_star) rows."""

    axis: str
    rows: tuple[tuple[float, float], ...]

    def values(self) -> list[float]:
        return [r[0] for r in self.rows]

    def thetas(self) -> list[float]:
        return [r[1] for r in self.rows]


def cost_grid(G: InferenceProcedure, n: int, cost: Callable[[float], float]) -> np.ndarray:
    """Expected costs C_{n, y/n} on the sample-mean grid y = 0..n."""
    return np.array([G.expected_cost(n, y / n, cost) for y in range(n + 1)])


@dataclass(frozen=True)
class ExpectedCosts:
    """Expected costs C_{n, y/n} of one inference procedure and sample size.

    ``values`` is the :func:`cost_grid` array, or in the large-n limit
    (``n`` is ``math.inf``) the cost function itself.  :func:`expected_costs`
    builds it and keeps (C_{n,0}, C_{n,1}) once in ``ends``: the limit reads
    them on every evaluation, and the rho = 1 closed form reads nothing else.
    """

    n: float
    values: np.ndarray | Callable[[float], float]
    ends: tuple[float, float] | None = None

    def psi(self, theta: float, rho: float) -> float:
        """Psi_n(theta, rho; C): the rho-mixture expectation of the costs."""
        if callable(self.values):
            return weighted_limit(theta, rho, self.values, self.ends)
        return weighted_bernstein(self.n, theta, rho, self.values)

    def map(self, f: Callable[[float], float]) -> ExpectedCosts:
        """``f`` applied to every grid value, or composed with the limit cost
        (its endpoint images taken from ``ends``)."""
        values = self.values
        if callable(values):
            f0, f1 = self.ends
            return ExpectedCosts(self.n, lambda x: f(values(x)), (f(f0), f(f1)))
        return ExpectedCosts(self.n, np.array([f(v) for v in values.tolist()]))


def expected_costs(G: InferenceProcedure, n: float, c: Callable[[float], float]) -> ExpectedCosts:
    """The costs every solver reads: the grid, or c itself in the large-n limit.

    MLE with n above ``LARGE_N``, and any infinite n, take the consistent
    limit C_{n, y/n} -> c(theta); otherwise the grid of :func:`cost_grid`.
    """
    if math.isinf(n) or (n > LARGE_N and isinstance(G, MLE)):
        return ExpectedCosts(math.inf, c, (c(0.0), c(1.0)))
    grid = cost_grid(G, int(n), c)
    return ExpectedCosts(int(n), grid, (float(grid[0]), float(grid[-1])))


def solve_ne(c: CostFunction) -> EquilibriumResult:
    """Nash equilibrium 1 - theta = c(theta): the SESI with infinitely many signals."""
    theta, residual = _cosesi_root(expected_costs(MLE(), math.inf, c), 0.0)
    return EquilibriumResult(theta, "NE", residual, {"cost": c.name})


def solve_cosesi(
    c: CostFunction, G: InferenceProcedure, n: int, rho: float
) -> EquilibriumResult:
    """Simple CoSESI: root of 1 - theta = Psi_n(theta, rho; C_n).

    Unique for any increasing cost, n, G, and rho in [0, 1]; rho = 0 is the
    SESI and rho = 1 is the closed form of :func:`cosesi_rho1_closed`.
    """
    _check_rho(rho)
    if rho == 1.0:
        closed = cosesi_rho1_closed(c, G, n)
        theta, residual = closed.theta, closed.residual
    else:
        theta, residual = _cosesi_root(expected_costs(G, n, c), rho)
    concept = "SESI" if rho == 0.0 else "CoSESI"
    return EquilibriumResult(
        theta, concept, residual, {"cost": c.name, "G": G.kind, "n": n, "rho": rho}
    )


def _check_rho(rho: float) -> None:
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0,1], got {rho}")


def _cosesi_root(costs: ExpectedCosts, rho: float) -> tuple[float, float]:
    """The root of 1 - theta = costs.psi(theta, rho) and its |residual|."""
    if rho == 1.0:
        return _rho1_root(*costs.ends)
    return _root(lambda t: costs.psi(t, rho))


def _root(rhs: Callable[[float], float]) -> tuple[float, float]:
    """The root of 1 - theta = rhs(theta) by the clamped decreasing solve, and its |residual|."""
    res = lambda t: 1.0 - t - rhs(t)
    theta = solve_decreasing(res, tol=_SOLVE_TOL)
    return theta, abs(res(theta))


def _rho1_root(c0: float, c1: float) -> tuple[float, float]:
    theta = (1.0 - c0) / (1.0 - c0 + c1)
    return theta, abs(1.0 - theta - (theta * c1 + (1.0 - theta) * c0))


def cosesi_rho1_closed(c: CostFunction, G: InferenceProcedure, n: float) -> EquilibriumResult:
    """Closed form at rho = 1: theta* = (1 - C_{n,0}) / (1 - C_{n,0} + C_{n,1}),
    from these two cells alone (c(0) and c(1) at infinite n)."""
    ends = (c(0.0), c(1.0)) if math.isinf(n) else (G.expected_cost(n, 0.0, c), G.expected_cost(n, 1.0, c))
    theta, residual = _rho1_root(*ends)
    return EquilibriumResult(theta, "CoSESI", residual, {"cost": c.name, "G": G.kind, "n": n})


def enumerate_cosesi(
    c: CostFunction, n: int, rho: float, grid_step: float = 1e-4
) -> EquilibriumResult:
    """All CoSESIs of the cooperative benefit-form game theta = Psi_n(theta, rho; c).

    Intended for S-shaped benefit curves under MLE (so C_n = c); there is at
    least one and at most three roots, exactly one when rho = 1.  Roots closer
    than 1e-6 are deduplicated.
    """
    grid = np.array([c(y / n) for y in range(n + 1)])

    def res(t: float) -> float:
        return t - weighted_bernstein(n, t, rho, grid)

    dedup: list[float] = []
    for r in find_roots(res, grid_step, _SOLVE_TOL):
        if not dedup or r - dedup[-1] > 1e-6:
            dedup.append(r)
    residual = max((abs(res(r)) for r in dedup), default=math.inf)
    return EquilibriumResult(
        tuple(dedup), "CoSESI", residual, {"cost": c.name, "n": n, "rho": rho}
    )


@dataclass(frozen=True)
class VariationDiagnostic:
    delta_1: float
    delta_nminus1: float
    unique_guaranteed: bool


def variation_diagnostic(c: CostFunction, n: int) -> VariationDiagnostic:
    """Boundary variation of c on the 1/n grid and the uniqueness certificate.

    delta^n_j = Delta^n_{j+1} - Delta^n_j with Delta^n_m = c(m/n) - c((m-1)/n).
    If delta^n_1 <= 0 or delta^n_{n-1} >= 0 the CoSESI is unique for rho < 1.
    """
    if n < 2:
        raise ValueError(f"variation diagnostic needs n >= 2, got {n}")

    def delta(j: int) -> float:
        d_next = c((j + 1) / n) - c(j / n)
        d_here = c(j / n) - c((j - 1) / n)
        return d_next - d_here

    d1, dn1 = delta(1), delta(n - 1)
    return VariationDiagnostic(d1, dn1, d1 <= 0.0 or dn1 >= 0.0)


def solve_assortative(
    c: CostFunction,
    G: InferenceProcedure,
    n: int,
    rho_fn: Callable[[float], float],
) -> EquilibriumResult:
    """Assortative CoSESI with type-dependent signal correlation rho(eta).

    Solves 1 - theta = B_n(theta; C_n) + B_n(theta; L) - BB_n(theta; L) where
    L(z) = int_{C_{n,z}}^1 rho(eta) d eta.  The n + 1 quadratures are done
    once per call, not per bisection step.
    """
    quad_tol = Tolerance(abs_tol=1e-13)

    def lam_of(cval: float) -> float:
        hi = min(1.0, max(cval, 0.0))
        return integrate(rho_fn, hi, 1.0, quad_tol)

    costs = expected_costs(G, n, c)
    lam = costs.map(lam_of)
    theta, residual = _root(lambda t: costs.psi(t, 0.0) + lam.psi(t, 0.0) - lam.psi(t, 1.0))
    return EquilibriumResult(
        theta, "AssortativeCoSESI", residual, {"cost": c.name, "G": G.kind, "n": n}
    )


def solve_bayesian_cosesi(
    c: CostFunction,
    prior: tuple[float, float],
    n: int,
    rho: float,
    zeta: float,
) -> EquilibriumResult:
    """Bayesian CoSESI under zeta-degree correlation neglect, rho in {0, 1}:
    the CoSESI under ``BayesBeta(alpha, beta, rho, zeta)``.

    At rho = 0 zeta has no effect; at rho = 1 the two endpoint costs are the
    zeta-mixture of the naive and the correlation-aware posteriors.
    """
    alpha, beta = prior
    if rho not in (0.0, 1.0, 0, 1):
        raise InteriorRhoUnsupported(f"solve_bayesian_cosesi needs rho in {{0,1}}, got {rho}")
    if not 0.0 <= zeta <= 1.0:
        raise BadWeights(f"zeta must be in [0,1], got {zeta}")
    result = solve_cosesi(c, BayesBeta(alpha, beta, rho, zeta), n, rho)
    return EquilibriumResult(
        result.theta,
        "BayesianCoSESI",
        result.residual,
        {"cost": c.name, "prior": (alpha, beta), "n": n, "rho": float(rho), "zeta": zeta},
    )


def solve_heterogeneous(
    specs: Sequence[tuple[float, InferenceProcedure, int]],
    c: CostFunction,
    rho: float,
) -> EquilibriumResult:
    """CoSESI for a population mixing inference procedures and sample sizes.

    ``specs`` holds (weight, G, n) triples; weights must be nonnegative and
    sum to one.  Solves 1 - theta = sum_j w_j Psi_{n_j}(theta, rho; C^j).
    """
    weights = [w for w, _, _ in specs]
    if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
        raise BadWeights(f"weights must be nonnegative and sum to 1, got {weights}")
    groups = [(w, expected_costs(G, n, c)) for w, G, n in specs]
    theta, residual = _root(lambda t: sum(w * costs.psi(t, rho) for w, costs in groups))
    return EquilibriumResult(
        theta, "HeterogeneousCoSESI", residual, {"cost": c.name, "rho": rho, "groups": len(specs)}
    )


def solve_with_dgp(
    c: CostFunction, G: InferenceProcedure, n: int, dgp: SignalDGP
) -> EquilibriumResult:
    """General CoSESI for an arbitrary action-count law: roots of
    1 - theta = sum_y mu(y | theta) C_{n, y/n} located by scan plus bisection.
    Under a rho-mixture law (iid, Markov shock) the sum is ``weighted_bernstein``."""
    grid = cost_grid(G, n, c)
    if isinstance(dgp, (IID, RhoMixture, MarkovShock)):
        res = lambda t: 1.0 - t - weighted_bernstein(n, t, dgp.rho, grid)
    else:
        res = lambda t: 1.0 - t - float(action_count_pmf(dgp, n, t).probs @ grid)

    roots = find_roots(res, 1e-4, _SOLVE_TOL)
    residual = max((abs(res(r)) for r in roots), default=math.inf)
    return EquilibriumResult(
        tuple(roots), "GeneralCoSESI", residual, {"cost": c.name, "G": G.kind, "n": n, "dgp": repr(dgp)}
    )


def solve_general_cmb(
    c: CostFunction, G: InferenceProcedure, n: int, nu: float
) -> EquilibriumResult:
    """General CoSESI under the Conway-Maxwell-Binomial count law.

    Uniqueness is not guaranteed away from nu = 1, so all roots found on a
    1e-4 scan are reported.  nu = 1 reproduces the SESI; nu = -inf is the
    extreme positive-dependence case.
    """
    result = solve_with_dgp(c, G, n, CMB(nu))
    return EquilibriumResult(
        result.theta_star, "GeneralCMB", result.residual, {"cost": c.name, "G": G.kind, "n": n, "nu": nu}
    )


def sweep(
    axis: str,
    values: Sequence[float],
    c: CostFunction,
    G: InferenceProcedure,
    n: int = 2,
    rho: float = 0.0,
) -> SweepTable:
    """theta* as a function of rho (on one set of expected costs) or of n."""
    if axis == "rho":
        rhos = [float(v) for v in values]
        for r in rhos:
            _check_rho(r)
        costs = expected_costs(G, n, c)
        rows = [(r, _cosesi_root(costs, r)[0]) for r in rhos]
    elif axis == "n":
        ns = [float(v) for v in values]
        bad = [m for m in ns if not (m >= 1 and m.is_integer())]
        if bad:
            raise ValueError(f"sample size n must be a positive integer, got {bad[0]:g}")
        rows = [(m, solve_cosesi(c, G, int(m), rho).theta) for m in ns]
    else:
        raise ValueError(f"axis must be 'rho' or 'n', got '{axis}'")
    rows.sort(key=lambda r: r[0])
    return SweepTable(axis, tuple(rows))
