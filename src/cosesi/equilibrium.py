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
``model.weighted_limit`` on the cost itself.  :func:`_takes_limit` is the
one place that picks between them: MLE requests with n above ``LARGE_N``
and infinite n (hence NE) use the limit B_n(theta; C_n) -> c(theta).
Every equation here and in ``applications`` is solved, at the default
``numerics.SOLVE_TOL``, by :func:`_cosesi_root` (the unique root for
increasing costs: a closed form at rho = 1, else the clamped solve
:func:`_root`) or by :func:`_roots` (scan, refine, merge roots within 1e-6).
:func:`_cosesi_roots` is :func:`_cosesi_root` on many mapped cost rows at
once (``ExpectedCosts.map_rows``), solved in lockstep with the same roots
bit for bit.
The count-law scans of :func:`solve_with_dgp` and :func:`enumerate_cosesi`
(finite n) evaluate their 10 001 nodes as one blockwise array product of
``model.count_pmf_grid`` rows and the cost grid.  A block product and the
one-row product of the residual at one theta may round differently, so the
latter re-checks each node within ``SOLVE_TOL.abs_tol`` of zero and gives
every bracket end: the brackets and refined roots are those of a scan that
evaluates the residual node by node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .numerics import Tolerance, find_roots, integrate, solve_decreasing, solve_decreasing_rows
from .model import (
    CMB,
    BayesBeta,
    CostFunction,
    IID,
    InferenceProcedure,
    MLE,
    MarkovShock,
    RhoMixture,
    SignalDGP,
    UnsupportedN,
    action_count_pmf,
    count_pmf_grid,
    mixture_pmf_grid,
    weighted_bernstein,
    weighted_bernstein_rows,
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


def _check_n(n: float) -> None:
    """Refuse a sample size that is not a positive integer (inf included)."""
    if not (n >= 1 and float(n).is_integer()):
        raise UnsupportedN(f"n must be a positive integer, got {n:g}")


def cost_grid(G: InferenceProcedure, n: int, cost: Callable[[float], float]) -> np.ndarray:
    """Expected costs C_{n, y/n} on the sample-mean grid y = 0..n."""
    _check_n(n)
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
    ends: tuple[float, float]

    def psi(self, theta: float, rho: float) -> float:
        """Psi_n(theta, rho; C): the rho-mixture expectation of the costs."""
        if callable(self.values):
            return weighted_limit(theta, rho, self.values, self.ends)
        return weighted_bernstein(self.n, theta, rho, self.values)

    def map(self, f: Callable[[float], float]) -> ExpectedCosts:
        """``f`` applied to every grid value, or composed with the limit cost
        (its endpoint images taken from ``ends``); ``ends`` are kept either way."""
        values = self.values
        if callable(values):
            f0, f1 = self.ends
            return ExpectedCosts(self.n, lambda x: f(values(x)), (f(f0), f(f1)))
        cells = [f(v) for v in values.tolist()]
        return ExpectedCosts(self.n, np.array(cells), (cells[0], cells[-1]))

    def map_rows(self, f: Callable[[np.ndarray, np.ndarray], np.ndarray], params: np.ndarray) -> ExpectedCostRows:
        """Row i is ``map(lambda v: f(v, params[i]))``, bit for bit, with ``f``
        elementwise on arrays: the grid mapped as one (m, n + 1) array, or the
        limit cost called one theta at a time and mapped per row."""
        values = self.values
        ends = (f(self.ends[0], params), f(self.ends[1], params))
        if callable(values):
            composed = lambda xs, rows: f(np.array([values(x) for x in xs.tolist()]), params[rows])
            return ExpectedCostRows(self.n, composed, ends)
        return ExpectedCostRows(self.n, f(values, params[:, None]), ends)


@dataclass(frozen=True)
class ExpectedCostRows:
    """m rows of mapped expected costs, built by :meth:`ExpectedCosts.map_rows`:
    an (m, n + 1) grid, or in the limit ``values(xs, rows)``, the cost of row
    ``rows[i]`` at ``xs[i]``; ``ends`` holds the m pairs as two arrays."""

    n: float
    values: np.ndarray | Callable[[np.ndarray, np.ndarray], np.ndarray]
    ends: tuple[np.ndarray, np.ndarray]

    def psi(self, thetas: np.ndarray, rho: float, rows: np.ndarray) -> np.ndarray:
        """Entry i is ``ExpectedCosts.psi(thetas[i], rho)`` of row ``rows[i]``, bit for bit."""
        ends = (self.ends[0][rows], self.ends[1][rows])
        if callable(self.values):
            values = self.values
            return weighted_limit(thetas, rho, lambda xs: values(xs, rows), ends)
        return weighted_bernstein_rows(self.n, thetas, rho, self.values[rows])


def _takes_limit(G: InferenceProcedure, n: float) -> bool:
    """The one large-n decision: MLE above ``LARGE_N`` and n = inf read c itself; any
    other n must be a positive integer.  BayesBeta at rho = 1, zeta < 1 has no limit:
    its aware posterior does not concentrate."""
    if n != math.inf:
        _check_n(n)
        return n > LARGE_N and isinstance(G, MLE)
    if isinstance(G, BayesBeta) and G.rho == 1.0 and G.zeta < 1.0:
        raise UnsupportedN(f"{G.kind} at rho = 1, zeta = {G.zeta} has no n = inf limit; n must be finite")
    return True


def expected_costs(G: InferenceProcedure, n: float, c: Callable[[float], float]) -> ExpectedCosts:
    """The costs every solver reads: the grid of :func:`cost_grid`, or c itself
    where :func:`_takes_limit` says so."""
    if _takes_limit(G, n):
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


def _cosesi_roots(
    costs: ExpectedCosts, rho: float, f: Callable[[np.ndarray, np.ndarray], np.ndarray], params: np.ndarray
) -> np.ndarray:
    """``_cosesi_root(costs.map(lambda v: f(v, q)), rho)[0]`` at every q of
    ``params``, bit for bit, with ``f`` elementwise on arrays: one lockstep
    solve (``numerics.solve_decreasing_rows``) per block of at most
    ``_SCAN_CELLS`` mapped grid cells, or the closed form at rho = 1."""
    step = len(params) if callable(costs.values) else max(1, _SCAN_CELLS // len(costs.values))
    blocks = []
    for i in range(0, len(params), step):
        rows = costs.map_rows(f, params[i : i + step])
        if rho == 1.0:
            blocks.append(_rho1_root(*rows.ends)[0])
        else:
            res = lambda thetas, active: 1.0 - thetas - rows.psi(thetas, rho, active)
            blocks.append(solve_decreasing_rows(res, len(rows.ends[0])))
    return np.concatenate(blocks)


def _root(rhs: Callable[[float], float]) -> tuple[float, float]:
    """The root of 1 - theta = rhs(theta) by the clamped decreasing solve, and its |residual|."""
    res = lambda t: 1.0 - t - rhs(t)
    theta = solve_decreasing(res)
    return theta, abs(res(theta))


def _roots(
    res: Callable[[float], float],
    grid_step: float,
    evaluate: Callable[[list[float]], list[float]] | None = None,
) -> tuple[tuple[float, ...], float]:
    """Every root of ``res`` on a ``grid_step`` scan of [0, 1], refined, with roots
    closer than 1e-6 merged, and the largest |residual| over them (inf if none).
    ``evaluate`` is the scan's optional array form of ``res`` (see
    ``numerics.find_sign_changes``); without it the scan calls ``res`` at every node."""
    roots: list[float] = []
    for r in find_roots(res, grid_step, evaluate=evaluate):
        if not roots or r - roots[-1] > 1e-6:
            roots.append(r)
    return tuple(roots), max((abs(res(r)) for r in roots), default=math.inf)


_SCAN_CELLS = 10_000  # pmf or cost cells per block of an array scan or lockstep solve, so its memory is flat in n


def _count_law_scan(
    pmf_rows: Callable[[np.ndarray], np.ndarray], grid: np.ndarray, lhs: Callable[[np.ndarray], np.ndarray]
) -> Callable[[list[float]], list[float]]:
    """Array form of the residual lhs(x) - sum_y mu(y | x) grid[y] over the scan
    nodes, with ``pmf_rows(xs)`` the (len(xs), n + 1) count-law rows, taken in
    blocks of at most ``_SCAN_CELLS`` cells."""
    rows = max(1, _SCAN_CELLS // len(grid))

    def evaluate(nodes: list[float]) -> list[float]:
        xs = np.asarray(nodes)
        rhs = np.concatenate([pmf_rows(xs[i : i + rows]) @ grid for i in range(0, len(xs), rows)])
        return (lhs(xs) - rhs).tolist()

    return evaluate


def _rho1_root(c0: float, c1: float) -> tuple[float, float]:
    theta = (1.0 - c0) / (1.0 - c0 + c1)
    return theta, abs(1.0 - theta - (theta * c1 + (1.0 - theta) * c0))


def cosesi_rho1_closed(c: CostFunction, G: InferenceProcedure, n: float) -> EquilibriumResult:
    """Closed form at rho = 1: theta* = (1 - C_{n,0}) / (1 - C_{n,0} + C_{n,1}),
    from these two cells alone (c(0) and c(1) at infinite n)."""
    ends = (c(0.0), c(1.0)) if _takes_limit(G, n) else (G.expected_cost(n, 0.0, c), G.expected_cost(n, 1.0, c))
    theta, residual = _rho1_root(*ends)
    return EquilibriumResult(theta, "CoSESI", residual, {"cost": c.name, "G": G.kind, "n": n})


def enumerate_cosesi(
    c: CostFunction, n: int, rho: float, grid_step: float = 1e-4
) -> EquilibriumResult:
    """All CoSESIs of the cooperative benefit-form game theta = Psi_n(theta, rho; c).

    Intended for S-shaped benefit curves under MLE (so C_n = c); there is at
    least one and at most three roots, exactly one when rho = 1.
    """
    costs = expected_costs(MLE(), n, c)
    scan = None
    if not callable(costs.values):  # the limit's cost is a Python function: no array form
        scan = _count_law_scan(lambda xs: mixture_pmf_grid(costs.n, xs, rho), costs.values, lambda xs: xs)
    roots, residual = _roots(lambda t: t - costs.psi(t, rho), grid_step, scan)
    return EquilibriumResult(roots, "CoSESI", residual, {"cost": c.name, "n": n, "rho": rho})


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
    the CoSESI under ``BayesBeta(alpha, beta, rho, zeta)``, which rejects any
    other rho and a zeta outside [0, 1].

    At rho = 0 zeta has no effect; at rho = 1 the two endpoint costs are the
    zeta-mixture of the naive and the correlation-aware posteriors.
    """
    alpha, beta = prior
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

    The scan evaluates the right side at its 10 001 nodes at once, as
    ``model.count_pmf_grid`` rows times the cost grid, in blocks of at most
    10 000 pmf cells.  The residual at one theta (``weighted_bernstein`` under
    a rho-mixture law, i.e. iid and Markov shock; otherwise the one-row pmf
    ``action_count_pmf`` times the grid) re-checks every node within
    ``SOLVE_TOL.abs_tol`` of zero, since a block product and a one-row
    product may round differently.  It also gives each bracket's end values
    and is the one that bisection refines, so the roots and residual are
    those of a scan that calls it at every node."""
    grid = cost_grid(G, n, c)
    if isinstance(dgp, (IID, RhoMixture, MarkovShock)):
        res = lambda t: 1.0 - t - weighted_bernstein(n, t, dgp.rho, grid)
    else:
        res = lambda t: 1.0 - t - float(action_count_pmf(dgp, n, t).probs @ grid)
    scan = _count_law_scan(lambda xs: count_pmf_grid(dgp, n, xs), grid, lambda xs: 1.0 - xs)
    roots, residual = _roots(res, 1e-4, scan)
    return EquilibriumResult(
        roots, "GeneralCoSESI", residual, {"cost": c.name, "G": G.kind, "n": n, "dgp": repr(dgp)}
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
        for m in ns:
            _check_n(m)
        rows = [(m, solve_cosesi(c, G, int(m), rho).theta) for m in ns]
    else:
        raise ValueError(f"axis must be 'rho' or 'n', got '{axis}'")
    rows.sort(key=lambda r: r[0])
    return SweepTable(axis, tuple(rows))
