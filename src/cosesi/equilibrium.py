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
``model.weighted_limit`` on the cost itself.  ``ExpectedCosts.psi_rows`` is
the one array form of it, bit for bit, for many thetas (each with its own
mapped costs, if asked), in blocks of grid cells or one limit call per
theta.  :func:`_takes_limit` is the one place that picks between grid and
limit: MLE requests with n above ``LARGE_N`` and infinite n (hence NE) use
the limit B_n(theta; C_n) -> c(theta).
The rho-mixture equations are solved, at the default
``numerics.SOLVE_TOL``, by :func:`_cosesi_root` (the unique root for
increasing costs: a closed form at rho = 1, else the clamped solve
:func:`_root`), by :func:`_roots` (scan, refine, merge roots within 1e-6),
or, for many mapped cost rows at once, by :func:`_cosesi_roots`: one
lockstep solve on ``psi_rows``, each row's root :func:`_cosesi_root`'s
bit for bit.  It is the one path of the monopoly demand.
The scans of :func:`_roots` take one residual on arrays of thetas:
``psi_rows`` under a rho-mixture law, else ``model.count_pmf_grid`` rows
met with the cost grid by ``model.row_dots``, in blocks.  Each row's value
does not depend on the block it is in, so the refinement, which calls the
same residual at one theta, reads the scan's values bit for bit.  Where the
law's residual has Bernstein coefficients (``model.bernstein_residual``),
the scan takes only the grid cells that ``numerics.isolate_roots`` cannot
rule out, and the end cells; a dropped cell is proved free of sign changes
of the scanned residual, so the roots are those of the scan of every cell,
bit for bit.  Where the law rises in theta in the usual stochastic order
and the cost grid is non-decreasing, the residual is strictly decreasing:
:func:`_monotone_roots` searches the one cell where its signs change and
scans that cell alone, again the roots of the scan of every cell.  A
residual that vanishes on all of [0, 1] raises
:class:`ContinuumOfEquilibria` instead of a list of rounding roots, as do
the rho = 1 closed form's scalar solves where C_{n,0} = 1 and C_{n,1} = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .numerics import (
    RootInterval,
    find_roots,
    integrate,
    isolate_roots,
    scan_cells,
    solve_decreasing,
    solve_decreasing_rows,
)
from .model import (
    CMB,
    BayesBeta,
    CostFunction,
    IID,
    InferenceProcedure,
    MLE,
    MarkovShock,
    RhoMixture,
    Sequential,
    SignalDGP,
    UnsupportedN,
    _check_mixture_rho,
    _check_n,
    bernstein_residual,
    count_pmf_grid,
    row_dots,
    weighted_bernstein,
    weighted_bernstein_rows,
    weighted_limit,
)

__all__ = [
    "EquilibriumResult",
    "SweepTable",
    "BadWeights",
    "ContinuumOfEquilibria",
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
_CONTINUUM_TOL = 1e-12  # a residual within this of 0 at every node of a 0.1 grid vanishes on [0, 1]


class BadWeights(ValueError):
    """Mixture weights are negative or do not sum to one."""


class ContinuumOfEquilibria(ValueError):
    """The residual is 0 up to rounding on all of [0, 1]: every theta solves."""


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
    """Expected costs C_{n, y/n} on the sample-mean grid y = 0..n, one array
    evaluation of ``cost`` (``G.expected_cells``); entry y is
    ``G.expected_value(n, y / n, cost)`` bit for bit.

    MLE reads ``cost`` at ``np.arange(n + 1) / n``.  Beta estimation and the
    Bayes posteriors take every cell through fixed-node Gauss rules
    (``model.beta_expectation``: 128-node Gauss-Legendre on a window, and a
    graded 64-node Gauss-Jacobi panel at an end where a shape is below 4),
    tested to 1e-13 on pow costs for n up to 200 and to 1e-12 on fractional
    powers, exp and steep S-shaped costs.
    """
    n = _check_n(n)
    return G.expected_cells(n, np.arange(n + 1), cost)


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
        """``f``, a caller's float function, called on every grid value, or composed
        with the limit cost (endpoint images from ``ends``); ``ends`` are kept either way."""
        values = self.values
        if callable(values):
            f0, f1 = self.ends
            return ExpectedCosts(self.n, lambda x: f(values(x)), (f(f0), f(f1)))
        cells = [f(v) for v in values.tolist()]
        return ExpectedCosts(self.n, np.array(cells), (cells[0], cells[-1]))

    def psi_rows(
        self,
        thetas: np.ndarray,
        rho: float,
        f: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
        params: np.ndarray | None = None,
    ) -> np.ndarray:
        """Entry i is ``psi(thetas[i], rho)``, or with ``f`` (elementwise on
        arrays) ``map(lambda v: f(v, params[i])).psi(thetas[i], rho)``, bit for
        bit.  The grid is read in blocks of at most ``_SCAN_CELLS`` cells, so
        memory is flat in n; the limit calls the caller's float cost once per theta."""
        values = self.values
        if callable(values):
            cost = lambda xs: np.array([values(x) for x in xs.tolist()])
            if f is None:
                return weighted_limit(thetas, rho, cost, self.ends)
            ends = (f(self.ends[0], params), f(self.ends[1], params))
            return weighted_limit(thetas, rho, lambda xs: f(cost(xs), params), ends)

        def rows(idx: np.ndarray) -> np.ndarray:
            grid = values if f is None else f(values, params[idx, None])
            return weighted_bernstein_rows(self.n, thetas[idx], rho, grid)

        return _in_blocks(self.n, rows)(np.arange(len(thetas)))


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
    n = _check_n(n)
    grid = cost_grid(G, n, c)
    return ExpectedCosts(n, grid, (float(grid[0]), float(grid[-1])))


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
    _check_mixture_rho(rho)
    if rho == 1.0:
        closed = cosesi_rho1_closed(c, G, n)
        theta, residual = closed.theta, closed.residual
    else:
        theta, residual = _cosesi_root(expected_costs(G, n, c), rho)
    concept = "SESI" if rho == 0.0 else "CoSESI"
    return EquilibriumResult(
        theta, concept, residual, {"cost": c.name, "G": G.kind, "n": n, "rho": rho}
    )


def _cosesi_root(costs: ExpectedCosts, rho: float) -> tuple[float, float]:
    """The root of 1 - theta = costs.psi(theta, rho) and its |residual|."""
    if rho == 1.0:
        return _rho1_scalar_root(*costs.ends)
    return _root(lambda t: costs.psi(t, rho))


def _cosesi_roots(
    costs: ExpectedCosts, rho: float, f: Callable[[np.ndarray, np.ndarray], np.ndarray], params: np.ndarray
) -> np.ndarray:
    """``_cosesi_root(costs.map(lambda v: f(v, q)), rho)[0]`` at every q of
    ``params``, bit for bit, with ``f`` elementwise on arrays: one lockstep
    solve (``numerics.solve_decreasing_rows``) on ``ExpectedCosts.psi_rows``,
    or the closed form at rho = 1."""
    if rho == 1.0:
        return _rho1_root(f(costs.ends[0], params), f(costs.ends[1], params))[0]
    res = lambda thetas, rows: 1.0 - thetas - costs.psi_rows(thetas, rho, f, params[rows])
    return solve_decreasing_rows(res, len(params))


def _root(rhs: Callable[[float], float]) -> tuple[float, float]:
    """The root of 1 - theta = rhs(theta) by the clamped decreasing solve, and its |residual|."""
    res = lambda t: 1.0 - t - rhs(t)
    theta = solve_decreasing(res)
    return theta, abs(res(theta))


def _roots(
    res: Callable[[np.ndarray], np.ndarray],
    grid_step: float,
    poly: Callable[[], tuple[np.ndarray, np.ndarray] | None] = lambda: None,
) -> tuple[tuple[float, ...], float, str, str]:
    """Every root of ``res``, a residual on arrays of thetas (see
    ``numerics.find_roots``), on a ``grid_step`` scan of [0, 1], refined, with
    roots closer than 1e-6 merged, the largest |residual| over them (inf if
    none), the root-count certificate and the method: ``bernstein_isolate``
    or ``scan``.

    ``poly``, called once the grid step is checked, gives the residual's
    Bernstein coefficients and their bounds (``model.bernstein_residual``),
    or None.  With finite coefficients the scan takes only the cells that
    ``numerics.isolate_roots`` cannot rule out, and the two end cells, where
    a count law may put a point mass at theta = 0 or 1; otherwise all cells.
    When every coefficient lies within its bound, the residual is 0 up to
    rounding on all of [0, 1], and :class:`ContinuumOfEquilibria` is raised
    instead of a list of rounding roots.  Without coefficients the same error
    is raised, after the scan (so a law's own error still comes from the
    scan), when the residual is within ``_CONTINUUM_TOL`` (1e-12) of 0 at
    every node of a 0.1 grid.
    The certificate reads ``certified k`` when every kept interval has
    exactly one sign variation, with its coefficients beyond their bounds,
    and holds exactly one of the roots found, and the k roots are all that
    was found, each in one interval; else ``>= k found``.
    """
    n_cells = scan_cells(grid_step)
    bernstein = poly()
    cells, kept = None, None
    if bernstein is not None and all(np.isfinite(v).all() for v in bernstein):
        coeffs, errs = bernstein
        if (np.abs(coeffs) <= errs).all():
            raise ContinuumOfEquilibria("a continuum of equilibria: every theta in [0,1] solves")
        kept = isolate_roots(coeffs, errs, _split_depth(len(coeffs), n_cells))
        scanned = np.zeros(n_cells, dtype=bool)
        scanned[[0, -1]] = True
        for iv in kept:
            scanned[math.floor(iv.lo * n_cells) : math.ceil(iv.hi * n_cells)] = True
        cells = np.flatnonzero(scanned)
    found = find_roots(res, grid_step, cells=cells)
    if kept is None and (np.abs(res(np.arange(11) / 10)) <= _CONTINUUM_TOL).all():
        raise ContinuumOfEquilibria("a continuum of equilibria: every theta in [0,1] solves")
    roots: list[float] = []
    for r in found:
        if not roots or r - roots[-1] > 1e-6:
            roots.append(r)
    residual = float(np.abs(res(np.array(roots))).max()) if roots else math.inf
    method = "scan" if kept is None else "bernstein_isolate"
    return tuple(roots), residual, _certificate(kept, found, len(roots)), method


def _monotone_roots(res: Callable[[np.ndarray], np.ndarray], n: int) -> tuple[tuple[float, ...], float, str, str]:
    """:func:`_roots` of a strictly decreasing residual on the 1e-4 grid, without coefficients.

    Its signs on the grid nodes change at most once, so a k-ary search over
    node indices finds the one cell where they do: each round calls ``res``
    once, on at most ``min(100, _SCAN_CELLS // (n + 1))`` (at least 1)
    nodes spread over the span left.  ``numerics.find_roots`` then scans that
    one cell (the first where ``res`` is <= 0 at its right end, or an end
    cell), so the roots and residual are those of the scan of every cell, bit
    for bit, and the certificate is ``certified k``, k in {0, 1}.  A value
    that is not finite sends the solve to that scan, which raises at the first
    such node."""
    n_cells = scan_cells(1e-4)
    width = max(1, min(100, _SCAN_CELLS // (n + 1)))
    lo, hi = -1, n_cells + 1  # res > 0 at node lo and <= 0 at node hi; nodes -1 and n_cells + 1 lie outside
    while hi - lo > 1:
        k = min(hi - lo - 1, width)
        # Python ints: an int64 array product and floor division would page in
        # numpy loops that no other solve uses, some 0.1 MB of peak RSS per process
        nodes = [lo + i * (hi - lo) // (k + 1) for i in range(1, k + 1)]
        fs = res(np.array(nodes) / n_cells)
        if not np.isfinite(fs).all():
            return _roots(res, 1e-4)
        above = int(np.count_nonzero(fs > 0.0))
        lo = nodes[above - 1] if above else lo
        hi = nodes[above] if above < k else hi
    found = find_roots(res, 1e-4, cells=np.array([min(max(hi - 1, 0), n_cells - 1)]))
    residual = float(np.abs(res(np.array(found))).max()) if found else math.inf
    return tuple(found), residual, f"certified {len(found)}", "monotone"


def _split_depth(m: int, n_cells: int) -> int:
    """The halvings after which an interval spans at most m grid cells, m the
    number of coefficients: a level of halvings takes m array steps, and
    scanning a node costs a count-law row of about m cells, so below that
    width a halving saves less than it costs (and above some 10 000
    coefficients on a 1e-4 grid there is none)."""
    return max(0, math.ceil(math.log2(n_cells / m)))


def _certificate(kept: tuple[RootInterval, ...] | None, found: list[float], k: int) -> str:
    """``certified k`` when the k roots found and the kept intervals, each
    ``single``, pair off one to one, a root inside (ends included) its interval."""
    if kept is None or not len(kept) == len(found) == k or not all(iv.single for iv in kept):
        return f">= {k} found"
    inside = [[iv.lo <= r <= iv.hi for r in found] for iv in kept]
    one_to_one = all(sum(row) == 1 for row in inside) and all(sum(col) == 1 for col in zip(*inside))
    return f"certified {k}" if one_to_one else f">= {k} found"


_SCAN_CELLS = 10_000  # pmf or cost cells per block of an array scan or lockstep solve, so its memory is flat in n


def _in_blocks(n: int, rhs: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """``rhs`` over an array of thetas in blocks of at most ``_SCAN_CELLS``
    cells of n + 1 count-law values per theta."""
    rows = max(1, _SCAN_CELLS // (n + 1))
    return lambda xs: np.concatenate([rhs(xs[i : i + rows]) for i in range(0, len(xs), rows)])


def _rho1_root(c0: float, c1: float) -> tuple[float, float]:
    theta = (1.0 - c0) / (1.0 - c0 + c1)
    return theta, abs(1.0 - theta - (theta * c1 + (1.0 - theta) * c0))


def _rho1_scalar_root(c0: float, c1: float) -> tuple[float, float]:
    """:func:`_rho1_root` of one pair of end costs; at C_{n,0} = 1 and C_{n,1} = 0,
    where 1 - theta = theta C_{n,1} + (1 - theta) C_{n,0} holds at every theta,
    raises :class:`ContinuumOfEquilibria`."""
    if c0 == 1.0 and c1 == 0.0:
        raise ContinuumOfEquilibria("a continuum of equilibria: every theta in [0,1] solves")
    return _rho1_root(c0, c1)


def cosesi_rho1_closed(c: CostFunction, G: InferenceProcedure, n: float) -> EquilibriumResult:
    """Closed form at rho = 1: theta* = (1 - C_{n,0}) / (1 - C_{n,0} + C_{n,1}),
    from these two cells alone (c(0) and c(1) at infinite n), built in one
    ``G.expected_cells`` call.  Raises :class:`ContinuumOfEquilibria` where
    C_{n,0} = 1 and C_{n,1} = 0: every theta solves."""
    if _takes_limit(G, n):
        ends = (c(0.0), c(1.0))
    else:
        m = _check_n(n)
        ends = G.expected_cells(m, np.array([0, m]), c).tolist()
    theta, residual = _rho1_scalar_root(*ends)
    return EquilibriumResult(theta, "CoSESI", residual, {"cost": c.name, "G": G.kind, "n": n})


def enumerate_cosesi(
    c: CostFunction, n: int, rho: float, grid_step: float = 1e-4
) -> EquilibriumResult:
    """All CoSESIs of the cooperative benefit-form game theta = Psi_n(theta, rho; c).

    Intended for S-shaped benefit curves under MLE (so C_n = c); there is at
    least one and at most three roots, exactly one when rho = 1 unless c(0) = 0
    and c(1) = 1.  At finite n the ``grid_step`` scan takes only the cells
    that the residual's Bernstein coefficients cannot rule out, and
    ``params["certificate"]`` states the root count and ``params["method"]``
    the route (see :func:`_roots`); where the residual vanishes identically (rho = 1 with c(0) = 0 and
    c(1) = 1, or a linear cost at any rho) it raises
    :class:`ContinuumOfEquilibria`.  The large-n limit scans every cell,
    and raises the same error where the residual vanishes on a 0.1 grid.
    """
    costs = expected_costs(MLE(), n, c)

    def poly():
        if costs.n == math.inf:  # the limit has no Bernstein coefficients
            return None
        return bernstein_residual(RhoMixture(rho), costs.n, costs.values, benefit=True)

    roots, residual, certificate, method = _roots(lambda xs: xs - costs.psi_rows(xs, rho), grid_step, poly)
    params = {"cost": c.name, "n": n, "rho": rho, "certificate": certificate, "method": method}
    return EquilibriumResult(roots, "CoSESI", residual, params)


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
    L(z) = int_{C_{n,z}}^1 rho(eta) d eta, taken at every grid cell by one
    :func:`numerics.integrate` call (in the large-n limit, one per residual).
    """
    lam_of = lambda cval: integrate(rho_fn, np.clip(cval, 0.0, 1.0), 1.0)
    costs = expected_costs(G, n, c)
    if callable(costs.values):
        lam = costs.map(lam_of)
    else:
        cells = lam_of(costs.values)
        lam = ExpectedCosts(costs.n, cells, (float(cells[0]), float(cells[-1])))
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


def _check_weights(weights: list[float]) -> None:
    """Refuse weights that are not nonnegative with a finite sum of one; each
    test is written so that a NaN or an infinity fails it."""
    if not all(w >= 0 for w in weights) or not abs(sum(weights) - 1.0) <= 1e-9:
        raise BadWeights(f"weights must be nonnegative and sum to 1, got {weights}")


def solve_heterogeneous(
    specs: Sequence[tuple[float, InferenceProcedure, int]],
    c: CostFunction,
    rho: float,
) -> EquilibriumResult:
    """CoSESI for a population mixing inference procedures and sample sizes.

    ``specs`` holds (weight, G, n) triples; weights must be nonnegative and
    sum to one.  Solves 1 - theta = sum_j w_j Psi_{n_j}(theta, rho; C^j).
    """
    _check_weights([w for w, _, _ in specs])
    groups = [(w, expected_costs(G, n, c)) for w, G, n in specs]
    theta, residual = _root(lambda t: sum(w * costs.psi(t, rho) for w, costs in groups))
    return EquilibriumResult(
        theta, "HeterogeneousCoSESI", residual, {"cost": c.name, "rho": rho, "groups": len(specs)}
    )


def solve_with_dgp(
    c: CostFunction, G: InferenceProcedure, n: int, dgp: SignalDGP
) -> EquilibriumResult:
    """General CoSESI for an arbitrary action-count law: roots of
    1 - theta = sum_y mu(y | theta) C_{n, y/n}, each a sign change (or an
    exact zero) of the residual on a 1e-4 grid, refined in its cell.

    One residual serves the grid and the refinement at one theta.  Its right
    side is ``ExpectedCosts.psi_rows`` under a rho-mixture law (iid,
    rho-mixture and Markov shock), otherwise the ``model.count_pmf_grid``
    rows met with the cost grid by ``model.row_dots``; both take blocks of
    at most 10 000 cells.  ``params["method"]`` names the route:

    * ``monotone`` under the iid, rho-mixture, Markov-shock, CMB (nu = +-inf
      included) and sequential laws, when the cost grid is non-decreasing:
      mu(. | theta) rises in theta in the usual stochastic order, so the
      residual is strictly decreasing and has at most one root, found by
      :func:`_monotone_roots` in one cell;
    * ``bernstein_isolate`` under those laws on any other grid: the scan
      takes only the cells that the residual's Bernstein coefficients cannot
      rule out (see :func:`_roots`);
    * ``scan`` under Bahadur and additive-binomial laws: every cell.

    Every route gives the roots and residual of the scan of every cell, bit
    for bit; ``params["certificate"]`` states the root count, and a residual
    that vanishes identically raises :class:`ContinuumOfEquilibria`.  An
    integral float n solves as that integer."""
    n = _check_n(n)
    grid = cost_grid(G, n, c)
    if isinstance(dgp, (IID, RhoMixture, MarkovShock)):
        costs = ExpectedCosts(n, grid, (float(grid[0]), float(grid[-1])))
        rhs = lambda xs: costs.psi_rows(xs, dgp.rho)
    else:
        rhs = _in_blocks(n, lambda xs: row_dots(count_pmf_grid(dgp, n, xs), grid))
    res = lambda xs: 1.0 - xs - rhs(xs)
    if isinstance(dgp, (IID, RhoMixture, MarkovShock, CMB, Sequential)) and np.all(np.diff(grid) >= 0.0):
        roots, residual, certificate, method = _monotone_roots(res, n)
    else:
        roots, residual, certificate, method = _roots(res, 1e-4, lambda: bernstein_residual(dgp, n, grid))
    params = {"cost": c.name, "G": G.kind, "n": n, "dgp": repr(dgp), "certificate": certificate, "method": method}
    return EquilibriumResult(roots, "GeneralCoSESI", residual, params)


def solve_general_cmb(
    c: CostFunction, G: InferenceProcedure, n: int, nu: float
) -> EquilibriumResult:
    """General CoSESI under the Conway-Maxwell-Binomial count law.

    The law rises in theta in the usual stochastic order at every nu (monotone
    likelihood ratio), so on a non-decreasing cost grid the root is unique
    and :func:`solve_with_dgp` certifies it; on any other grid every root it
    finds on a 1e-4 grid is reported.  nu = 1 reproduces the SESI; nu = -inf
    is the extreme positive-dependence case.  Kept only because the benchmark
    in ``perfbench/`` still calls it; everything else calls
    ``solve_with_dgp(c, G, n, CMB(nu))``.
    """
    result = solve_with_dgp(c, G, n, CMB(nu))
    n, certificate, method = (result.params[k] for k in ("n", "certificate", "method"))
    params = {"cost": c.name, "G": G.kind, "n": n, "nu": nu, "certificate": certificate, "method": method}
    return EquilibriumResult(result.theta_star, "GeneralCMB", result.residual, params)


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
            _check_mixture_rho(r)
        costs = expected_costs(G, n, c)
        rows = [(r, _cosesi_root(costs, r)[0]) for r in rhos]
    elif axis == "n":
        ns = [float(v) for v in values]
        sizes = [_check_n(m) for m in ns]
        rows = [(m, solve_cosesi(c, G, size, rho).theta) for m, size in zip(ns, sizes)]
    else:
        raise ValueError(f"axis must be 'rho' or 'n', got '{axis}'")
    rows.sort(key=lambda r: r[0])
    return SweepTable(axis, tuple(rows))
