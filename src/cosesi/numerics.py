"""Numerics shared by every solver in the package.

Normal CDF (also entrywise on arrays) and quantile, Owen's T function,
every quadrature rule of the package (the cached Gauss-Jacobi rules on
[0, 1], which ``model.beta_expectation`` composes, and ``integrate``'s one
graded Gauss rule), and root finding.  One bracketed root loop, of
Anderson-Bjorck steps on arrays of brackets in lockstep, refines every root
of the package (``solve_decreasing_rows`` states it); ``solve_bracketed`` is
its one-row call.  Around it sit the clamped solves of decreasing
residuals, the scan-plus-refine root enumeration, and the isolation of a
Bernstein polynomial's roots that picks the cells to scan.  The root
routines take no tolerance: each reads the module's ``SOLVE_TOL`` (|f| <=
1e-13 within 300 steps) when it is called, so a test that needs another
budget patches it there.  A scalar solve is one row of the loop, so a row
whose residual values are the scalar residual's, bit for bit, gets the
scalar root bit for bit.
A scan takes one residual on arrays: it evaluates every node in one call,
and the refinement calls it on one theta at a time, so a residual whose
entries do not depend on the other thetas in the call (each row of a count
law is computed on its own) gives the scan and the refinement the same
values, bit for bit.
Everything here is pure and needs numpy alone: the normal CDF goes through
``math.erfc`` (double-precision complementary error function) and the
quantile through ``statistics.NormalDist``.  No scipy is used in this
module so the accuracy claims are testable against independent oracles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Bracket",
    "Tolerance",
    "SOLVE_TOL",
    "SignChangeScan",
    "NumericsError",
    "DomainError",
    "NoSignChange",
    "MaxIterExceeded",
    "norm_cdf",
    "norm_cdf_array",
    "norm_quantile",
    "owen_t",
    "integrate",
    "solve_bracketed",
    "solve_decreasing",
    "solve_decreasing_rows",
    "scan_cells",
    "find_sign_changes",
    "find_roots",
    "RootInterval",
    "isolate_roots",
]

_SQRT2 = math.sqrt(2.0)


class NumericsError(Exception):
    """Base error for this module."""


class DomainError(NumericsError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class NoSignChange(NumericsError):
    """A bracketed solve was requested without a sign change."""


class MaxIterExceeded(NumericsError):
    """Iteration/refinement budget exhausted before reaching tolerance."""


@dataclass(frozen=True)
class Tolerance:
    """Absolute tolerance and iteration budget for iterative routines."""

    abs_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not self.abs_tol > 0.0:
            raise DomainError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter}")


SOLVE_TOL = Tolerance(abs_tol=1e-13, max_iter=300)


@dataclass(frozen=True)
class Bracket:
    """Interval [lo, hi] with recorded function values of opposite sign."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise DomainError(f"bracket needs lo < hi, got [{self.lo}, {self.hi}]")
        if not (self.f_lo < 0.0 < self.f_hi or self.f_hi < 0.0 < self.f_lo):
            raise NoSignChange(
                f"f({self.lo})={self.f_lo} and f({self.hi})={self.f_hi} "
                "do not have strictly opposite signs"
            )


@dataclass(frozen=True)
class SignChangeScan:
    """Result of a uniform-grid sign scan on [0, 1].

    ``brackets`` hold strict sign changes between adjacent grid nodes;
    ``node_roots`` are grid nodes where the function is exactly zero
    (reported separately, not as brackets).
    """

    brackets: tuple[Bracket, ...]
    node_roots: tuple[float, ...]


def norm_cdf(x: float) -> float:
    """Standard normal CDF, absolute error below 1e-15 via erfc."""
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_cdf_array(x: np.ndarray | float) -> np.ndarray | float:
    """:func:`norm_cdf` at every entry of ``x`` (an array or a float), bit for
    bit: the quotient taken by numpy, ``math.erfc`` per entry: numpy has no
    erfc, and the grid path may not import scipy's."""
    z = np.ravel(-x / _SQRT2).tolist()
    return 0.5 * np.fromiter(map(math.erfc, z), float, len(z)).reshape(np.shape(x))


def norm_quantile(p: float) -> float:
    """Inverse of :func:`norm_cdf` on (0, 1), by the standard library's
    ``NormalDist.inv_cdf`` (Wichura's AS 241, relative error near 1e-16).
    Raises :class:`DomainError` outside (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"norm_quantile requires p in (0,1), got {p}")
    return _std_normal().inv_cdf(p)


@functools.cache
def _std_normal():
    from statistics import NormalDist  # imported on first use: it costs ~5 ms

    return NormalDist()


_BODY_NODES = 128  # nodes of a body rule; 64 leave 4e-10 on sshape:0.05,0.95,50,0.5 at Beta(2, 3)
_PANEL_NODES = 64  # nodes of an end panel
_PANEL_GRADING = 16  # x = c u^16 on an end panel
_PANEL_SHARE = 1.0 / 16.0  # an end panel's share of the interval
_BLOCK = 32  # cells per node array, so that memory does not grow with the number of cells
_RULE_NEWTON_STEPS = 4  # on the zeros of P_m; three leave 2e-12 at power -0.99


def _evaluate(fn: Callable, xs: np.ndarray) -> np.ndarray:
    """``fn`` at every entry of ``xs``: one call on the array, broadcasting a
    scalar result; a caller's callable that takes only floats is called per
    point, as nothing else can evaluate it."""
    try:
        out = np.asarray(fn(xs), dtype=float)
    except (TypeError, ValueError):
        return np.array([fn(x) for x in xs.ravel().tolist()], dtype=float).reshape(xs.shape)
    return out if out.shape == xs.shape else np.full(xs.shape, out)


@functools.lru_cache(maxsize=1024)
def _gauss_jacobi(m: int, power: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """m-node Gauss rule on [0, 1] for the weight t^power, power > -1: the
    nodes t, the same nodes as 1 - t, and the weights, which sum to
    1 / (power + 1).  power = 0 is Gauss-Legendre.

    On [-1, 1] the weight is (1 + x)^power and the nodes are the zeros of the
    Jacobi polynomial P_m^(0, power): Newton steps on its three-term
    recurrence from the Gatteschi-Pittaluga estimates (Hale and Townsend,
    SIAM J. Sci. Comput. 35, 2013).  The weights are the Christoffel numbers
    1 / sum_k p_k(x)^2 of the orthonormal polynomials, whose recurrence is
    the Jacobi matrix of Golub and Welsch (Math. Comp. 23, 1969).  Their
    eigenvalue route, ``np.linalg.eigh``, gives the same rule (a test
    compares them) but pages in LAPACK: 2 MB of peak memory, and with BLAS
    threads unpinned its first call in a process can take 200 ms.
    """
    n = np.arange(2.0, m + 1)
    c = 2.0 * n + power
    den = 2.0 * n * (n + power) * (c - 2.0)
    # 2n (n + power)(c - 2) P_n = (c - 1)(c (c - 2) x - power^2) P_{n-1} - 2 (n - 1)(n + power - 1) c P_{n-2}
    steps = list(zip(((c - 1.0) * c * (c - 2.0) / den).tolist(), (-(c - 1.0) * power * power / den).tolist(),
                     (2.0 * (n - 1.0) * (n + power - 1.0) * c / den).tolist()))
    rho = m + (power + 1.0) / 2.0
    phi = (np.arange(1, m + 1) - 0.25) * np.pi / rho
    half = np.tan(phi / 2.0)
    x = np.cos(phi + (0.25 / half - (0.25 - power * power) * half) / (4.0 * rho * rho))
    cm = 2.0 * m + power
    for _ in range(_RULE_NEWTON_STEPS):
        p0, p1 = np.ones(m), 1.0 + (power + 2.0) * (x - 1.0) / 2.0
        for a, b, d in steps:
            p0, p1 = p1, (a * x + b) * p1 - d * p0
        dp = m * ((-power - cm * x) * p1 + 2.0 * (m + power) * p0) / (cm * (1.0 - x) * (1.0 + x))
        x = x - p1 / dp
    k = np.arange(1.0, m)
    s = 2.0 * k + power
    diag = np.concatenate([[power / (power + 2.0)], power * power / (s * (s + 2.0))])
    off = 2.0 * k * (k + power) / (s * np.sqrt(s * s - 1.0))
    p0, p1, norm, b0 = np.zeros(m), np.ones(m), np.ones(m), 0.0
    for a, b1 in zip(diag.tolist(), off.tolist()):
        p0, p1, b0 = p1, ((x - a) * p1 - b0 * p0) / b1, b1
        norm += p1 * p1
    # each Christoffel number stands alone: a sum to normalise by would carry the
    # error of the largest, at the node nearest 0, into every other weight
    rule = ((1.0 + x[::-1]) / 2.0, (1.0 - x[::-1]) / 2.0, 1.0 / (norm[::-1] * (power + 1.0)))
    for arr in rule:
        arr.setflags(write=False)
    return rule


@functools.cache
def _graded_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`integrate`'s 256 nodes on [0, 1], ascending, as distances from 0
    and from 1, each exact where it is small, and their weights."""
    u, _, w = _gauss_jacobi(_PANEL_NODES, 0.0)
    t, s, body = _gauss_jacobi(_BODY_NODES, 0.0)
    near, share = _PANEL_SHARE * u**_PANEL_GRADING, 1.0 - 2.0 * _PANEL_SHARE
    panel = _PANEL_SHARE * _PANEL_GRADING * u ** (_PANEL_GRADING - 1) * w
    return (np.concatenate([near, _PANEL_SHARE + share * t, (1.0 - near)[::-1]]),
            np.concatenate([1.0 - near, _PANEL_SHARE + share * s, near[::-1]]),
            np.concatenate([panel, share * body, panel[::-1]]))


def integrate(f: Callable, a, b):
    """int_a^b f(x) dx by one fixed rule, elementwise over 1-D arrays of ends
    (a float for float ends): graded panels x = a + g u^16, g = (b - a) / 16,
    and their mirror image at b under 64-node Gauss-Legendre in u, and
    128-node Gauss-Legendre between them.  A smooth f, and f with a power
    cusp (x - a)^k at either end (lifted to u^(16 k + 15)), converge to
    rounding; a kink inside [a, b] converges only as a power of the node
    count.  ``f`` is called on the nodes of 32 cells at a time, so memory is
    flat in the number of cells, and each cell gets its scalar call's value,
    bit for bit.  Raises :class:`DomainError` before calling ``f`` unless a <= b.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    a, b = np.broadcast_arrays(np.atleast_1d(np.asarray(a, dtype=float)), np.asarray(b, dtype=float))
    bad = np.flatnonzero(~(a <= b))  # a NaN end fails too
    if len(bad):
        raise DomainError(f"integrate requires a <= b, got a={a[bad[0]]}, b={b[bad[0]]}")
    t, s, w = _graded_rule()
    out = np.empty(a.size)
    for i in range(0, a.size, _BLOCK):
        lo, hi = a[i : i + _BLOCK, None], b[i : i + _BLOCK, None]
        x = np.where(t < 0.5, lo + (hi - lo) * t, hi - (hi - lo) * s)
        out[i : i + _BLOCK] = (hi - lo)[:, 0] * (_evaluate(f, x) * w).sum(axis=1)
    return float(out[0]) if scalar else out


def owen_t(h: float, a: float) -> float:
    """Owen's T function T(h, a) = (1/2pi) * int_0^a exp(-h^2(1+x^2)/2)/(1+x^2) dx.

    Evaluated by :func:`integrate` of the defining integral.  For |h| <= 8 it
    is within 5.6e-17 of 40-digit mpmath values at |a| <= 1 (a test holds
    1e-15), 1.9e-16 at |a| <= 10 and 1.6e-13 at |a| <= 100.
    Uses the symmetries T(h, -a) = -T(h, a) and T(-h, a) = T(h, a).
    """
    if a == 0.0:
        return 0.0
    if a < 0.0:
        return -owen_t(h, -a)
    hh = 0.5 * h * h
    return integrate(lambda x: np.exp(-hh * (1.0 + x * x)) / (1.0 + x * x), 0.0, a) / (2.0 * math.pi)


def solve_bracketed(f: Callable[[float], float], bracket: Bracket) -> float:
    """Root of ``f`` inside ``bracket`` (either orientation): the one-row call
    of the root loop of :func:`solve_decreasing_rows`, with its Anderson-Bjorck
    steps and its stop rules, and ``f`` called on one float per step.
    """
    out = np.empty(1)
    ends = (np.array([v]) for v in (bracket.lo, bracket.hi, bracket.f_lo, bracket.f_hi))
    _refine(lambda xs, rows: np.array([f(xs.item())]), np.zeros(1, dtype=int), *ends, out)
    return float(out[0])


def solve_decreasing(
    f: Callable[[float], float],
    lo: float = 0.0,
    hi: float = 1.0,
) -> float:
    """Root of a decreasing residual on [lo, hi], clamped to the interval.

    Returns ``lo`` when f(lo) <= 0 and ``hi`` when f(hi) >= 0; otherwise
    refines the sign change with :func:`solve_bracketed`, so a row of
    :func:`solve_decreasing_rows` with this residual gets this root.
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_lo <= 0.0:
        return lo
    if f_hi >= 0.0:
        return hi
    return solve_bracketed(f, Bracket(lo, hi, f_lo, f_hi))


def solve_decreasing_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    m: int,
) -> np.ndarray:
    """:func:`solve_decreasing` on [0, 1] of m decreasing residuals in lockstep, as an array.

    ``f(thetas, rows)`` returns residual ``rows[i]`` at ``thetas[i]``, where
    ``rows`` are the indices of the residuals still being solved.  A row is
    0 where its residual is <= 0 at 0, else 1 where it is >= 0 at 1, else
    refined from [0, 1] by the package's one root loop until it stops:

    * the step is regula falsi on the bracket [a, b], b the latest iterate.
      When f(x) has the sign of f(b), a is kept again, and the residual the
      steps read at a is scaled by m = 1 - f(x)/f(b), or by 1/2 when m <= 0,
      so that a kept end cannot stall the step (Anderson & Bjorck, BIT 13,
      1973); else b becomes the kept end.  x becomes b;
    * a row stops at the iterate where |f| <= ``SOLVE_TOL.abs_tol``, or, once
      the bracket is no wider than that, at the end of smaller unscaled |f|;
    * :class:`MaxIterExceeded` is raised when a row is still unsolved after
      ``SOLVE_TOL.max_iter`` steps.

    A unique-root solve of the package takes 6 to 8 evaluations, the ends
    included.  A step costs some 20 numpy calls whatever the number of
    rows, so the rows of one residual family are cheapest solved at once.
    """
    every = np.arange(m)
    f_lo, f_hi = f(np.zeros(m), every), f(np.ones(m), every)
    low, high = f_lo <= 0.0, f_hi >= 0.0
    out = np.where(low, 0.0, 1.0)  # the clamped rows; the others are refined in place
    rows = np.flatnonzero(~(low | high))
    bad = rows[~((f_lo[rows] > 0.0) & (f_hi[rows] < 0.0))]
    if len(bad):  # a nan end: the scalar solve's error
        Bracket(0.0, 1.0, float(f_lo[bad[0]]), float(f_hi[bad[0]]))
    _refine(f, rows, np.zeros(len(rows)), np.ones(len(rows)), f_lo[rows], f_hi[rows], out)
    return out


def _refine(f, rows, a, b, f_a, f_b, out) -> None:
    """The root loop of :func:`solve_decreasing_rows` on the brackets [a, b]
    of ``rows`` (either orientation, residuals f_a, f_b of strictly opposite
    signs): ``out[rows[i]]`` gets row i's root."""
    tol = SOLVE_TOL
    g_a = f_a  # f(a) as the steps read it, scaled while a is kept
    for _ in range(tol.max_iter):
        d = b - a
        narrow = np.abs(d) <= tol.abs_tol
        if np.count_nonzero(narrow):
            out[rows[narrow]] = np.where(np.abs(f_a) < np.abs(f_b), a, b)[narrow]
            rows, a, b, d, f_a, g_a, f_b = (v[~narrow] for v in (rows, a, b, d, f_a, g_a, f_b))
        if not len(rows):
            return
        x = b - f_b * d / (f_b - g_a)
        fx = f(x, rows)
        hit = np.abs(fx) <= tol.abs_tol
        if np.count_nonzero(hit):
            out[rows[hit]] = x[hit]
            rows, a, b, f_a, g_a, f_b, x, fx = (v[~hit] for v in (rows, a, b, f_a, g_a, f_b, x, fx))
            if not len(rows):
                return
        r = fx / f_b
        moved = r < 0.0  # x and b bracket the root: b becomes the kept end
        g_a = np.where(moved, f_b, g_a * np.where(r < 1.0, 1.0 - r, 0.5))
        a, f_a = np.where(moved, b, a), np.where(moved, f_b, f_a)
        b, f_b = x, fx
    raise MaxIterExceeded(f"no root to tolerance {tol.abs_tol} in {tol.max_iter} iterations")


def scan_cells(grid_step: float) -> int:
    """The number of cells of a ``grid_step`` scan of [0, 1]: nodes ``i / n``
    for i = 0..n.  Raises :class:`DomainError` unless ``grid_step`` lies in
    (0, 0.01]."""
    if not 0.0 < grid_step <= 0.01:
        raise DomainError(f"grid_step must be in (0, 0.01], got {grid_step}")
    return max(2, round(1.0 / grid_step))


def find_sign_changes(
    f: Callable[[np.ndarray], np.ndarray], grid_step: float = 1e-4, cells: np.ndarray | None = None
) -> SignChangeScan:
    """Scan [0, 1] on a uniform grid for sign changes of ``f``.

    The grid has the :func:`scan_cells` cells ``[i / n, (i + 1) / n]``;
    ``cells`` names the ones to scan (all by default).  ``f`` maps the array
    of the ends of those cells to its values there and is called once.  Two
    evaluated nodes next to each other on the grid form a bracket where f
    changes sign strictly; nodes where f is exactly zero count as roots
    directly and never as part of a bracket.  Raises :class:`DomainError`
    for a ``grid_step`` outside (0, 0.01] and naming the first evaluated node
    where f is not finite.
    """
    n = scan_cells(grid_step)
    if cells is None:
        nodes = np.arange(n + 1)
    else:
        ends = np.zeros(n + 1, dtype=bool)
        ends[cells] = True
        ends[np.asarray(cells) + 1] = True
        nodes = np.flatnonzero(ends)
    xs = nodes / n  # bitwise [i / n for i in nodes]
    fs = np.asarray(f(xs), dtype=float)
    bad = np.flatnonzero(~np.isfinite(fs))
    if len(bad):
        raise DomainError(f"f is not finite at theta = {float(xs[bad[0]])}: {float(fs[bad[0]])}")
    cross = np.flatnonzero((np.diff(nodes) == 1) & (np.sign(fs[:-1]) * np.sign(fs[1:]) < 0.0)).tolist()
    node_roots = xs[fs == 0.0].tolist()
    xs, fs = xs.tolist(), fs.tolist()
    brackets = tuple(Bracket(xs[i], xs[i + 1], fs[i], fs[i + 1]) for i in cross)
    return SignChangeScan(brackets, tuple(node_roots))


def find_roots(
    f: Callable[[np.ndarray], np.ndarray],
    grid_step: float = 1e-4,
    cells: np.ndarray | None = None,
) -> list[float]:
    """Every root found on a :func:`find_sign_changes` scan of ``f`` (over
    ``cells``, all by default), sorted.

    Exact node roots are kept as they are; each bracket is refined with
    :func:`solve_bracketed` on ``f`` at one theta, ``f(np.array([x]))[0]``.
    Returns ``[]`` when the scan finds no root.
    """
    scan = find_sign_changes(f, grid_step, cells)
    at = lambda x: float(f(np.array([x]))[0])
    roots = list(scan.node_roots)
    roots += [solve_bracketed(at, b) for b in scan.brackets]
    return sorted(roots)


@dataclass(frozen=True)
class RootInterval:
    """A dyadic interval [lo, hi] of [0, 1] that :func:`isolate_roots` could
    not rule out.  ``single`` says that its Bernstein coefficients are all
    beyond their bounds with exactly one sign variation, so the polynomial
    has exactly one root inside, and none at an end."""

    lo: float
    hi: float
    single: bool


def isolate_roots(coeffs: np.ndarray, errs: np.ndarray, depth: int) -> tuple[RootInterval, ...]:
    """The intervals of width ``2**-depth`` that may hold a root of the
    polynomial with Bernstein coefficients ``coeffs`` on [0, 1], sorted.

    An interval is dropped as soon as all of its coefficients share one sign
    and each exceeds its bound: the polynomial is then at least its bound
    away from zero on the whole interval (the Bernstein basis is a positive
    partition of unity).  ``errs`` bounds each coefficient's distance from
    the exact one, and whatever else the caller needs beaten, such as the
    rounding of the function the polynomial stands for; to it is added the
    rounding of the halvings, at most ``depth * len(coeffs)`` unit roundoffs
    of the coefficients' magnitudes.  Every other interval is halved, by de
    Casteljau's algorithm on each level's intervals at once with the bounds
    carried alongside, down to the floor width (Lane & Riesenfeld, IEEE PAMI
    3(1), 1981).  Memory is O(len(coeffs)) per interval of a level.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    errs = np.asarray(errs, dtype=float) + depth * len(coeffs) * np.finfo(float).eps * np.abs(coeffs)
    rows, lo = np.stack([coeffs, errs])[None], np.zeros(1)  # rows[i] = (coefficients, bounds) of interval i
    for level in range(depth + 1):
        c, e = rows[:, 0], rows[:, 1]
        sure = np.abs(c) > e
        keep = ~(sure.all(axis=1) & ((c > 0.0).all(axis=1) | (c < 0.0).all(axis=1)))
        if level == depth or not keep.any():
            break
        rows = np.stack(_halves(rows[keep]), axis=1).reshape(-1, *rows.shape[1:])  # left child, then right
        lo = np.stack([lo[keep], lo[keep] + 2.0 ** -(level + 1)], axis=1).ravel()
    single = sure.all(axis=1) & ((np.diff(np.sign(c), axis=1) != 0.0).sum(axis=1) == 1)
    return tuple(RootInterval(a, a + 2.0**-level, s) for a, s in zip(lo[keep].tolist(), single[keep].tolist()))


def _halves(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bernstein coefficients (last axis) on the left and right halves of
    their interval, by de Casteljau's averages in place.  The right half is
    the left half of the reversed coefficients, reversed, so the two halves
    share their middle coefficient bit for bit."""
    w = np.concatenate([rows, rows[..., ::-1]])
    for k in range(1, w.shape[-1]):
        w[..., k:] = 0.5 * (w[..., k - 1 : -1] + w[..., k:])
    return w[: len(rows)], w[len(rows) :, ..., ::-1]
