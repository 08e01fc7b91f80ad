"""Numerics shared by every solver in the package.

Normal CDF (also entrywise on arrays) and quantile, Owen's T function,
adaptive quadrature, bracketed root finding, and the root helpers the
solvers share: the clamped solve of a decreasing residual, its array form
that solves many residuals in lockstep,
the scan-plus-refine root enumeration over all grid cells or a chosen set
of them, and the isolation of a Bernstein polynomial's roots that picks
those cells.  The four root routines take no tolerance: each reads the
module's ``SOLVE_TOL`` (|f| <= 1e-12 within 300 steps) when it is called, so
a test that needs another budget patches it there.  The array form takes
each row through the scalar solve's steps elementwise, so a row whose
residual values are the scalar residual's, bit for bit, gets the scalar
root bit for bit.
A scan takes one residual on arrays: it evaluates every node in one call,
and the refinement calls it on one theta at a time, so a residual whose
entries do not depend on the other thetas in the call (each row of a count
law is computed on its own) gives the scan and the refinement the same
values, bit for bit.
Everything here is pure and needs numpy alone: the normal CDF goes through
``math.erfc`` (double-precision complementary error function), the quantile
through ``statistics.NormalDist``, and the quadrature is adaptive Simpson.
No scipy is used in this module so the accuracy claims are testable against
independent oracles.
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


SOLVE_TOL = Tolerance(abs_tol=1e-12, max_iter=300)


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


def norm_cdf_array(x: np.ndarray) -> np.ndarray:
    """:func:`norm_cdf` at every entry of ``x``, bit for bit: the quotient
    taken by numpy, ``math.erfc`` per entry: numpy has no erfc, and the grid
    path may not import scipy's."""
    z = (-x / _SQRT2).ravel().tolist()
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


def integrate(f: Callable[[float], float], a: float, b: float, tol: Tolerance = Tolerance()) -> float:
    """Adaptive-Simpson integral of ``f`` over [a, b] to absolute tolerance.

    ``tol.max_iter`` is the recursion depth budget (200 by default); raises
    :class:`MaxIterExceeded` when a subinterval at that depth still has a
    local error estimate above its share of the tolerance.
    """
    if a > b:
        raise DomainError(f"integrate requires a <= b, got a={a}, b={b}")
    if a == b:
        return 0.0

    def simpson(x0: float, x2: float, f0: float, f1: float, f2: float) -> float:
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        xm = 0.5 * (x0 + x2)
        xl, xr = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        fl, fr = f(xl), f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        delta = left + right - whole
        if abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        if depth >= tol.max_iter:
            raise MaxIterExceeded(
                f"adaptive quadrature did not reach tol={eps} within depth {tol.max_iter}"
            )
        half = 0.5 * eps
        return recurse(x0, xm, f0, fl, f1, left, half, depth + 1) + recurse(
            xm, x2, f1, fr, f2, right, half, depth + 1
        )

    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol.abs_tol, 0)


def owen_t(h: float, a: float) -> float:
    """Owen's T function T(h, a) = (1/2pi) * int_0^a exp(-h^2(1+x^2)/2)/(1+x^2) dx.

    Evaluated by adaptive quadrature of the defining integral; absolute error
    below 1e-10.  Uses the symmetries T(h, -a) = -T(h, a) and T(-h, a) = T(h, a).
    """
    if a == 0.0:
        return 0.0
    if a < 0.0:
        return -owen_t(h, -a)
    h = abs(h)
    hh = 0.5 * h * h

    def integrand(x: float) -> float:
        one_plus = 1.0 + x * x
        return math.exp(-hh * one_plus) / one_plus

    return integrate(integrand, 0.0, a, Tolerance(abs_tol=1e-13)) / (2.0 * math.pi)


def solve_bracketed(f: Callable[[float], float], bracket: Bracket) -> float:
    """Root of ``f`` inside ``bracket`` by bisection with secant acceleration.

    Stops when |f(x)| <= ``SOLVE_TOL.abs_tol`` or the interval width falls
    below it.
    """
    tol = SOLVE_TOL
    lo, hi = bracket.lo, bracket.hi
    f_lo, f_hi = bracket.f_lo, bracket.f_hi
    for _ in range(tol.max_iter):
        width = hi - lo
        if width <= tol.abs_tol:
            return lo if abs(f_lo) < abs(f_hi) else hi
        # secant candidate, kept strictly interior; fall back to the midpoint
        x = hi - f_hi * width / (f_hi - f_lo)
        margin = 0.01 * width
        if not lo + margin < x < hi - margin:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if abs(fx) <= tol.abs_tol:
            return x
        if (fx < 0.0) == (f_lo < 0.0):
            lo, f_lo = x, fx
        else:
            hi, f_hi = x, fx
    raise MaxIterExceeded(f"no root to tolerance {tol.abs_tol} in {tol.max_iter} iterations")


def solve_decreasing(
    f: Callable[[float], float],
    lo: float = 0.0,
    hi: float = 1.0,
) -> float:
    """Root of a decreasing residual on [lo, hi], clamped to the interval.

    Returns ``lo`` when f(lo) <= 0 and ``hi`` when f(hi) >= 0; otherwise
    refines the sign change with :func:`solve_bracketed`.
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
    ``rows`` are the indices of the residuals still being solved.  Each row
    takes the clamped-end test and the secant-or-midpoint steps of
    :func:`solve_bracketed`, elementwise, with the same margins and stopping
    rules, and leaves the solve when it stops.  Every row's iterates are
    therefore the scalar solver's, bit for bit, as long as ``f`` gives row i
    the value of the scalar residual i.  Raises :class:`MaxIterExceeded` when
    a row is still unsolved after ``SOLVE_TOL.max_iter`` steps.

    A step costs some 20 numpy calls whatever the number of rows, so
    :func:`solve_decreasing` stays the solve of a single residual: one
    monopoly demand at n = 2 takes 0.12 to 0.19 ms there and 1.2 to 1.9 ms
    here as one row, while 1 001 rows take 6.6 to 9.5 ms here.  The 1 001
    prices of a rational demand curve take 2.3 to 2.4 ms here against 16 to
    18 ms one price at a time (Python 3.11, numpy 2.4, Intel Xeon, 2 vCPUs,
    one pinned thread).
    """
    tol = SOLVE_TOL
    out = np.empty(m)
    f_lo, f_hi = f(np.zeros(m), np.arange(m)), f(np.ones(m), np.arange(m))
    low, high = f_lo <= 0.0, f_hi >= 0.0
    out[low], out[~low & high] = 0.0, 1.0
    rows = np.flatnonzero(~low & ~high)
    bad = rows[~((f_lo[rows] > 0.0) & (f_hi[rows] < 0.0))]
    if len(bad):  # a nan end: the scalar solve's error
        Bracket(0.0, 1.0, float(f_lo[bad[0]]), float(f_hi[bad[0]]))
    a, b = np.zeros(len(rows)), np.ones(len(rows))
    f_a, f_b = f_lo[rows], f_hi[rows]
    for _ in range(tol.max_iter):
        width = b - a
        done = width <= tol.abs_tol
        out[rows[done]] = np.where(np.abs(f_a[done]) < np.abs(f_b[done]), a[done], b[done])
        rows, a, b, f_a, f_b, width = (v[~done] for v in (rows, a, b, f_a, f_b, width))
        if not len(rows):
            return out
        # secant candidate, kept strictly interior; fall back to the midpoint
        x = b - f_b * width / (f_b - f_a)
        margin = 0.01 * width
        mid = ~((a + margin < x) & (x < b - margin))
        x[mid] = 0.5 * (a[mid] + b[mid])
        fx = f(x, rows)
        done = np.abs(fx) <= tol.abs_tol
        out[rows[done]] = x[done]
        rows, a, b, f_a, f_b, x, fx = (v[~done] for v in (rows, a, b, f_a, f_b, x, fx))
        if not len(rows):
            return out
        left = (fx < 0.0) == (f_a < 0.0)
        a, f_a = np.where(left, x, a), np.where(left, fx, f_a)
        b, f_b = np.where(left, b, x), np.where(left, f_b, fx)
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
