"""Numerics shared by every solver in the package.

Normal CDF/quantile, Owen's T function, adaptive quadrature, bracketed
root finding, and the root helpers the solvers share: the clamped solve of a
decreasing residual, its array form that solves many residuals in lockstep,
and the scan-plus-refine root enumeration.  The four root routines share one
default, ``SOLVE_TOL`` (|f| <= 1e-12 within 300 steps), and no solver in the
package passes a tolerance of its own.  The array form takes each row
through the scalar solve's steps elementwise, so a row whose residual values
are the scalar residual's, bit for bit, gets the scalar root bit for bit.
A scan may take an array form of its function to evaluate all nodes at
once.  The two forms may round differently (a BLAS matrix-vector product
over a block against a dot product over one row), so the scalar function
still decides every node within ``SOLVE_TOL`` of zero and every bracket
end, and the brackets do not depend on the array form.
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
from typing import Callable, Sequence

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
    "norm_pdf",
    "norm_quantile",
    "owen_t",
    "integrate",
    "solve_bracketed",
    "solve_decreasing",
    "solve_decreasing_rows",
    "find_sign_changes",
    "find_roots",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


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


def norm_pdf(x: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


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


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: Tolerance | float = Tolerance(),
) -> float:
    """Adaptive-Simpson integral of ``f`` over [a, b] to absolute tolerance.

    ``tol.max_iter`` is the recursion depth budget (200 by default); raises
    :class:`MaxIterExceeded` when a subinterval at that depth still has a
    local error estimate above its share of the tolerance.
    """
    if isinstance(tol, float):
        tol = Tolerance(abs_tol=tol)
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


def solve_bracketed(
    f: Callable[[float], float],
    bracket: Bracket,
    tol: Tolerance = SOLVE_TOL,
) -> float:
    """Root of ``f`` inside ``bracket`` by bisection with secant acceleration.

    Stops when |f(x)| <= abs_tol or the interval width falls below abs_tol.
    """
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
    tol: Tolerance = SOLVE_TOL,
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
    return solve_bracketed(f, Bracket(lo, hi, f_lo, f_hi), tol)


def solve_decreasing_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    m: int,
    tol: Tolerance = SOLVE_TOL,
) -> np.ndarray:
    """:func:`solve_decreasing` on [0, 1] of m decreasing residuals in lockstep, as an array.

    ``f(thetas, rows)`` returns residual ``rows[i]`` at ``thetas[i]``, where
    ``rows`` are the indices of the residuals still being solved.  Each row
    takes the clamped-end test and the secant-or-midpoint steps of
    :func:`solve_bracketed`, elementwise, with the same margins and stopping
    rules, and leaves the solve when it stops.  Every row's iterates are
    therefore the scalar solver's, bit for bit, as long as ``f`` gives row i
    the value of the scalar residual i.  Raises :class:`MaxIterExceeded` when
    a row is still unsolved after ``tol.max_iter`` steps.

    A step costs some 20 numpy calls whatever the number of rows, so
    :func:`solve_decreasing` stays the solve of a single residual: one
    monopoly demand at n = 2 takes 0.33 ms there and 2.8 ms here as one row,
    while 1 001 rows take 17 ms here (Python 3.11, numpy 2.4, Intel Xeon,
    2 vCPUs).
    """
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


def find_sign_changes(
    f: Callable[[float], float],
    grid_step: float = 1e-4,
    evaluate: Callable[[list[float]], Sequence[float]] | None = None,
) -> SignChangeScan:
    """Scan [0, 1] on a uniform grid for sign changes of ``f``.

    Nodes where f is exactly zero count as roots directly and never as part
    of a bracket.  ``grid_step`` must lie in (0, 0.01].

    ``evaluate``, if given, maps the list of nodes to values of f at once (an
    array form of f).  It only decides the sign of a node whose value lies
    farther than ``SOLVE_TOL.abs_tol`` from 0; f itself is called at every
    other node and gives the recorded ends of every bracket.  So while the two
    agree to within that band, the node roots, signs and brackets are those of
    the scan that calls f at every node.
    """
    if not 0.0 < grid_step <= 0.01:
        raise DomainError(f"grid_step must be in (0, 0.01], got {grid_step}")
    n = max(2, round(1.0 / grid_step))
    xs = [i / n for i in range(n + 1)]
    if evaluate is None:
        fs = [f(x) for x in xs]
        exact = fs.__getitem__
    else:
        exact = functools.cache(lambda i: f(xs[i]))  # f at most once per node
        band = SOLVE_TOL.abs_tol
        fs = [v if abs(v) > band else exact(i) for i, v in enumerate(evaluate(xs))]
    node_roots = [x for x, v in zip(xs, fs) if v == 0.0]
    brackets: list[Bracket] = []
    prev: int | None = None
    for i, v in enumerate(fs):
        if v == 0.0:
            prev = None  # exact node root separates intervals
            continue
        if prev is not None and (v < 0.0) != (fs[prev] < 0.0):
            brackets.append(Bracket(xs[prev], xs[i], exact(prev), exact(i)))
        prev = i
    return SignChangeScan(tuple(brackets), tuple(node_roots))


def find_roots(
    f: Callable[[float], float],
    grid_step: float = 1e-4,
    tol: Tolerance = SOLVE_TOL,
    evaluate: Callable[[list[float]], Sequence[float]] | None = None,
) -> list[float]:
    """Every root found on a :func:`find_sign_changes` scan, sorted.

    Exact node roots are kept as they are; each bracket is refined with
    :func:`solve_bracketed`.  ``evaluate`` is the scan's optional array form
    of ``f``.  Returns ``[]`` when the scan finds no root.
    """
    scan = find_sign_changes(f, grid_step, evaluate)
    roots = list(scan.node_roots)
    roots += [solve_bracketed(f, b, tol) for b in scan.brackets]
    return sorted(roots)
