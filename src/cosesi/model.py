"""Model primitives: costs, inference procedures, and action-count laws.

Agents value a binary action through an increasing cost c(theta) of the
population share theta taking it, estimate theta from n Bernoulli signals
whose sum y may be correlated, and best-respond to the expected cost
C_{n,z} = int c dG_{n,z} under an inference procedure G that treats the
signals as independent.  This module supplies:

* cost functions with derivatives, evaluated elementwise on float arrays
  and checked to stay in [0, 1],
* the inference procedures (MLE, Beta estimation, Bayes with Beta prior),
  each of whose ``expected_cells`` takes a whole cost grid in one array
  evaluation: at the sample means, or at the nodes of the fixed-node Gauss
  rules of every Beta cell (``beta_expectation``),
* every distribution of the action count y used by the solvers: the
  rho-mixtures (iid, rho-mixture, Markov shock), Conway-Maxwell-Binomial,
  additive-binomial, Bahadur joints for n <= 3, sequential sampling; each
  written once, on an array of thetas (``count_pmf_grid``, which the root
  scans evaluate in blocks), with ``action_count_pmf`` its row at one theta,
* the rho-weighted Bernstein polynomial (the expectation under a
  rho-mixture), at one theta or many, and its large-n limit: one mixing
  step, ``weighted_limit``, on a Bernstein part or the limit cost,
* ``row_dots``, the expectation of a grid under each of many pmf rows, each
  row rounded as its one-row product,
* ``bernstein_residual``, the Bernstein coefficients of a count-law residual
  with a rounding bound on each, from which the root scans pick their cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .numerics import _BLOCK, _BODY_NODES, _PANEL_GRADING, _PANEL_NODES, _PANEL_SHARE, _evaluate, _gauss_jacobi

__all__ = [
    "ModelError",
    "InvalidSampleMean",
    "InadmissibleCorrelation",
    "UnsupportedN",
    "PolarizedInteriorSample",
    "InteriorRhoUnsupported",
    "CostFunction",
    "power_cost",
    "linear_cost",
    "exp_decay_cost",
    "s_shaped_cost",
    "parse_cost",
    "InferenceProcedure",
    "MLE",
    "BetaEstimation",
    "BayesBeta",
    "SignalDGP",
    "IID",
    "RhoMixture",
    "CMB",
    "AdditiveBinomial",
    "BahadurJoint",
    "Sequential",
    "MarkovShock",
    "ActionCountPMF",
    "action_count_pmf",
    "count_pmf_grid",
    "mixture_pmf_grid",
    "dgp_variance",
    "mean_limit_variance",
    "additive_binomial_rho_bounds",
    "joint_count_probs",
    "binom_pmf",
    "bernstein",
    "weighted_bernstein",
    "weighted_bernstein_rows",
    "row_dots",
    "weighted_limit",
    "bayes_posterior",
    "beta_expectation",
    "bernstein_residual",
]


class ModelError(Exception):
    """Base error for model primitives."""


class InvalidSampleMean(ModelError, ValueError):
    """Sample mean z is not on the grid {0, 1/n, ..., 1}."""


class InadmissibleCorrelation(ModelError, ValueError):
    """Correlation parameter outside the validity region of the chosen DGP."""


class UnsupportedN(ModelError, ValueError):
    """Sample size outside the supported range for the chosen DGP."""


def _check_n(n: float) -> int:
    """n as an int; refuses a sample size that is not a positive integer (inf
    included), so an integral float such as 4.0 solves as 4."""
    if not (n >= 1 and float(n).is_integer()):
        raise UnsupportedN(f"n must be a positive integer, got {n:g}")
    return int(n)


class PolarizedInteriorSample(ModelError, ValueError):
    """Polarized Bayesian update requested for an interior sample y not in {0, n}."""


class InteriorRhoUnsupported(ModelError, ValueError):
    """Bayesian inference with rho strictly inside (0, 1) is not an inference procedure."""


# ---------------------------------------------------------------------------
# Cost functions
# ---------------------------------------------------------------------------

_SHAPE_GRID = 1001  # 1e-3 grid on which a cost is checked to stay in [0, 1]


@dataclass(frozen=True)
class CostFunction:
    """Continuous cost c: [0,1] -> [0,1] with its derivative; a cost that
    leaves [0, 1] on a 1e-3 grid raises ``ModelError``.

    ``fn`` is called on float arrays (the sample means of a cost grid, the
    nodes of a Beta rule) and should act elementwise, as every builtin cost
    does; a callable that takes only floats is called once per point.
    ``deriv`` is analytic when supplied by a builtin constructor, otherwise a
    central difference at step 1e-6 (one-sided at the endpoints).
    """

    fn: Callable[[float], float]
    deriv: Callable[[float], float] | None = None
    name: str = "custom"

    def __post_init__(self) -> None:
        ys = _evaluate(self.fn, np.linspace(0.0, 1.0, _SHAPE_GRID))
        if not (ys.min() >= -1e-12 and ys.max() <= 1.0 + 1e-12):  # nan fails too
            raise ModelError(f"cost '{self.name}' leaves [0,1] on the unit interval")

    def __call__(self, theta: float) -> float:
        return self.fn(theta)

    def derivative(self, theta: float) -> float:
        if self.deriv is not None:
            return self.deriv(theta)
        h = 1e-6
        lo, hi = max(0.0, theta - h), min(1.0, theta + h)
        return (self.fn(hi) - self.fn(lo)) / (hi - lo)


def power_cost(d: float) -> CostFunction:
    """c(theta) = theta**d for d > 0."""
    if not d > 0:
        raise ModelError(f"power cost needs d > 0, got {d}")
    return CostFunction(
        fn=lambda t: t**d,
        deriv=lambda t: d * t ** (d - 1.0) if t > 0.0 or d >= 1.0 else math.inf,
        name=f"pow:{d:g}",
    )


def linear_cost() -> CostFunction:
    """c(theta) = theta."""
    return CostFunction(
        fn=lambda t: t,
        deriv=lambda t: 1.0,
        name="linear",
    )


def exp_decay_cost(t_rate: float) -> CostFunction:
    """c(theta) = exp(-t*theta); the monopoly's perceived no-encounter probability."""
    if not t_rate >= 0:
        raise ModelError(f"exp_decay rate must be >= 0, got {t_rate}")
    if t_rate == math.inf:
        raise ModelError(f"exp_decay rate must be finite, got {t_rate}")
    return CostFunction(
        fn=lambda t: np.exp(-t_rate * t),
        deriv=lambda t: -t_rate * math.exp(-t_rate * t),
        name=f"exp:{t_rate:g}",
    )


def s_shaped_cost(
    lo: float = 0.05,
    hi: float = 0.95,
    steepness: float = 20.0,
    midpoint: float = 0.5,
) -> CostFunction:
    """Rescaled logistic benefit curve with c(0) = lo > 0 and c(1) = hi < 1.

    Default parameters cross the 45-degree line three times, the cooperative
    game configuration used for equilibrium multiplicity.
    """
    if not 0.0 < lo < hi < 1.0:
        raise ModelError("s_shaped needs 0 < lo < hi < 1")

    def sig(x: float) -> float:
        return 1.0 / (1.0 + np.exp(-x))

    s0 = sig(-steepness * midpoint)
    s1 = sig(steepness * (1.0 - midpoint))
    scale = (hi - lo) / (s1 - s0)

    def fn(t: float) -> float:
        return lo + scale * (sig(steepness * (t - midpoint)) - s0)

    def deriv(t: float) -> float:
        s = sig(steepness * (t - midpoint))
        return scale * steepness * s * (1.0 - s)

    return CostFunction(
        fn=fn,
        deriv=deriv,
        name=f"sshape:{lo:g},{hi:g},{steepness:g},{midpoint:g}",
    )


def affine_cost(intercept: float, slope: float) -> CostFunction:
    """c(theta) = intercept + slope * theta, kept inside [0,1]."""
    return CostFunction(
        fn=lambda t: intercept + slope * t,
        deriv=lambda t: slope,
        name=f"affine:{intercept:g},{slope:g}",
    )


def parse_cost(spec: str) -> CostFunction:
    """Parse a cost spec string such as 'pow:4', 'linear', 'exp:6', 'sshape'."""
    head, _, rest = spec.partition(":")
    args = [float(a) for a in rest.split(",") if a] if rest else []
    if head in ("pow", "power"):
        return power_cost(args[0] if args else 2.0)
    if head == "linear":
        return linear_cost()
    if head in ("exp", "exp_decay"):
        return exp_decay_cost(args[0] if args else 6.0)
    if head in ("sshape", "s_shaped"):
        return s_shaped_cost(*args)
    if head == "affine":
        return affine_cost(args[0], args[1])
    raise ModelError(f"unknown cost spec '{spec}'")


# ---------------------------------------------------------------------------
# Beta expectations (shared by Beta estimation and Bayesian posteriors)
# ---------------------------------------------------------------------------

_PANEL_SHAPE = 4.0  # a shape below this gets an end panel at its end
_FALLOFF = 40.0  # a window ends where the log-density is this far below its peak
_NEWTON_STEPS = 3  # from the safe start inwards; two already meet the tested errors


def _panel_powers(shapes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(power, rest) with power + rest = 16 s - 1 for each shape s, the power
    of u in x^(s - 1) dx on x = c u^16: the integer rest = ceil(16 s - 1), and
    the power in (-1, 0] that the panel rule's weight carries, rounded to 12
    digits so that the shapes alpha + y of one prior share one rule."""
    e = _PANEL_GRADING * shapes - 1.0
    near = np.round(e)
    rest = np.where(np.abs(e - near) <= 1e-9, near, np.ceil(e))
    power = np.round(e - rest, 12)
    return np.where(power > -1.0, power, e - rest), rest  # a shape below 3e-14


def _windows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The (2, cells) ends [lo, hi] where p log x + q log(1 - x), p, q >= 0,
    is T = ``_FALLOFF`` below its peak at m = p / (p + q).  This concave
    function falls at least as fast as its quadratic bound, and on the left
    at least as fast as p log(x / m) - p (on the right likewise), so
    lo = max(m - sqrt(2 T m / (p + q)), m exp(-1 - T / p)) and its mirror
    image hi lie beyond the fall-off points; Newton steps from there stay
    beyond them while they close in.  A start at or outside 0 or 1 is that
    endpoint; p = q = 0 gives [0, 1]."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mode = p / (p + q)  # nan for p = q = 0
        side = np.stack([mode, 1.0 - mode])
        quadratic = np.sqrt(2.0 * _FALLOFF / (p + q) * side)
        reach = np.minimum(quadratic, side * -np.expm1(-1.0 - _FALLOFF / np.stack([p, q])))
        x = mode + reach * [[-1.0], [1.0]]
        inside = (x > 0.0) & (x < 1.0)
        x = np.where(inside, x, [[0.0], [1.0]])
        drop = _FALLOFF - np.where(p > 0.0, p * np.log(mode), 0.0) - np.where(q > 0.0, q * np.log1p(-mode), 0.0)
        for _ in range(_NEWTON_STEPS):
            g = p * np.log(x) + q * np.log1p(-x) + drop
            x = np.where(inside, x - g / (p / x - q / (1.0 - x)), x)
    return x


def beta_expectation(fn: Callable[[float], float], a, b):
    """E[fn(X)] for X ~ Beta(a, b), elementwise over 1-D arrays of shapes
    (a float for float shapes).

    Each cell's window [lo, hi] ends where the log-density, (a - 1) log x +
    (b - 1) log(1 - x), has fallen 40 below its peak (:func:`_windows`), or
    at 0 (at 1) for a (b) below 4.  There, at a cusp of the density or of the
    cost (x^d with a fractional d), an end panel takes 1/16 of the window:
    x = c u^16 turns x^(a - 1) dx into 16 c^a u^(16 a - 1) du, whose
    fractional power is the weight of a 64-node Gauss-Jacobi rule (one per
    prior side, cached), and lifts x^d to u^(16 d).  The rest of the window is
    128-node Gauss-Legendre.  ``fn`` is called on the nodes of 32 cells at a
    time, and the weighted sum of fn is divided by that of the density, so
    B(a, b) never enters.

    Tested error, against exact moments and 30-digit quadratures: 1e-13 on
    pow:1..5 for n up to 200, also for priors with shapes 0.5, 0.93 and 1.25,
    1e-12 on pow:0.3, 0.51, 1.5 and 2.3, and 1e-12 on exp:2 and
    sshape:0.05,0.95,50,0.5 at shapes from (0.5, 0.7) to (198, 2).  The
    density is exp((a - 1) log x + (b - 1) log(1 - x)), so its relative error
    grows as (a + b) times the unit roundoff: about 1e-11 at Beta(0.5, 1e6).
    A cost with a kink inside a window converges only as a power of the node
    count.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    bad = ~((a > 0.0) & (b > 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ModelError(f"Beta parameters must be positive, got ({a[i]}, {b[i]})")
    shapes = np.stack([a, b])
    panel = shapes < _PANEL_SHAPE  # (2, cells): an end panel at 0, at 1
    lo, hi = np.where(panel, [[0.0], [1.0]], _windows(np.maximum(a - 1.0, 0.0), np.maximum(b - 1.0, 0.0)))
    share = (hi - lo) * _PANEL_SHARE
    lo, hi = lo + panel[0] * share, hi - panel[1] * share  # the body
    width = hi - lo
    body_t, body_u, body_w = _gauss_jacobi(_BODY_NODES, 0.0)
    powers, rests = _panel_powers(shapes)
    out = np.empty(a.size)
    for i in range(0, a.size, _BLOCK):
        cells = np.arange(i, min(i + _BLOCK, a.size))
        x = lo[cells, None] + width[cells, None] * body_t  # x and 1 - x, each exact where it is small
        y = (1.0 - hi[cells])[:, None] + width[cells, None] * body_u
        log_h = (a[cells] - 1.0)[:, None] * np.log(x) + (b[cells] - 1.0)[:, None] * np.log(y)
        # the end panels of these cells, those at 0 first: v = c u^16 is the distance to the end
        side, row = np.nonzero(panel[:, cells])
        cell = cells[row]
        if row.size:
            keys, which = np.unique(powers[side, cell], return_inverse=True)
            rules = [_gauss_jacobi(_PANEL_NODES, key) for key in keys.tolist()]
            u, w = (np.stack([r[j] for r in rules])[which] for j in (0, 2))
        else:
            u = w = np.empty((0, _PANEL_NODES))
        c = share[cell, None]
        v = c * u**_PANEL_GRADING
        near, far = shapes[side, cell], shapes[1 - side, cell]
        log_p = (np.log(_PANEL_GRADING * c / width[cell, None]) + (near - 1.0)[:, None] * np.log(c)
                 + rests[side, cell, None] * np.log(u) + (far - 1.0)[:, None] * np.log1p(-v))
        top = log_h.max(axis=1)
        np.maximum.at(top, row, log_p.max(axis=1))
        wh = body_w * np.exp(log_h - top[:, None])
        wp = w * np.exp(log_p - top[row, None])
        f = _evaluate(fn, np.concatenate([x.ravel(), np.where(side[:, None] == 0, v, 1.0 - v).ravel()]))
        num, den = (wh * f[: x.size].reshape(x.shape)).sum(axis=1), wh.sum(axis=1)
        np.add.at(num, row, (wp * f[x.size :].reshape(v.shape)).sum(axis=1))
        np.add.at(den, row, wp.sum(axis=1))
        out[cells] = num / den
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Inference procedures
# ---------------------------------------------------------------------------


def _check_sample_mean(n: int, z: float) -> int:
    if n < 1:
        raise UnsupportedN(f"sample size must be >= 1, got {n}")
    y = z * n
    if not -1e-9 <= z <= 1.0 + 1e-9 or abs(y - round(y)) > 1e-9:
        raise InvalidSampleMean(f"z={z} is not on the sample-mean grid for n={n}")
    return int(round(y))


class InferenceProcedure:
    """Family of estimate distributions G_{n,z}, FOSD-increasing in z.

    ``expected_cells(n, ys, fn)`` gives int fn dG_{n, y/n} for an integer
    array of counts ys in one array evaluation of ``fn``; each subclass's
    ``expected_value`` is its one-cell case, bit for bit.
    """

    kind: str = "abstract"

    def expected_cells(self, n: int, ys: np.ndarray, fn: Callable[[float], float]) -> np.ndarray:
        raise NotImplementedError

    def expected_value(self, n: int, z: float, fn: Callable[[float], float]) -> float:
        raise NotImplementedError

    def expected_cost(self, n: int, z: float, cost: Callable[[float], float]) -> float:
        """C_{n,z} = int cost dG_{n,z}: ``expected_value`` under its old name,
        kept only because the benchmark in ``perfbench/`` still calls it."""
        return self.expected_value(n, z, cost)

    def _one_cell(self, n: int, z: float, fn: Callable[[float], float]) -> float:
        return float(self.expected_cells(n, np.array([_check_sample_mean(n, z)]), fn)[0])

    def __repr__(self) -> str:  # pragma: no cover
        return self.kind


class MLE(InferenceProcedure):
    """Point-mass estimate at the sample mean."""

    kind = "mle"

    def expected_cells(self, n: int, ys: np.ndarray, fn: Callable[[float], float]) -> np.ndarray:
        return _evaluate(fn, ys / n)

    def expected_value(self, n: int, z: float, fn: Callable[[float], float]) -> float:
        return self._one_cell(n, z, fn)


class BetaEstimation(InferenceProcedure):
    """Beta(zn, (1-z)n) estimate for interior samples, MLE at z in {0, 1}.

    Every interior cell is a cell of :func:`beta_expectation`: windowed
    128-node Gauss-Legendre, with an end panel at 0 for y below 4 and at 1 for
    n - y below 4, where x^d costs with a fractional d are not smooth.  Tested
    to 1e-13 against the exact moments of pow:1..5 for n up to 200, and to
    1e-12 on pow:0.1 to pow:2.3 at n = 20.
    """

    kind = "beta"

    def expected_cells(self, n: int, ys: np.ndarray, fn: Callable[[float], float]) -> np.ndarray:
        out = np.empty(len(ys))
        inner = (ys > 0) & (ys < n)
        if not inner.all():
            out[~inner] = _evaluate(fn, ys[~inner] / n)
        if inner.any():
            out[inner] = beta_expectation(fn, ys[inner].astype(float), (n - ys[inner]).astype(float))
        return out

    def expected_value(self, n: int, z: float, fn: Callable[[float], float]) -> float:
        return self._one_cell(n, z, fn)


def _check_prior(alpha: float, beta: float) -> None:
    if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):  # nan fails too
        raise ModelError(f"Beta prior parameters must be positive and finite, got ({alpha}, {beta})")


class BayesBeta(InferenceProcedure):
    """Bayesian updating from a Beta(alpha, beta) prior with partial neglect.

    The belief is the zeta-mixture of the naive iid posterior and the
    correlation-aware posterior.  Only rho in {0, 1} yields an inference
    procedure; interior rho is rejected at construction.  Under rho = 0 the
    aware posterior is the iid one, so zeta has no effect.  Under rho = 1 the
    aware posterior exists only for polarized samples y in {0, n}.

    Each posterior expectation is one cell of :func:`beta_expectation`: the
    cells whose shape alpha + y (beta + n - y) is below 4 get an end panel at
    0 (at 1), whose Gauss-Jacobi weight carries the cusp of a fractional
    prior shape (one rule per prior side); the rest of each window is
    Gauss-Legendre.  Tested to 1e-13 on pow:1..5 for priors with shapes 0.5,
    0.93 and 1.25 and n up to 200.
    """

    kind = "bayes"

    def __init__(self, alpha: float, beta: float, rho: float, zeta: float = 1.0):
        _check_prior(alpha, beta)
        if rho not in (0.0, 1.0, 0, 1):
            raise InteriorRhoUnsupported(
                f"Bayesian inference defined only for rho in {{0,1}}, got {rho}"
            )
        if not 0.0 <= zeta <= 1.0:
            raise ModelError(f"zeta must be in [0,1], got {zeta}")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.rho = float(rho)
        self.zeta = float(zeta)

    def expected_cells(self, n: int, ys: np.ndarray, fn: Callable[[float], float]) -> np.ndarray:
        # the iid posterior Beta(alpha + y, beta + n - y) of every cell
        naive = beta_expectation(fn, self.alpha + ys, self.beta + (n - ys))
        if self.rho == 0.0 or self.zeta == 1.0:
            return naive
        aware = np.array([bayes_posterior(self.alpha, self.beta, n, y, "polarized") for y in ys.tolist()])
        return self.zeta * naive + (1.0 - self.zeta) * beta_expectation(fn, aware[:, 0], aware[:, 1])

    def expected_value(self, n: int, z: float, fn: Callable[[float], float]) -> float:
        return self._one_cell(n, z, fn)


def bayes_posterior(
    alpha: float, beta: float, n: int, y: int, regime: str
) -> tuple[float, float]:
    """Beta posterior parameters after observing y of n signals.

    iid regime: Beta(alpha + y, beta + n - y).  Polarized regime (all signals
    equal, so y must be 0 or n): Beta(alpha + z, beta + 1 - z) with z = y/n;
    the sample counts as a single observation, independent of n.
    """
    _check_prior(alpha, beta)
    if not 0 <= y <= n:
        raise InvalidSampleMean(f"y={y} outside 0..{n}")
    if regime == "iid":
        return alpha + y, beta + (n - y)
    if regime == "polarized":
        if y not in (0, n):
            raise PolarizedInteriorSample(
                f"polarized update needs y in {{0, n}}, got y={y}, n={n}"
            )
        z = y // n if n else 0
        return alpha + z, beta + 1 - z
    raise ModelError(f"unknown regime '{regime}'")


# ---------------------------------------------------------------------------
# Binomial and Bernstein machinery
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _binom_terms(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log C(n, y), y, n - y) over y = 0..n as float arrays: the terms of
    every Binomial(n, .) log-pmf, kept in one entry per n."""
    # lgamma(n - y + 1) is lgamma(y + 1) reversed: one pass, no list of n + 1 floats;
    # math.lgamma per entry, as numpy has no lgamma, and once per n, as it is cached
    lg = np.fromiter((math.lgamma(k + 1.0) for k in range(n + 1)), float, n + 1)
    y = np.arange(n + 1, dtype=float)
    return math.lgamma(n + 1) - lg - lg[::-1], y, n - y


def binom_pmf(n: int, theta: float) -> np.ndarray:
    """Binomial(n, theta) pmf over y = 0..n as a vector.

    The scalar Bernstein kernel that :func:`bernstein` and
    :func:`weighted_bernstein` sum, kept beside the row kernel ``_binom_rows``
    because it is the hot path of every one-theta solve step: 919 calls in a
    unique-workload pass, 914 in a market pass (seed 1).  One call costs 2.8 to
    3.5 us at n = 20 and 3.2 to 3.5 us at n = 200, theta 0.37, some 0.15 us
    more than by ``math``'s log and log1p, whose bits the row kernel's numpy
    loops do not give (best of 15 in five runs, Python 3.11, numpy 2.4,
    Intel Xeon, 2 vCPUs, one pinned thread).
    """
    if n < 0:
        raise UnsupportedN(f"n must be >= 0, got {n}")
    if theta <= 0.0 or theta >= 1.0:
        out = np.zeros(n + 1)
        out[0 if theta <= 0.0 else n] = 1.0
        return out
    logc, y, u = _binom_terms(n)
    logp = logc + y * np.log(theta) + u * np.log1p(-theta)
    return np.exp(logp, out=logp)


def bernstein(n: int, theta: float, values: Sequence[float]) -> float:
    """n-th order Bernstein polynomial of the grid values C(y/n) at theta."""
    values = np.asarray(values, dtype=float)
    if values.shape != (n + 1,):
        raise ModelError(f"need {n + 1} grid values, got shape {values.shape}")
    if theta <= 0.0:
        return float(values[0])
    if theta >= 1.0:
        return float(values[n])
    return float(binom_pmf(n, theta) @ values)


def _check_mixture_rho(rho: float) -> None:
    """The range test of every mixture rho, the laws' and the solvers' (nan fails it)."""
    if not 0.0 <= rho <= 1.0:
        raise InadmissibleCorrelation(f"rho must be in [0,1], got {rho}")


def weighted_bernstein(n: int, theta: float, rho: float, values: Sequence[float]) -> float:
    """rho-weighted Bernstein polynomial Psi_n(theta, rho; C): :func:`weighted_limit`
    with the Bernstein part :func:`bernstein` and the end cells C(0), C(1)."""
    values = np.asarray(values, dtype=float)
    ends = (float(values[0]), float(values[-1]))
    return float(weighted_limit(theta, rho, lambda t: bernstein(n, t, values), ends))


def row_dots(probs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Entry i is ``probs[i] @ values``, or ``probs[i] @ values[i]`` for an
    (m, k) ``values``, bit for bit.  The stacked matmul takes each row through
    the same dot product as the one-row product; the matrix-vector product
    ``probs @ values`` and a row-wise ``einsum`` round differently."""
    return np.matmul(probs[:, None, :], values[..., None])[..., 0, 0]


def weighted_bernstein_rows(n: int, thetas: np.ndarray, rho: float, values: np.ndarray) -> np.ndarray:
    """:func:`weighted_bernstein` at m thetas at once: entry i is
    ``weighted_bernstein(n, thetas[i], rho, values[i])`` bit for bit, with
    ``values`` an (m, n + 1) array, or one grid of n + 1 values for every
    theta.  Each ``_binom_rows`` row meets its grid in :func:`row_dots`.
    """
    bern = lambda ts: row_dots(_binom_rows(n, ts), values)
    return weighted_limit(thetas, rho, bern, (values[..., 0], values[..., -1]))


def weighted_limit(
    theta: float, rho: float, fn: Callable[[float], float], ends: tuple[float, float]
) -> float:
    """The one mixing step of Psi_n, (1 - rho) fn(theta) + rho [theta C(1) + (1 - theta) C(0)],
    after the rho check; at rho = 1 the polarized term alone, and ``fn`` is not
    called.  ``fn`` is the Bernstein part B_n(theta; C) (:func:`weighted_bernstein`
    and its rows) or the large-n limit's cost, ``ends`` is (C(0), C(1)), evaluated
    once by the caller.  On arrays of thetas and ends it is the same arithmetic
    elementwise."""
    _check_mixture_rho(rho)
    f0, f1 = ends
    polarized = theta * f1 + (1.0 - theta) * f0
    if rho == 1.0:
        return polarized
    return (1.0 - rho) * fn(theta) + rho * polarized


# ---------------------------------------------------------------------------
# Signal DGPs (action-count distributions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IID:
    """Independent Bernoulli signals; the action count is Binomial(n, theta)."""

    rho = 0.0  # the rho-mixture without the duplicated signal


@dataclass(frozen=True)
class RhoMixture:
    """Compound lottery: Binomial with prob 1-rho, duplicated signal with prob rho."""

    rho: float

    def __post_init__(self) -> None:
        _check_mixture_rho(self.rho)


@dataclass(frozen=True)
class CMB:
    """Conway-Maxwell-Binomial with association parameter nu (+-inf allowed)."""

    nu: float

    def __post_init__(self) -> None:
        if math.isnan(self.nu):
            raise InadmissibleCorrelation(f"CMB needs nu in [-inf, inf], got {self.nu}")


@dataclass(frozen=True)
class AdditiveBinomial:
    """Common pairwise correlation rho (possibly negative), no higher-order terms."""

    rho: float

    def __post_init__(self) -> None:
        # the admissible interval depends on n and theta: additive_binomial_rho_bounds
        if not math.isfinite(self.rho):
            raise InadmissibleCorrelation(f"additive binomial needs a finite rho, got {self.rho}")


@dataclass(frozen=True)
class BahadurJoint:
    """Fully parameterized joint for n <= 3: pairwise corrs r2, third-order r3."""

    r2: tuple[float, ...]
    r3: float = 0.0


@dataclass(frozen=True)
class Sequential:
    """Popularity-weighted sequential sampling with weights lambda_i in [0, 1)."""

    lambdas: tuple[float, ...]

    def __post_init__(self) -> None:
        for lam in self.lambdas:
            if not 0.0 <= lam < 1.0:
                raise InadmissibleCorrelation(f"lambda weights must be in [0,1), got {lam}")

    def weights(self, n: int) -> list[float]:
        """The n - 1 weights of an n-signal draw; a short list repeats its last
        weight (0 if it is empty)."""
        lams = list(self.lambdas[: n - 1])
        return lams + [lams[-1] if lams else 0.0] * (n - 1 - len(lams))


@dataclass(frozen=True)
class MarkovShock:
    """Two-state sampling-shock chain: the rho-mixture at rho = p_xi / (p_xi + q_xi)."""

    p_xi: float
    q_xi: float

    def __post_init__(self) -> None:
        p, q = self.p_xi, self.q_xi
        if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0 and p + q > 0.0):
            raise InadmissibleCorrelation(
                f"Markov shock needs p_xi, q_xi in [0,1], not both 0; got {p}, {q}"
            )

    @property
    def rho(self) -> float:
        return self.p_xi / (self.p_xi + self.q_xi)

    def step_probability(self, rho: float) -> float:
        """One-step update of the state-1 probability, kept inside [0, 1].

        The clamp only absorbs rounding: p + (1-p-q) rho can land an ulp
        below 0 (p = 0.3, q = 1, rho = 1), which the rho-mixture kernel rejects.
        """
        return min(1.0, max(0.0, self.p_xi + (1.0 - self.p_xi - self.q_xi) * rho))


SignalDGP = IID | RhoMixture | CMB | AdditiveBinomial | BahadurJoint | Sequential | MarkovShock


@dataclass(frozen=True)
class ActionCountPMF:
    """Distribution of the action count y in {0, ..., n}."""

    n: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if probs.shape != (self.n + 1,):
            raise ModelError(f"pmf needs {self.n + 1} entries, got {probs.shape}")
        if not np.isfinite(probs).all():  # nan passes every comparison below
            raise ModelError(f"non-finite pmf entry in {probs}")
        if probs.min() < -1e-12:
            raise ModelError(f"negative pmf entry {probs.min()}")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ModelError(f"pmf sums to {probs.sum()}, not 1")

    def mean(self) -> float:
        return float(np.arange(self.n + 1) @ self.probs)

    def variance(self) -> float:
        y = np.arange(self.n + 1)
        m = self.mean()
        return float((y * y) @ self.probs - m * m)


def additive_binomial_rho_bounds(n: int, theta: float) -> tuple[float, float]:
    """Admissible correlation interval for the additive-binomial law.

    Lower bound -2/(n(n-1)) * min{theta/(1-theta), (1-theta)/theta}; upper
    bound 2 theta(1-theta) / ((n-1) theta(1-theta) + 1/4 - xi0) where xi0 is
    the squared distance from the nearest integer count to (n-1) theta + 1/2.
    These are exactly the values keeping every pmf cell nonnegative.  With
    x = (n-1) theta and that count y = ceil(x), 1/4 - xi0 is the product
    (y - x)(x - (y - 1)), whose factors keep full relative precision; the
    difference of 1/4 and xi0 cancels to 0 at tiny theta.
    """
    if n < 2:
        raise UnsupportedN("additive binomial needs n >= 2")
    if not 0.0 < theta < 1.0:
        raise InadmissibleCorrelation("additive binomial needs theta in (0,1)")
    lo, hi = _rho_bound_rows(n, np.array([theta], dtype=float))
    return lo.item(), hi.item()


def _rho_bound_rows(n: int, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`additive_binomial_rho_bounds` at every theta, without its n and theta checks."""
    with np.errstate(all="ignore"):  # 1 / tiny theta is inf, 0 / 0 is NaN
        lo = -2.0 / max(n * (n - 1), 1) * np.minimum(thetas / (1.0 - thetas), (1.0 - thetas) / thetas)
        x = (n - 1) * thetas
        y = np.ceil(x)
        hi = 2.0 * thetas * (1.0 - thetas) / (x * (1.0 - thetas) + (y - x) * (x - (y - 1.0)))
    return lo, hi


def joint_count_probs(n: int, joint: Sequence[float]) -> np.ndarray:
    """Fold a joint over 2^n outcomes (binary little-endian, the last axis) onto
    the count y.  Each row goes through its own one-row product, as in
    :func:`row_dots`, so a row does not depend on the others beside it."""
    joint = np.asarray(joint, dtype=float)
    counts = np.array([bin(b).count("1") for b in range(joint.shape[-1])])
    return np.matmul(joint[..., None, :], counts[:, None] == np.arange(n + 1))[..., 0, :]


def action_count_pmf(dgp: SignalDGP, n: int, theta: float) -> ActionCountPMF:
    """Exact pmf of the action count y = sum of n signals under ``dgp``: the
    row of :func:`count_pmf_grid` at theta, with its errors."""
    probs = count_pmf_grid(dgp, n, [theta])[0]  # rejects a non-integer n before int(n)
    return ActionCountPMF(int(n), probs)


# ---------------------------------------------------------------------------
# Count laws on a grid of thetas
# ---------------------------------------------------------------------------


def count_pmf_grid(dgp: SignalDGP, n: int, thetas: Sequence[float]) -> np.ndarray:
    """The count-law kernel: row i is the pmf of the action count y = sum of n
    signals under ``dgp`` at ``thetas[i]``, an (m, n + 1) array.

    Each law is written once, on an array of thetas; :func:`action_count_pmf`
    is its row at one theta, and the root scans evaluate it in blocks.  Raises
    ``UnsupportedN`` for an n that is not a positive integer, ``ModelError``
    at the first theta outside [0, 1] (nan included) and for an unknown law,
    and the law's own errors: a Bahadur shape it does not support, and the
    first theta where AdditiveBinomial leaves its admissible set (theta = 0
    and 1 included) or a Bahadur cell is negative.
    """
    n = _check_n(n)
    thetas = _unit_thetas(thetas)
    if isinstance(dgp, (IID, RhoMixture, MarkovShock)):
        return mixture_pmf_grid(n, thetas, dgp.rho)
    if isinstance(dgp, CMB):
        probs = _cmb_rows(n, thetas, dgp.nu)
    elif isinstance(dgp, AdditiveBinomial):
        probs = _additive_binomial_rows(dgp, n, thetas)
    elif isinstance(dgp, BahadurJoint):
        probs = joint_count_probs(n, _bahadur_joint_rows(n, thetas, dgp.r2, dgp.r3))
    elif isinstance(dgp, Sequential):
        probs = _sequential_rows(n, thetas, dgp.weights(n))
    else:
        raise ModelError(f"unknown DGP {dgp!r}")
    return probs / probs.sum(axis=1, keepdims=True)


def mixture_pmf_grid(n: int, thetas: Sequence[float], rho: float) -> np.ndarray:
    """:func:`count_pmf_grid` of the rho-mixture law, with the rho check of
    :func:`weighted_bernstein`; n >= 1 and every theta in [0, 1] are the caller's."""
    _check_mixture_rho(rho)
    thetas = np.asarray(thetas, dtype=float)
    probs = (1.0 - rho) * _binom_rows(n, thetas)
    probs[:, n] += rho * thetas
    probs[:, 0] += rho * (1.0 - thetas)
    return probs / probs.sum(axis=1, keepdims=True)


def _unit_thetas(thetas: Sequence[float]) -> np.ndarray:
    """``thetas`` as a float array; raises at the first one outside [0, 1] or nan."""
    values = np.asarray(thetas, dtype=float)
    inside = (values >= 0.0) & (values <= 1.0)
    if not inside.all():
        raise ModelError(f"theta must be in [0,1], got {thetas[int(np.argmin(inside))]}")
    return values


def _edge_rows(n: int, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero rows with the point masses at y = 0 (theta = 0) and y = n (theta = 1)
    set, and the mask of the interior thetas, whose rows the caller fills."""
    probs = np.zeros((len(thetas), n + 1))
    probs[:, 0] = thetas <= 0.0
    probs[:, n] = thetas >= 1.0
    return probs, (thetas > 0.0) & (thetas < 1.0)


def _log_columns(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log theta, log(1 - theta)) as columns, by numpy's log and log1p, which
    :func:`binom_pmf` takes on its one theta: they give the same bits on a
    float and in an array, so the rows are cell for cell the scalar kernel."""
    return np.log(thetas)[:, None], np.log1p(-thetas)[:, None]


def _binom_rows(n: int, thetas: np.ndarray) -> np.ndarray:
    """Binomial(n, theta) rows, cell for cell the arithmetic of :func:`binom_pmf`."""
    probs, inner = _edge_rows(n, thetas)
    lt, l1 = _log_columns(thetas[inner])
    logc, y, u = _binom_terms(n)
    probs[inner] = np.exp(logc + y * lt + u * l1)
    return probs


@lru_cache(maxsize=256)
def _cmb_log_weights(n: int, nu: float) -> np.ndarray:
    """log comb(n, y)**nu over y = 0..n for nu in [-inf, inf], less its largest value.
    Exactly equal at y and n - y (``_binom_terms`` is not, and nu multiplies the
    gap), with no product 0 * inf at the largest weights and none above 0 (one
    below the largest float is -inf), so a huge finite nu gives the law of +-inf."""
    logc = _binom_terms(n)[0]
    logc = np.minimum(logc, logc[::-1])
    gap = logc - (logc.max() if nu > 0.0 else logc.min())  # nu * gap <= 0
    out = np.zeros(n + 1)
    off = gap != 0.0
    with np.errstate(over="ignore"):
        out[off] = nu * gap[off]
    out.setflags(write=False)  # one array per (n, nu), shared by every call
    return out


def _cmb_rows(n: int, thetas: np.ndarray, nu: float) -> np.ndarray:
    """Conway-Maxwell-Binomial rows: weights comb(n, y)**nu theta**y (1-theta)**(n-y),
    normalised.  At nu = -inf only the extreme counts {0, n} keep their
    binomial weight theta**y (1-theta)**(n-y), at nu = +inf only the central
    count(s) (:func:`_cmb_log_weights`)."""
    probs, inner = _edge_rows(n, thetas)
    lt, l1 = _log_columns(thetas[inner])
    t = _cmb_log_weights(n, nu)
    cols = np.flatnonzero(t > -np.inf)  # a zero weight needs no column: +-inf keeps one or two
    _, y, u = _binom_terms(n)
    logw = t[cols] + y[cols] * lt + u[cols] * l1
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    probs[np.ix_(np.flatnonzero(inner), cols)] = w / w.sum(axis=1, keepdims=True)
    return probs


def _additive_binomial_rows(dgp: AdditiveBinomial, n: int, thetas: np.ndarray) -> np.ndarray:
    """Rows of the additive-binomial law: the binomial cell b_y times
    1 + rho sum_{i<j} w_i w_j, with w = (x - theta) / sqrt(theta (1 - theta)).

    The pairs of ones, of zeros and the mixed pairs of a count y (u = n - y
    zeros) add C(y, 2) (1 - theta) / theta, C(u, 2) theta / (1 - theta) and
    -y u to the sum; each is multiplied into b_y as a monomial with
    nonnegative powers, so no term is divided by theta or 1 - theta and none
    overflows or cancels near 0 or 1.  Raises at the first theta outside
    :func:`additive_binomial_rho_bounds`, tested on the whole array at once;
    that function, called on the theta, gives the error or the bounds."""
    lo, hi = _rho_bound_rows(n, thetas)
    ok = (n >= 2) & (thetas > 0.0) & (thetas < 1.0) & (lo <= dgp.rho) & (dgp.rho <= hi)
    if not ok.all():
        t = thetas[int(np.argmin(ok))].item()
        lo, hi = additive_binomial_rho_bounds(n, t)
        raise InadmissibleCorrelation(
            f"rho={dgp.rho} outside admissible [{lo:.6g}, {hi:.6g}] for n={n}, theta={t}"
        )
    logc, y, u = _binom_terms(n)
    lt, l1 = _log_columns(thetas)
    monomial = lambda a, b: np.exp(logc + a * lt + b * l1)  # C(n, y) theta**a (1-theta)**b
    binom = monomial(y, u)  # every theta is inside (0, 1): the row of _binom_rows
    ones = y * (y - 1.0) / 2.0 * monomial(np.maximum(y - 1.0, 0.0), u + 1.0)
    zeros = u * (u - 1.0) / 2.0 * monomial(y + 1.0, np.maximum(u - 1.0, 0.0))
    return np.clip(binom + dgp.rho * (ones + zeros - y * u * binom), 0.0, None)


# a few ulps per term (two powers, the products, the sum of at most five terms)
_BAHADUR_ROUNDING = 16 * np.finfo(float).eps


@lru_cache(maxsize=None)
def _bahadur_monomials(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms of the Bahadur cells as signed monomials theta**a (1-theta)**b.

    Rows are the terms (1, each pair i < j, and 0, 1, 2 for n = 3), columns
    the outcomes.  The term of a set S of signals is prod_{k in S} p_k w_k
    times prod_{k not in S} p_k, and each p_k w_k is +-sqrt(theta (1-theta)):
    its sign, and the powers a and b (half-integers for |S| = 3).
    """
    subsets = [()] + [(i, j) for i in range(n) for j in range(i + 1, n)] + ([(0, 1, 2)] if n == 3 else [])
    sign, a, b = (np.empty((len(subsets), 2**n)) for _ in range(3))
    for row, subset in enumerate(subsets):
        for outcome in range(2**n):
            x = [(outcome >> k) & 1 for k in range(n)]
            rest = [x[k] for k in range(n) if k not in subset]
            sign[row, outcome] = math.prod(2 * x[k] - 1 for k in subset)
            a[row, outcome] = sum(rest) + len(subset) / 2
            b[row, outcome] = len(rest) - sum(rest) + len(subset) / 2
    return sign, a, b


def _bahadur_joint_rows(
    n: int, thetas: Sequence[float], r2: Sequence[float], r3: float
) -> np.ndarray:
    """Bahadur joint of n <= 3 signals at each theta: an (m, 2**n) array over the
    outcomes in binary little-endian order, clipped at 0.

    A cell is prod_k p_k (1 + sum_{i<j} r_ij w_i w_j + r3 w_0 w_1 w_2), with
    p_k = P(x_k) and w_k = (x_k - theta) / sqrt(theta (1 - theta)).  It is
    summed term by term as the monomials of :func:`_bahadur_monomials`, none
    above 1, so nothing overflows where w_k alone does (theta near 0 or 1).
    A cell is negative when it lies below the rounding of its own terms,
    ``_BAHADUR_ROUNDING`` times the sum of their magnitudes, so that a truly
    negative cell raises at every theta, however small, and a cell that is
    0 up to rounding is clipped to 0.  Raises at the first theta with a
    negative cell.  It checks its thetas itself, since
    ``sampling.bahadur_joint`` calls it directly.
    """
    if n < 1 or n > 3:
        raise UnsupportedN(f"Bahadur joints are supported for n <= 3, got n={n}")
    pairs = n * (n - 1) // 2
    if len(r2) != pairs:
        raise ModelError(f"need {pairs} pairwise correlations for n={n}")
    t = _unit_thetas(thetas)[:, None]
    sign, a, b = _bahadur_monomials(n)
    coef = np.array([1.0, *r2, *([r3] if n == 3 else [])])[:, None] * sign
    # summed term by term into (m, 2**n) arrays from the first term, as numpy sums the (m, terms, 2**n) array
    terms = (k * t**p * (1.0 - t) ** q for k, p, q in zip(coef, a, b))
    joint = next(terms)
    scale = np.abs(joint)
    for term in terms:
        joint += term
        scale += np.abs(term)
    rows = np.flatnonzero((joint < -_BAHADUR_ROUNDING * scale).any(axis=1))
    if len(rows):
        raise InadmissibleCorrelation(
            f"correlation parameters produce a negative cell ({joint[rows[0]].min():.3e})"
        )
    return np.clip(joint, 0.0, None)


def _sequential_rows(n: int, thetas: np.ndarray, lams: Sequence[float]) -> np.ndarray:
    """Sequential-sampling rows by forward recursion on (signal i, count y): the
    next signal is one with probability (1 - lambda_i) theta + lambda_i y / i."""
    t = thetas[:, None]
    probs = np.zeros((len(thetas), n + 1))
    probs[:, 0], probs[:, 1] = 1.0 - thetas, thetas
    for i in range(1, n):
        lam = lams[i - 1]
        p_one = (1.0 - lam) * t + lam * (np.arange(i + 1) / i)
        head = probs[:, : i + 1]
        nxt = np.zeros_like(probs)
        nxt[:, 1 : i + 2] = head * p_one
        nxt[:, : i + 1] += head * (1.0 - p_one)
        probs = nxt
    return probs


# ---------------------------------------------------------------------------
# Count-law residuals as Bernstein polynomials
# ---------------------------------------------------------------------------


def bernstein_residual(
    dgp: SignalDGP, n: int, grid: np.ndarray, benefit: bool = False
) -> tuple[np.ndarray, np.ndarray] | None:
    """Bernstein coefficients on [0, 1] of the count-law residual
    ``1 - theta - sum_y mu(y | theta) grid[y]`` (``theta - ...`` with
    ``benefit``), up to a factor that is positive inside (0, 1), and a bound
    per coefficient; None for a law without them here (AdditiveBinomial,
    BahadurJoint).

    * rho-mixtures: ``r_y = 1 - y/n - (1-rho) C_y - rho (C_0 + (y/n)(C_n - C_0))``.
    * CMB: ``Z (1 - theta) - sum_y z_y C_y b_{n,y}`` of degree n + 1, with
      ``z_y = comb(n, y)**(nu - 1)`` (``_cmb_log_weights``, scaled) and ``Z =
      sum_y z_y b_{n,y}`` the law's normaliser.  At nu = -inf only z_0 = z_n = 1 are left; at
      nu = +inf the residual is linear inside (0, 1), where the central
      count(s) carry the weights 1 - theta and theta.
    * Sequential: the backward recursion over (signal, count) run on
      Bernstein polynomials, each step a product with a line.

    Bound k is ``E Z_k``, with Z_k the normaliser's coefficients in the
    residual's degree (1 but for CMB).  E bounds the rounding of the
    coefficients and of the residual that the scans evaluate (the rows of
    ``weighted_bernstein_rows`` or ``count_pmf_grid``) at any theta in
    (0, 1) with log theta and log(1 - theta) above -40, so a coefficient
    beyond its bound gives the sign of that residual, not only of the
    polynomial.  n must be a positive integer (the grid's).
    """
    n, grid = int(n), np.asarray(grid, dtype=float)
    if isinstance(dgp, (IID, RhoMixture, MarkovShock)):
        rho = dgp.rho  # in [0, 1] by the law's constructor
        y = np.arange(n + 1) / n
        coeffs = (y if benefit else 1.0 - y) - (1.0 - rho) * grid - rho * (grid[0] + y * (grid[-1] - grid[0]))
        return coeffs, np.full(n + 1, _rounding(grid, math.lgamma(n + 1) + n))
    if isinstance(dgp, CMB):
        nu, values, terms = dgp.nu, grid, 40.0 * n  # y log theta + (n - y) log(1 - theta)
        if nu == math.inf:
            z, values = np.ones(2), grid[[n // 2, (n + 1) // 2]]
        elif nu == -math.inf:
            z = np.zeros(n + 1)
            z[[0, n]] = 1.0
        else:  # a finite bound: an infinite one times a zero weight is nan
            terms = min(terms + (1.0 + abs(nu)) * math.lgamma(n + 1), np.finfo(float).max)
            z = np.exp(_cmb_log_weights(n, nu - 1.0))
        k = np.arange(len(z) + 1) / len(z)
        elevate = lambda v: k * np.r_[0.0, v] + (1.0 - k) * np.r_[v, 0.0]
        target = k * np.r_[0.0, z] if benefit else (1.0 - k) * np.r_[z, 0.0]
        return target - elevate(z * values), _rounding(grid, terms) * elevate(z)
    if isinstance(dgp, Sequential):
        lams = dgp.weights(n)
        v = grid[:, None]  # row y: E[C | count y after i signals], of degree n - i; i = n first
        for i in range(n - 1, 0, -1):
            p0 = lams[i - 1] * (np.arange(i + 1) / i)  # P(signal i + 1 is one | y) at theta = 0
            p1 = (1.0 - lams[i - 1]) + p0  # and at theta = 1
            v = _times_line(p0, p1, v[1:]) + _times_line(1.0 - p0, 1.0 - p1, v[:-1])
        # the first signal is one with probability theta
        poly = _times_line(np.ones(1), np.zeros(1), v[:1]) + _times_line(np.zeros(1), np.ones(1), v[1:])
        y = np.arange(n + 1) / n
        return (y if benefit else 1.0 - y) - poly[0], np.full(n + 1, _rounding(grid, n))
    return None


def _times_line(a0: np.ndarray, a1: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each row of Bernstein coefficients of degree d times the line
    ``a0[i] (1 - theta) + a1[i] theta``: the coefficients of degree d + 1."""
    d = rows.shape[1] - 1
    k = np.arange(d + 2) / (d + 1)
    pad = np.zeros((len(rows), 1))
    return (1.0 - k) * a0[:, None] * np.hstack([rows, pad]) + k * a1[:, None] * np.hstack([pad, rows])


def _rounding(grid: np.ndarray, terms: float) -> float:
    """The bound E of :func:`bernstein_residual`: 16 unit roundoffs per unit
    of ``terms``, the magnitude of a weight's logarithm or its number of
    rounded products, plus 2 for the dot product and the subtraction, per
    unit of 1 + max |C| (a weighted mean of the costs, and 1 - theta)."""
    return 16.0 * np.finfo(float).eps * (terms + 2.0) * (1.0 + float(np.abs(grid).max()))


def dgp_variance(dgp: RhoMixture, n: int, theta: float) -> float:
    """Variance of the action count under the rho-mixture: theta(1-theta)(n + rho n(n-1))."""
    if not isinstance(dgp, RhoMixture):
        raise ModelError("dgp_variance is defined for the rho-mixture law")
    return theta * (1.0 - theta) * (n + dgp.rho * n * (n - 1))


def mean_limit_variance(rho: float, theta: float) -> float:
    """Large-n variance of the sample mean, rho * theta * (1 - theta).

    This is the persistent overprecision term: it does not vanish with more
    data whenever rho > 0.
    """
    return rho * theta * (1.0 - theta)
