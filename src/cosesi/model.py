"""Model primitives: costs, inference procedures, and action-count laws.

Agents value a binary action through an increasing cost c(theta) of the
population share theta taking it, estimate theta from n Bernoulli signals
whose sum y may be correlated, and best-respond to the expected cost
C_{n,z} = int c dG_{n,z} under an inference procedure G that treats the
signals as independent.  This module supplies:

* cost functions with shape metadata and derivatives,
* the inference procedures (MLE, Beta estimation, Bayes with Beta prior),
* every distribution of the action count y used by the solvers: the
  rho-mixtures (iid, rho-mixture, Markov shock), Conway-Maxwell-Binomial,
  additive-binomial, Bahadur joints for n <= 3, sequential sampling; each
  at one theta (``action_count_pmf``, the reference) and on an array of
  thetas (``count_pmf_grid``, the form the root scans evaluate),
* plain and rho-weighted Bernstein polynomial evaluation (the expectation
  under a rho-mixture) and the large-n limit of the latter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .numerics import Tolerance, integrate

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
    "expected_cost",
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
    "weighted_limit",
    "bayes_posterior",
    "beta_expectation",
]


class ModelError(Exception):
    """Base error for model primitives."""


class InvalidSampleMean(ModelError, ValueError):
    """Sample mean z is not on the grid {0, 1/n, ..., 1}."""


class InadmissibleCorrelation(ModelError, ValueError):
    """Correlation parameter outside the validity region of the chosen DGP."""


class UnsupportedN(ModelError, ValueError):
    """Sample size outside the supported range for the chosen DGP."""


class PolarizedInteriorSample(ModelError, ValueError):
    """Polarized Bayesian update requested for an interior sample y not in {0, n}."""


class InteriorRhoUnsupported(ModelError, ValueError):
    """Bayesian inference with rho strictly inside (0, 1) is not an inference procedure."""


# ---------------------------------------------------------------------------
# Cost functions
# ---------------------------------------------------------------------------

_SHAPE_GRID = 1001  # 1e-3 grid used to classify/validate shapes


def _classify_shape(ys: np.ndarray) -> frozenset[str]:
    tags: set[str] = set()
    d1 = np.diff(ys)
    d2 = np.diff(ys, 2)
    tol = 1e-12
    if np.all(d1 >= -tol):
        tags.add("increasing")
    if np.all(d1 <= tol):
        tags.add("decreasing")
    if np.all(np.abs(d2) <= 1e-9):
        tags.add("linear")
        tags.update({"convex", "concave"})
    elif np.all(d2 >= -1e-12):
        tags.add("convex")
    elif np.all(d2 <= 1e-12):
        tags.add("concave")
    else:
        # single sign switch of the second difference, convex then concave
        signs = np.sign(d2[np.abs(d2) > 1e-12])
        flips = np.nonzero(np.diff(signs) != 0)[0]
        if len(flips) == 1 and signs[0] > 0 and "increasing" in tags:
            tags.add("s_shaped")
    return frozenset(tags)


@dataclass(frozen=True)
class CostFunction:
    """Continuous cost c: [0,1] -> [0,1] with derivative and shape metadata.

    ``deriv`` is analytic when supplied by a builtin constructor, otherwise a
    central difference at step 1e-6 (one-sided at the endpoints).
    """

    fn: Callable[[float], float]
    deriv: Callable[[float], float] | None = None
    shape_tags: frozenset[str] = field(default_factory=frozenset)
    name: str = "custom"

    def __post_init__(self) -> None:
        xs = np.linspace(0.0, 1.0, _SHAPE_GRID)
        ys = np.array([self.fn(float(x)) for x in xs])
        if not self.shape_tags:
            object.__setattr__(self, "shape_tags", _classify_shape(ys))
        if ys.min() < -1e-12 or ys.max() > 1.0 + 1e-12:
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
    if d <= 0:
        raise ModelError(f"power cost needs d > 0, got {d}")
    tags = {"increasing", "convex"} if d >= 1.0 else {"increasing", "concave"}
    if d == 1.0:
        tags.update({"linear", "concave", "convex"})
    return CostFunction(
        fn=lambda t: t**d,
        deriv=lambda t: d * t ** (d - 1.0) if t > 0.0 or d >= 1.0 else math.inf,
        shape_tags=frozenset(tags),
        name=f"pow:{d:g}",
    )


def linear_cost() -> CostFunction:
    """c(theta) = theta."""
    return CostFunction(
        fn=lambda t: t,
        deriv=lambda t: 1.0,
        shape_tags=frozenset({"increasing", "linear", "convex", "concave"}),
        name="linear",
    )


def exp_decay_cost(t_rate: float) -> CostFunction:
    """c(theta) = exp(-t*theta); the monopoly's perceived no-encounter probability."""
    if t_rate < 0:
        raise ModelError(f"exp_decay rate must be >= 0, got {t_rate}")
    return CostFunction(
        fn=lambda t: math.exp(-t_rate * t),
        deriv=lambda t: -t_rate * math.exp(-t_rate * t),
        shape_tags=frozenset({"decreasing", "convex"}),
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
        return 1.0 / (1.0 + math.exp(-x))

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
        shape_tags=frozenset({"increasing", "s_shaped"}),
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


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def beta_expectation(
    fn: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-12,
) -> float:
    """E[fn(X)] for X ~ Beta(a, b) by adaptive quadrature.

    Endpoint singularities for shape parameters below one are removed by the
    substitutions u = x^a on [0, 1/2] and v = (1-x)^b on [1/2, 1], leaving
    bounded integrands.
    """
    if a <= 0.0 or b <= 0.0:
        raise ModelError(f"Beta parameters must be positive, got ({a}, {b})")
    log_b = _log_beta(a, b)
    quad_tol = Tolerance(abs_tol=tol)

    def density_integrand(x: float) -> float:
        return fn(x) * x ** (a - 1.0) * (1.0 - x) ** (b - 1.0)

    if a < 1.0:  # u = x^a removes the singularity at 0

        def left(u: float) -> float:
            x = u ** (1.0 / a)
            return fn(x) * (1.0 - x) ** (b - 1.0)

        total = integrate(left, 0.0, 0.5**a, quad_tol) / a
    else:
        total = integrate(density_integrand, 0.0, 0.5, quad_tol)
    if b < 1.0:  # v = (1-x)^b removes the singularity at 1

        def right(v: float) -> float:
            x = 1.0 - v ** (1.0 / b)
            return fn(x) * x ** (a - 1.0)

        total += integrate(right, 0.0, 0.5**b, quad_tol) / b
    else:
        total += integrate(density_integrand, 0.5, 1.0, quad_tol)
    return total / math.exp(log_b)


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
    """Family of estimate distributions G_{n,z}, FOSD-increasing in z."""

    kind: str = "abstract"

    def expected_value(self, n: int, z: float, fn: Callable[[float], float]) -> float:
        raise NotImplementedError

    def expected_cost(self, n: int, z: float, cost: Callable[[float], float]) -> float:
        """C_{n,z} = int cost dG_{n,z}."""
        return self.expected_value(n, z, cost)

    def __repr__(self) -> str:  # pragma: no cover
        return self.kind


class MLE(InferenceProcedure):
    """Point-mass estimate at the sample mean."""

    kind = "mle"

    def expected_value(self, n: int, z: float, fn: Callable[[float], float]) -> float:
        _check_sample_mean(n, z)
        return fn(z)


class BetaEstimation(InferenceProcedure):
    """Beta(zn, (1-z)n) estimate for interior samples, MLE at z in {0, 1}."""

    kind = "beta"

    def expected_value(self, n: int, z: float, fn: Callable[[float], float]) -> float:
        y = _check_sample_mean(n, z)
        if y == 0 or y == n:
            return fn(float(y // n))
        return beta_expectation(fn, float(y), float(n - y))


class BayesBeta(InferenceProcedure):
    """Bayesian updating from a Beta(alpha, beta) prior with partial neglect.

    The belief is the zeta-mixture of the naive iid posterior and the
    correlation-aware posterior.  Only rho in {0, 1} yields an inference
    procedure; interior rho is rejected at construction.  Under rho = 0 the
    aware posterior is the iid one, so zeta has no effect.  Under rho = 1 the
    aware posterior exists only for polarized samples y in {0, n}.
    """

    kind = "bayes"

    def __init__(self, alpha: float, beta: float, rho: float, zeta: float = 1.0):
        if alpha <= 0 or beta <= 0:
            raise ModelError("Beta prior parameters must be positive")
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

    def expected_value(self, n: int, z: float, fn: Callable[[float], float]) -> float:
        y = _check_sample_mean(n, z)
        naive = beta_expectation(fn, *bayes_posterior(self.alpha, self.beta, n, y, "iid"))
        if self.rho == 0.0 or self.zeta == 1.0:
            return naive
        aware = beta_expectation(fn, *bayes_posterior(self.alpha, self.beta, n, y, "polarized"))
        return self.zeta * naive + (1.0 - self.zeta) * aware


def expected_cost(
    G: InferenceProcedure, n: int, z: float, cost: Callable[[float], float]
) -> float:
    """Module-level alias for G.expected_cost(n, z, cost)."""
    return G.expected_cost(n, z, cost)


def bayes_posterior(
    alpha: float, beta: float, n: int, y: int, regime: str
) -> tuple[float, float]:
    """Beta posterior parameters after observing y of n signals.

    iid regime: Beta(alpha + y, beta + n - y).  Polarized regime (all signals
    equal, so y must be 0 or n): Beta(alpha + z, beta + 1 - z) with z = y/n;
    the sample counts as a single observation, independent of n.
    """
    if alpha <= 0 or beta <= 0:
        raise ModelError("Beta prior parameters must be positive")
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
def _log_binom_coeffs(n: int) -> np.ndarray:
    # lgamma(n - y + 1) is lgamma(y + 1) reversed: one pass, no list of n + 1 floats
    lg = np.fromiter((math.lgamma(k + 1.0) for k in range(n + 1)), float, n + 1)
    return math.lgamma(n + 1) - lg - lg[::-1]


def binom_pmf(n: int, theta: float) -> np.ndarray:
    """Binomial(n, theta) pmf over y = 0..n as a vector."""
    if n < 0:
        raise UnsupportedN(f"n must be >= 0, got {n}")
    out = np.zeros(n + 1)
    if theta <= 0.0:
        out[0] = 1.0
        return out
    if theta >= 1.0:
        out[n] = 1.0
        return out
    y = np.arange(n + 1, dtype=float)
    logp = _log_binom_coeffs(n) + y * math.log(theta) + (n - y) * math.log1p(-theta)
    return np.exp(logp)


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
    if not 0.0 <= rho <= 1.0:
        raise InadmissibleCorrelation(f"rho must be in [0,1], got {rho}")


def weighted_bernstein(n: int, theta: float, rho: float, values: Sequence[float]) -> float:
    """rho-weighted Bernstein polynomial Psi_n(theta, rho; C).

    (1 - rho) * B_n(theta; C) + rho * [theta C(1) + (1 - theta) C(0)], the
    right-hand side of the equilibrium equation under the rho-mixture law.
    """
    _check_mixture_rho(rho)
    values = np.asarray(values, dtype=float)
    polarized = theta * float(values[-1]) + (1.0 - theta) * float(values[0])
    if rho == 1.0:
        return float(polarized)
    return float((1.0 - rho) * bernstein(n, theta, values) + rho * polarized)


def weighted_limit(
    theta: float, rho: float, fn: Callable[[float], float], ends: tuple[float, float]
) -> float:
    """Large-n limit of :func:`weighted_bernstein`, where B_n(theta; C) -> fn(theta).

    (1 - rho) * fn(theta) + rho * [theta fn(1) + (1 - theta) fn(0)], with the
    same rho check and the polarized term alone at rho = 1.  ``ends`` is
    (fn(0), fn(1)), evaluated once by the caller; ``fn`` itself is called
    only when rho < 1.
    """
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
        if not 0.0 <= self.rho <= 1.0:
            raise InadmissibleCorrelation(f"rho-mixture needs rho in [0,1], got {self.rho}")


@dataclass(frozen=True)
class CMB:
    """Conway-Maxwell-Binomial with association parameter nu (+-inf allowed)."""

    nu: float


@dataclass(frozen=True)
class AdditiveBinomial:
    """Common pairwise correlation rho (possibly negative), no higher-order terms."""

    rho: float


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
    These are exactly the values keeping every pmf cell nonnegative.
    """
    if n < 2:
        raise UnsupportedN("additive binomial needs n >= 2")
    if not 0.0 < theta < 1.0:
        raise InadmissibleCorrelation("additive binomial needs theta in (0,1)")
    odds = min(theta / (1.0 - theta), (1.0 - theta) / theta)
    lo = -2.0 / (n * (n - 1)) * odds
    center = (n - 1) * theta + 0.5
    xi0 = min((y - center) ** 2 for y in range(n + 1))
    hi = 2.0 * theta * (1.0 - theta) / ((n - 1) * theta * (1.0 - theta) + 0.25 - xi0)
    return lo, hi


def _bahadur_joint_probs(n: int, theta: float, r2: Sequence[float], r3: float) -> np.ndarray:
    """Joint over 2^n outcomes (binary little-endian) of the Bahadur expansion."""
    if n < 1 or n > 3:
        raise UnsupportedN(f"Bahadur joints are supported for n <= 3, got n={n}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if len(r2) != len(pairs):
        raise ModelError(f"need {len(pairs)} pairwise correlations for n={n}")
    if not 0.0 < theta < 1.0:
        if theta in (0.0, 1.0):  # degenerate: all signals equal theta
            probs = np.zeros(2**n)
            probs[(2**n - 1) if theta == 1.0 else 0] = 1.0
            return probs
        raise ModelError(f"theta must be in [0,1], got {theta}")
    s = math.sqrt(theta * (1.0 - theta))
    probs = np.empty(2**n)
    for b in range(2**n):
        x = [(b >> i) & 1 for i in range(n)]
        w = [(xi - theta) / s for xi in x]
        base = math.prod(theta if xi else (1.0 - theta) for xi in x)
        corr = 1.0
        for (i, j), r in zip(pairs, r2):
            corr += r * w[i] * w[j]
        if n == 3:
            corr += r3 * w[0] * w[1] * w[2]
        probs[b] = base * corr
    if probs.min() < -1e-12:
        raise InadmissibleCorrelation(
            f"correlation parameters produce a negative cell ({probs.min():.3e})"
        )
    return np.clip(probs, 0.0, None)


def joint_count_probs(n: int, joint: Sequence[float]) -> np.ndarray:
    """Fold a joint over 2^n outcomes (binary little-endian) onto the count y."""
    probs = np.zeros(n + 1)
    for b, p in enumerate(joint):
        probs[bin(b).count("1")] += p
    return probs


def _sequential_count_pmf(n: int, theta: float, lams: Sequence[float]) -> np.ndarray:
    """Exact count pmf of the sequential process by forward recursion on (i, y)."""
    probs = np.zeros(n + 1)
    probs[0], probs[1] = 1.0 - theta, theta
    for i in range(1, n):
        lam = lams[i - 1]
        nxt = np.zeros(n + 1)
        for y in range(i + 1):
            if probs[y] == 0.0:
                continue
            p_one = (1.0 - lam) * theta + lam * (y / i)
            nxt[y + 1] += probs[y] * p_one
            nxt[y] += probs[y] * (1.0 - p_one)
        probs = nxt
    return probs


def _cmb_pmf(n: int, theta: float, nu: float) -> np.ndarray:
    out = np.zeros(n + 1)
    if theta <= 0.0:
        out[0] = 1.0
        return out
    if theta >= 1.0:
        out[n] = 1.0
        return out
    if math.isinf(nu):
        y = np.arange(n + 1, dtype=float)
        logw = y * math.log(theta) + (n - y) * math.log1p(-theta)
        if nu < 0:  # all mass on the extremes {0, n}
            keep = [0, n]
        else:  # all mass on the central count(s)
            keep = [n // 2] if n % 2 == 0 else [n // 2, n // 2 + 1]
        w = np.zeros(n + 1)
        w[keep] = np.exp(logw[keep] - logw[keep].max())
        return w / w.sum()
    y = np.arange(n + 1, dtype=float)
    logp = nu * _log_binom_coeffs(n) + y * math.log(theta) + (n - y) * math.log1p(-theta)
    logp -= logp.max()
    p = np.exp(logp)
    return p / p.sum()


def action_count_pmf(dgp: SignalDGP, n: int, theta: float) -> ActionCountPMF:
    """Exact pmf of the action count y = sum of n signals under ``dgp``."""
    if n < 1:
        raise UnsupportedN(f"n must be >= 1, got {n}")
    if not 0.0 <= theta <= 1.0:
        raise ModelError(f"theta must be in [0,1], got {theta}")
    if isinstance(dgp, (IID, RhoMixture, MarkovShock)):
        probs = (1.0 - dgp.rho) * binom_pmf(n, theta)
        probs[n] += dgp.rho * theta
        probs[0] += dgp.rho * (1.0 - theta)
    elif isinstance(dgp, CMB):
        probs = _cmb_pmf(n, theta, dgp.nu)
    elif isinstance(dgp, AdditiveBinomial):
        lo, hi = additive_binomial_rho_bounds(n, theta)
        if not lo <= dgp.rho <= hi:
            raise InadmissibleCorrelation(
                f"rho={dgp.rho} outside admissible [{lo:.6g}, {hi:.6g}] for n={n}, theta={theta}"
            )
        y = np.arange(n + 1, dtype=float)
        kernel = 1.0 + dgp.rho * (
            (y - n * theta) ** 2 + y * (2.0 * theta - 1.0) - n * theta**2
        ) / (2.0 * theta * (1.0 - theta))
        probs = binom_pmf(n, theta) * kernel
        probs = np.clip(probs, 0.0, None)
    elif isinstance(dgp, BahadurJoint):
        probs = joint_count_probs(n, _bahadur_joint_probs(n, theta, dgp.r2, dgp.r3))
    elif isinstance(dgp, Sequential):
        probs = _sequential_count_pmf(n, theta, dgp.weights(n))
    else:
        raise ModelError(f"unknown DGP {dgp!r}")
    probs = probs / probs.sum()  # remove float drift, keeps 1e-12 normalization
    return ActionCountPMF(n, probs)


# ---------------------------------------------------------------------------
# Count laws on a grid of thetas
# ---------------------------------------------------------------------------


def count_pmf_grid(dgp: SignalDGP, n: int, thetas: Sequence[float]) -> np.ndarray:
    """Array form of :func:`action_count_pmf`: row i is the pmf of the action
    count at ``thetas[i]``, an (m, n + 1) array.

    Each law is evaluated at every theta at once, step for step as the scalar
    pmf does it (logs by ``math``, the same sums in the same order), so the
    rows agree with ``action_count_pmf`` to a few ulps.  What the array
    kernels do not cover goes through ``action_count_pmf`` row by row and so
    raises exactly what it raises at the first such theta: n below 1, a theta
    outside [0, 1], an unknown law, a Bahadur shape it rejects, and the thetas
    where AdditiveBinomial leaves its admissible set (theta = 0 and 1
    included) or a Bahadur cell is negative.
    """
    thetas = np.asarray(thetas, dtype=float)
    if n < 1 or not np.all((thetas >= 0.0) & (thetas <= 1.0)):
        return _reference_rows(dgp, n, thetas)
    if isinstance(dgp, (IID, RhoMixture, MarkovShock)):
        return mixture_pmf_grid(n, thetas, dgp.rho)
    if isinstance(dgp, CMB):
        probs = _cmb_rows(n, thetas, dgp.nu)
    elif isinstance(dgp, AdditiveBinomial) and n >= 2:
        probs = _additive_binomial_rows(dgp, n, thetas)
    elif isinstance(dgp, BahadurJoint) and n <= 3 and len(dgp.r2) == n * (n - 1) // 2:
        probs = _bahadur_rows(dgp, n, thetas)
    elif isinstance(dgp, Sequential):
        probs = _sequential_rows(n, thetas, dgp.weights(n))
    else:
        return _reference_rows(dgp, n, thetas)
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


def _reference_rows(dgp: SignalDGP, n: int, thetas: np.ndarray) -> np.ndarray:
    return np.array([action_count_pmf(dgp, n, t).probs for t in thetas.tolist()])


def _edge_rows(n: int, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero rows with the point masses at y = 0 (theta = 0) and y = n (theta = 1)
    set, and the mask of the interior thetas, whose rows the caller fills."""
    probs = np.zeros((len(thetas), n + 1))
    probs[thetas <= 0.0, 0] = 1.0
    probs[thetas >= 1.0, n] = 1.0
    return probs, (thetas > 0.0) & (thetas < 1.0)


def _log_columns(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log theta, log(1 - theta)) as columns, by ``math`` like the scalar pmfs:
    numpy's log and log1p differ from it in the last bit."""
    ts = thetas.tolist()
    lt = np.fromiter(map(math.log, ts), float, len(ts))
    l1 = np.fromiter((math.log1p(-t) for t in ts), float, len(ts))
    return lt[:, None], l1[:, None]


def _binom_rows(n: int, thetas: np.ndarray) -> np.ndarray:
    """Binomial(n, theta) rows, cell for cell the arithmetic of :func:`binom_pmf`."""
    probs, inner = _edge_rows(n, thetas)
    lt, l1 = _log_columns(thetas[inner])
    y = np.arange(n + 1, dtype=float)
    probs[inner] = np.exp(_log_binom_coeffs(n) + y * lt + (n - y) * l1)
    return probs


def _cmb_rows(n: int, thetas: np.ndarray, nu: float) -> np.ndarray:
    """Rows of :func:`_cmb_pmf`, the infinite nu keeping its extreme or central counts."""
    probs, inner = _edge_rows(n, thetas)
    lt, l1 = _log_columns(thetas[inner])
    if math.isinf(nu):
        cols = [0, n] if nu < 0 else ([n // 2] if n % 2 == 0 else [n // 2, n // 2 + 1])
        y = np.array(cols, dtype=float)
        logw = y * lt + (n - y) * l1
    else:
        cols = list(range(n + 1))
        y = np.arange(n + 1, dtype=float)
        logw = nu * _log_binom_coeffs(n) + y * lt + (n - y) * l1
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    probs[np.ix_(np.flatnonzero(inner), cols)] = w / w.sum(axis=1, keepdims=True)
    return probs


def _additive_binomial_rows(dgp: AdditiveBinomial, n: int, thetas: np.ndarray) -> np.ndarray:
    """Rows of the additive-binomial law (n >= 2).  The thetas are checked in
    order by :func:`additive_binomial_rho_bounds`, and the scalar pmf is called
    at the first one outside the admissible set, where it raises."""
    for t in thetas.tolist():
        if 0.0 < t < 1.0:
            lo, hi = additive_binomial_rho_bounds(n, t)
            if lo <= dgp.rho <= hi:
                continue
        action_count_pmf(dgp, n, t)
    t = thetas[:, None]
    sq = np.array([v**2 for v in thetas.tolist()])[:, None]  # Python's pow, as the scalar kernel squares
    y = np.arange(n + 1, dtype=float)
    kernel = 1.0 + dgp.rho * ((y - n * t) ** 2 + y * (2.0 * t - 1.0) - n * sq) / (2.0 * t * (1.0 - t))
    return np.clip(_binom_rows(n, thetas) * kernel, 0.0, None)


def _bahadur_rows(dgp: BahadurJoint, n: int, thetas: np.ndarray) -> np.ndarray:
    """Rows of the Bahadur joint (n <= 3, one r2 per pair) folded onto the count
    as :func:`joint_count_probs` folds it.  The scalar pmf is called at the
    first theta with a cell below -1e-12, where it raises."""
    probs, inner = _edge_rows(n, thetas)
    rows = np.flatnonzero(inner)
    t = thetas[inner]
    s = np.sqrt(t * (1.0 - t))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    joint = np.empty((len(t), 2**n))
    for b in range(2**n):
        x = [(b >> i) & 1 for i in range(n)]
        w = [(xi - t) / s for xi in x]
        base = np.ones_like(t)
        for xi in x:
            base = base * (t if xi else 1.0 - t)
        corr = np.ones_like(t)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan pass silently, as in floats
            for (i, j), r in zip(pairs, dgp.r2):
                corr = corr + r * w[i] * w[j]
            if n == 3:
                corr = corr + dgp.r3 * w[0] * w[1] * w[2]
            joint[:, b] = base * corr
    negative = np.flatnonzero(joint.min(axis=1) < -1e-12)
    if len(negative):
        action_count_pmf(dgp, n, float(t[negative[0]]))
    joint = np.clip(joint, 0.0, None)
    for b in range(2**n):
        probs[rows, bin(b).count("1")] += joint[:, b]
    return probs


def _sequential_rows(n: int, thetas: np.ndarray, lams: Sequence[float]) -> np.ndarray:
    """The forward recursion of :func:`_sequential_count_pmf` on every theta at once."""
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
