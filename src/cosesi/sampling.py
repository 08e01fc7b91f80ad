"""Signal samplers and joint-distribution diagnostics.

Monte Carlo generators for correlated Bernoulli signals under two laws of
``model``, the compound lottery ``RhoMixture`` and popularity-weighted
``Sequential`` (whose constructors check the parameters; theta goes through
the count laws' check, before any draw), exact Bahadur joints for up to
three signals (a row of ``model._bahadur_joint_rows``, the kernel of the
Bahadur count law), the balance-equation test for when a sum of dependent
Bernoullis is binomial, the informativeness index based on total-variation
distance, and the large-sample action-probability formulas for algorithmic
sampling.

All randomness flows through :class:`SeedableRng`; identical seed and stream
id reproduce identical draws, and distinct stream ids are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .numerics import norm_cdf
from .model import (
    ActionCountPMF,
    CostFunction,
    InadmissibleCorrelation,
    RhoMixture,
    Sequential,
    UnsupportedN,
    _bahadur_joint_rows,
    _unit_thetas,
    binom_pmf,
    joint_count_probs,
)

__all__ = [
    "SamplingError",
    "LambdaOutOfRange",
    "SeedableRng",
    "JointPMF",
    "BalanceReport",
    "sample_correlated",
    "sequential_sample",
    "asymptotic_action_prob",
    "bahadur_joint",
    "joint_from_conditionals",
    "balance_check",
    "informativeness",
    "chi_square_gof",
    "pairwise_correlation",
]


class SamplingError(Exception):
    """Base error for samplers and diagnostics."""


class LambdaOutOfRange(SamplingError, ValueError):
    """Normal approximation requested for lambda >= 1/2 where it is invalid."""


@dataclass(frozen=True)
class SeedableRng:
    """Deterministic, splittable random source.

    Same (seed, stream) always yields the same draw sequence; different
    stream ids give independent streams from the same seed.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))

    def split(self, stream: int) -> "SeedableRng":
        return SeedableRng(self.seed, stream)


@dataclass(frozen=True)
class JointPMF:
    """Joint law of n <= 3 binary signals, outcomes in binary little-endian order."""

    n: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if self.n < 1 or self.n > 3:
            raise UnsupportedN(f"joint pmfs are supported for n <= 3, got {self.n}")
        if probs.shape != (2**self.n,):
            raise SamplingError(f"need {2 ** self.n} outcome probabilities")
        if probs.min() < -1e-12:
            raise InadmissibleCorrelation(f"negative joint cell {probs.min()}")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise SamplingError(f"joint pmf sums to {probs.sum()}")

    def marginals(self) -> np.ndarray:
        out = np.zeros(self.n)
        for b, p in enumerate(self.probs):
            for i in range(self.n):
                if (b >> i) & 1:
                    out[i] += p
        return out

    def is_identically_distributed(self, tol: float = 1e-9) -> bool:
        m = self.marginals()
        return bool(np.ptp(m) <= tol)

    def count_pmf(self) -> ActionCountPMF:
        return ActionCountPMF(self.n, joint_count_probs(self.n, self.probs))

    def moment(self, indices: Sequence[int]) -> float:
        """E[prod of the indicated signals]."""
        total = 0.0
        for b, p in enumerate(self.probs):
            if all((b >> i) & 1 for i in indices):
                total += p
        return total


def sample_correlated(
    n: int, theta: float, rho: float, rng: SeedableRng, size: int = 1
) -> np.ndarray:
    """Draws of n signals under the compound-lottery representation.

    With probability rho all n bits duplicate a single Bernoulli(theta) draw;
    otherwise the bits are iid Bernoulli(theta).  Returns a (size, n) 0/1
    array; a size below 1 raises :class:`SamplingError`.  theta and rho are
    checked before anything is drawn.
    """
    _unit_thetas([theta])
    RhoMixture(rho)  # the law's constructor checks rho
    if size < 1:
        raise SamplingError(f"need at least one draw, got size={size}")
    gen = rng.generator()
    polarized = gen.random(size) < rho
    shared = (gen.random(size) < theta).astype(np.int8)
    iid = (gen.random((size, n)) < theta).astype(np.int8)
    out = np.where(polarized[:, None], shared[:, None], iid)
    return out


def sequential_sample(
    n: int,
    theta: float,
    lambdas: float | Sequence[float],
    rng: SeedableRng,
    size: int = 1,
) -> np.ndarray:
    """Popularity-weighted sequential draws.

    The first bit is Bernoulli(theta); bit i+1 is one with probability
    (1 - lambda_i) theta + lambda_i z_i where z_i is the running sample mean.
    Every bit has unconditional marginal theta.  The weights are those of
    the law ``Sequential(lambdas)``, so a scalar or a short list is padded by
    ``Sequential.weights``.  Simulation is well defined for any lambda in
    [0, 1); only the normal-approximation formula restricts lambda further.
    theta and the weights are checked before anything is drawn.
    """
    _unit_thetas([theta])
    lams = Sequential((lambdas,) if np.isscalar(lambdas) else tuple(lambdas)).weights(n)
    gen = rng.generator()
    bits = np.empty((size, n), dtype=np.int8)
    bits[:, 0] = gen.random(size) < theta
    counts = bits[:, 0].astype(float)
    for i in range(1, n):
        p = (1.0 - lams[i - 1]) * theta + lams[i - 1] * counts / i
        bits[:, i] = gen.random(size) < p
        counts += bits[:, i]
    return bits


def asymptotic_action_prob(
    eta: float,
    theta: float,
    lam: float,
    n: int,
    c: CostFunction,
    mode: str = "algorithmic",
) -> float:
    """Large-sample probability that a type-eta agent takes the action.

    ``algorithmic`` mode (MLE inference, lambda < 1/2):
        Phi(u(eta,theta) sqrt(n) sqrt(1-2 lambda) / (c'(theta) sqrt(theta(1-theta)))).
    ``supply_shock_tau1`` mode gives the companion probability of supplying
    after a shock at tau = 1, where Var(S) = theta(1-theta):
        1 - Phi(u sqrt(n) (1-lambda) / (c'(theta) sqrt(theta(1-theta)(1-lambda^2)))).
    """
    if not 0.0 < theta < 1.0:
        raise SamplingError(f"theta must be interior, got {theta}")
    u = eta - c(theta)
    cd = c.derivative(theta)
    if cd <= 0.0:
        raise SamplingError("formula requires an increasing cost, c'(theta) > 0")
    base = cd * math.sqrt(theta * (1.0 - theta))
    if mode == "algorithmic":
        if not 0.0 <= lam < 0.5:
            raise LambdaOutOfRange(
                f"normal approximation requires lambda < 1/2, got {lam}"
            )
        return norm_cdf(u * math.sqrt(n) * math.sqrt(1.0 - 2.0 * lam) / base)
    if mode == "supply_shock_tau1":
        if not 0.0 <= lam < 1.0:
            raise LambdaOutOfRange(f"supply-shock mode needs lambda in [0,1), got {lam}")
        arg = u * math.sqrt(n) * (1.0 - lam) / (base * math.sqrt(1.0 - lam * lam))
        return 1.0 - norm_cdf(arg)
    raise SamplingError(f"unknown mode '{mode}'")


def bahadur_joint(
    n: int, theta: float, r2: float | Sequence[float], r3: float = 0.0
) -> JointPMF:
    """Exact joint law of n <= 3 signals from pairwise and third-order correlations.

    ``r2`` is a scalar common pairwise correlation or the per-pair vector
    (r12, r13, r23) for n = 3.  All 2^n cells must come out nonnegative.
    """
    pairs = n * (n - 1) // 2
    r2_vec = tuple([float(r2)] * pairs) if np.isscalar(r2) else tuple(float(v) for v in r2)
    return JointPMF(n, _bahadur_joint_rows(n, [theta], r2_vec, r3)[0])


def joint_from_conditionals(
    p1: float, p21: float, p20: float, p311: float, p310: float, p301: float, p300: float
) -> JointPMF:
    """Three-signal joint from the conditional-probability parameterization.

    Parameters are (P(x1=1), P(x2=1|x1=1), P(x2=1|x1=0), P(x3=1|x1=r,x2=s))
    for (r,s) in {11, 10, 01, 00}.
    """
    probs = np.zeros(8)
    for b in range(8):
        x1, x2, x3 = b & 1, (b >> 1) & 1, (b >> 2) & 1
        p = p1 if x1 else 1.0 - p1
        p2 = p21 if x1 else p20
        p *= p2 if x2 else 1.0 - p2
        p3 = {(1, 1): p311, (1, 0): p310, (0, 1): p301, (0, 0): p300}[(x1, x2)]
        p *= p3 if x3 else 1.0 - p3
        probs[b] = p
    return JointPMF(3, probs)


@dataclass(frozen=True)
class BalanceReport:
    holds: bool
    moments: tuple[float, ...]
    targets: tuple[float, ...]


def balance_check(joint: JointPMF, theta: float, tol: float = 1e-12) -> BalanceReport:
    """Test the balance equations W_j = C(n,j) theta^j for j = 1..n.

    W_j sums E[x_{i1} ... x_{ij}] over all j-subsets; the equations hold for
    every j exactly when the count distribution is Binomial(n, theta).
    """
    n = joint.n
    moments = []
    targets = []
    holds = True
    for j in range(1, n + 1):
        w = sum(joint.moment(list(idx)) for idx in combinations(range(n), j))
        target = math.comb(n, j) * theta**j
        moments.append(w)
        targets.append(target)
        if abs(w - target) > tol:
            holds = False
    return BalanceReport(holds, tuple(moments), tuple(targets))


def informativeness(n: int, pmf: ActionCountPMF, theta: float) -> float:
    """One minus the total-variation distance to Binomial(n, theta).

    Equals 1 exactly when the signals are fully informative about theta (the
    balance equations hold) and tends to 0 for fully polarized sampling as n
    grows.
    """
    if pmf.n != n:
        raise SamplingError(f"pmf has n={pmf.n}, expected {n}")
    tv = 0.5 * float(np.abs(binom_pmf(n, theta) - pmf.probs).sum())
    return 1.0 - tv


def chi_square_gof(
    counts: Sequence[float], probs: Sequence[float], min_expected: float = 5.0
) -> tuple[float, float, int]:
    """Chi-square goodness of fit with pooling of sparse adjacent bins.

    Adjacent bins are merged until every expected count reaches
    ``min_expected`` (mass concentrates on {0, n} when rho is near one).
    Returns (statistic, p-value, degrees of freedom).  scipy is imported
    here, not at module level, so ``import cosesi`` does not pay for it.
    """
    from scipy.special import chdtrc

    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    total = counts.sum()
    expected = probs * total
    merged_obs: list[float] = []
    merged_exp: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(counts, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0:
        if merged_exp:
            merged_obs[-1] += acc_o
            merged_exp[-1] += acc_e
        else:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
    obs = np.array(merged_obs)
    exp = np.array(merged_exp)
    if len(obs) < 2:
        return 0.0, 1.0, 0
    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = len(obs) - 1
    return stat, float(chdtrc(dof, stat)), dof


def pairwise_correlation(bits: np.ndarray) -> float:
    """Average sample correlation over all signal pairs of a (draws, n) array.

    A sample correlation needs two signals, two draws and every signal taking
    both values; without them :class:`SamplingError` is raised.
    """
    bits = np.asarray(bits, dtype=float)
    draws, n = bits.shape
    if n < 2:
        raise SamplingError("need at least two signals per draw")
    if draws < 2:
        raise SamplingError(f"need at least two draws, got {draws}")
    with np.errstate(invalid="ignore", divide="ignore"):  # a constant signal's row is 0/0
        corr = np.corrcoef(bits, rowvar=False)
    constant = np.flatnonzero(np.isnan(np.diag(corr)))
    if len(constant):
        raise SamplingError(f"signal {constant[0]} takes one value in every draw: no sample correlation")
    upper = corr[np.triu_indices(n, k=1)]
    return float(np.mean(upper))
