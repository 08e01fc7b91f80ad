"""Market applications of the correlated-sampling equilibrium.

Four markets plus two policy exercises:

* two-sided search-and-matching with Cobb-Douglas technology, where workers
  and firms estimate the other side's participation from correlated samples,
* monopoly pricing against consumers with a taste for uniqueness,
* a credit market where bank portfolio losses follow the single-factor
  Gaussian (Vasicek-type) law and Owen's T gives default covariances,
* two-borrower value-at-risk under default correlation,
* a tax-policy check for a planner who may misread the sampling pattern,
* a two-period competitive market hit by a supply shock.

Every rho-mixture expectation reads its costs through
``equilibrium.expected_costs``, mapped cell by cell with ``ExpectedCosts.map``.
Monopoly demand and the tax equilibria are solved by
``equilibrium._cosesi_root``, the bank's roots by ``equilibrium._roots``;
the monopoly demand curve solves all its prices at once, in lockstep, by
``equilibrium._cosesi_roots``, with the same roots bit for bit.  Three equations keep a solve of their own (the
docstrings say why): the rational monopoly demand, the two-sided market and
the supply shock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .numerics import (
    SOLVE_TOL,
    Bracket,
    norm_cdf,
    norm_quantile,
    owen_t,
    solve_bracketed,
    solve_decreasing,
)
from .model import (
    CostFunction,
    InferenceProcedure,
    MLE,
    exp_decay_cost,
)
from .equilibrium import _cosesi_root, _cosesi_roots, _roots, cost_grid, expected_costs

__all__ = [
    "ApplicationError",
    "NoPositiveEquilibrium",
    "RhoZeroUnsupported",
    "TwoSidedSpec",
    "TwoSidedOutcome",
    "MixedPopulationOutcome",
    "CreditSpec",
    "BankOutcome",
    "MonopolyOutcome",
    "TaxOutcome",
    "SupplyShockOutcome",
    "solve_two_sided",
    "mixed_population_employment",
    "monopoly_demand",
    "monopoly_rational_demand",
    "monopoly_optimize",
    "vasicek_cdf",
    "default_stats",
    "solve_bank_cosesi",
    "var_two_borrowers",
    "tax_policy_check",
    "two_part_supply",
]


class ApplicationError(Exception):
    """Base error for the market applications."""


class NoPositiveEquilibrium(ApplicationError):
    """The two-sided market admits only the trivial all-out equilibrium."""


class RhoZeroUnsupported(ApplicationError, ValueError):
    """Direct-mode Vasicek CDF requires rho > 0; use the uniform limit."""


# ---------------------------------------------------------------------------
# Two-sided market
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoSidedSpec:
    """Search-and-matching market with matching function m = lam * a^v * b^(1-v).

    ``k`` signals per worker about firms, ``n`` signals per firm about
    workers; either may be ``math.inf`` for the consistent large-sample
    limit under MLE.  ``G_w``/``G_f`` default to MLE.
    """

    lam: float
    v: float = 0.5
    k: float = 2
    n: float = 2
    rho_w: float = 0.0
    rho_f: float = 0.0
    G_w: InferenceProcedure = field(default_factory=MLE)
    G_f: InferenceProcedure = field(default_factory=MLE)

    def __post_init__(self) -> None:
        if not 0.0 < self.lam < 1.0:
            raise ApplicationError(f"matching friction lam must be in (0,1), got {self.lam}")
        if not 0.0 < self.v < 1.0:
            raise ApplicationError(f"Cobb-Douglas exponent v must be in (0,1), got {self.v}")
        for name, r in (("rho_w", self.rho_w), ("rho_f", self.rho_f)):
            if not 0.0 <= r <= 1.0:
                raise ApplicationError(f"{name} must be in [0,1], got {r}")
        for name, m in (("k", self.k), ("n", self.n)):
            if not (math.isinf(m) or (m >= 1 and float(m).is_integer())):
                raise ApplicationError(f"sample size {name} must be a positive integer or inf")


@dataclass(frozen=True)
class TwoSidedOutcome:
    alpha_star: float
    beta_star: float
    employment: float
    concept: str


def solve_two_sided(spec: TwoSidedSpec, rational: bool = False) -> TwoSidedOutcome:
    """Unique positive-participation equilibrium of the two-sided market.

    Bisects on beta the composed map beta -> (lam * S_f(alpha*(beta)))^{1/(1+v)}
    with alpha*(beta) = (lam * S_w(beta))^{1/(2-v)}; the trivial (0, 0)
    equilibrium is excluded by the positive bracket, which is why this solve
    is not ``equilibrium._cosesi_root`` on [0, 1].  ``rational`` solves the
    rational-expectations benchmark (NE), the spec with k = n = inf and rho = 0.
    """
    if rational:
        spec = replace(spec, k=math.inf, n=math.inf, rho_w=0.0, rho_f=0.0)
    lam, v = spec.lam, spec.v
    costs_w = expected_costs(spec.G_w, spec.k, lambda b: b ** (1.0 - v))
    costs_f = expected_costs(spec.G_f, spec.n, lambda a: a**v)

    def alpha_of(beta: float) -> float:
        return (lam * costs_w.psi(beta, spec.rho_w)) ** (1.0 / (2.0 - v))

    def res(beta: float) -> float:
        return beta - (lam * costs_f.psi(alpha_of(beta), spec.rho_f)) ** (1.0 / (1.0 + v))

    lo = 1e-12
    f_lo, f_hi = res(lo), res(1.0)
    if f_lo >= 0.0 or f_hi <= 0.0:
        raise NoPositiveEquilibrium(
            "no interior sign change: only the trivial equilibrium exists"
        )
    beta = solve_bracketed(res, Bracket(lo, 1.0, f_lo, f_hi))
    alpha = alpha_of(beta)
    employment = lam * alpha**v * beta ** (1.0 - v)
    concept = "NE" if rational else ("SESI" if spec.rho_w == spec.rho_f == 0.0 else "CoSESI")
    return TwoSidedOutcome(alpha, beta, employment, concept)


@dataclass(frozen=True)
class MixedPopulationOutcome:
    """Employment when a kappa share of workers samples with full correlation.

    ``inequality_factor`` is the multiplicative employment gap lam^(2/7)
    against the correlated group; ``disadvantage_ratio`` is its reciprocal,
    how many times less likely that group is to find a job.
    """

    employment_total: float
    employment_independent: float
    employment_correlated: float
    inequality_factor: float
    disadvantage_ratio: float


def mixed_population_employment(spec: TwoSidedSpec, kappa: float) -> MixedPopulationOutcome:
    """Employment of a population mixing independent and correlated samplers.

    The correlated group solves the market with rho_w = 1, the independent
    group with rho_w = 0 (both at the spec's rho_f); total employment is the
    kappa-weighted average.  At k = n = inf with MLE and v = 1/2 this equals
    (1 - kappa) lam^2 + kappa lam^(16/7).
    """
    if not 0.0 <= kappa <= 1.0:
        raise ApplicationError(f"kappa must be in [0,1], got {kappa}")
    indep = solve_two_sided(replace(spec, rho_w=0.0))
    corr = solve_two_sided(replace(spec, rho_w=1.0))
    total = (1.0 - kappa) * indep.employment + kappa * corr.employment
    factor = corr.employment / indep.employment
    return MixedPopulationOutcome(total, indep.employment, corr.employment, factor, 1.0 / factor)


# ---------------------------------------------------------------------------
# Monopoly pricing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonopolyOutcome:
    price_star: float
    quantity_star: float
    profit_star: float
    demand_curve: tuple[tuple[float, float], ...]
    concept: str


def _demand_curve(
    rho: float, t: float, n: int, G: InferenceProcedure
) -> tuple[Callable[[float], float], Callable[[np.ndarray], list[float]]]:
    """Demand p -> theta(p): root of 1 - theta = sum_y mu_rho(y|theta) min(1+p-C_y, 1),
    and its rows form, the demand at an array of prices by
    ``equilibrium._cosesi_roots``: entry i is ``demand(prices[i])`` bit for bit."""
    costs = expected_costs(G, n, exp_decay_cost(t))

    def demand(p: float) -> float:
        return _cosesi_root(costs.map(lambda v: min(1.0 + p - v, 1.0)), rho)[0]

    def demand_rows(prices: np.ndarray) -> list[float]:
        return _cosesi_roots(costs, rho, lambda v, p: np.minimum(1.0 + p - v, 1.0), prices).tolist()

    return demand, demand_rows


def monopoly_demand(
    p: float, rho: float, t: float = 6.0, n: int = 2, G: InferenceProcedure | None = None
) -> float:
    """Equilibrium demand at price p for uniqueness-loving consumers.

    Consumers perceive the no-encounter probability as exp(-t*theta)
    (correlation neglect fixes rho = 0 in their cost model) while their
    actual encounters follow the rho-mixture law.
    """
    if not 0.0 <= p <= 1.0:
        raise ApplicationError(f"price must be in [0,1], got {p}")
    return _demand_curve(rho, t, n, G or MLE())[0](p)


def monopoly_rational_demand(p: float, t: float = 6.0) -> float:
    """Rational-expectations demand: root of theta = 1 - p - (1 - exp(-t*theta)),
    the n = inf, rho = 0 demand, solved directly: three times faster than the limit."""
    return solve_decreasing(lambda theta: math.exp(-t * theta) - theta - p)


def monopoly_optimize(
    rho: float,
    t: float = 6.0,
    n: int = 2,
    G: InferenceProcedure | None = None,
    price_grid_step: float = 1e-3,
    rational: bool = False,
) -> MonopolyOutcome:
    """Profit-maximizing price over a coarse grid plus golden-section refinement.

    The demand curve sample at the grid prices is included in the outcome.
    For naive consumers it is solved at every grid price at once, in lockstep
    (``equilibrium._cosesi_roots``), and each entry is bit for bit the scalar
    demand at its price, ``monopoly_demand``, which the refinement calls.
    Rational consumers keep one ``monopoly_rational_demand`` per price.
    """
    if price_grid_step > 1e-3:
        raise ApplicationError("price grid step must be <= 1e-3")
    prices = np.arange(0.0, 1.0 + price_grid_step / 2, price_grid_step)
    if rational:
        demand = lambda p: monopoly_rational_demand(p, t)
        quantities = [demand(p) for p in prices.tolist()]
    else:
        demand, demand_rows = _demand_curve(rho, t, n, G or MLE())
        quantities = demand_rows(prices)
    curve = list(zip(prices.tolist(), quantities))
    profits = [p * q for p, q in curve]
    i_best = int(np.argmax(profits))
    lo = curve[max(0, i_best - 1)][0]
    hi = curve[min(len(curve) - 1, i_best + 1)][0]

    # golden-section refinement of p * theta(p) on [lo, hi]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = x1 * demand(x1), x2 * demand(x2)
    while b - a > 1e-7:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = x2 * demand(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = x1 * demand(x1)
    p_star = 0.5 * (a + b)
    q_star = demand(p_star)
    return MonopolyOutcome(
        p_star,
        q_star,
        p_star * q_star,
        tuple(curve),
        "NE" if rational else ("SESI" if rho == 0.0 else "CoSESI"),
    )


# ---------------------------------------------------------------------------
# Financial market
# ---------------------------------------------------------------------------


def vasicek_cdf(
    eta: float, theta: float, omega: float, rho: float, gaussian_omega: bool = False
) -> float:
    """Limiting CDF of a large portfolio's loss fraction.

    Direct mode (fixed obligation omega): Phi((Phi^-1(eta) sqrt(1-rho) -
    omega*theta) / sqrt(rho)), requiring rho > 0.  Gaussian-omega mode
    (obligations drawn N(0, theta^-2)): Phi(Phi^-1(eta) sqrt(1-rho) /
    sqrt(1+rho)), valid for all rho in [0, 1].  Endpoints eta in {0, 1}
    return the limits 0 and 1.
    """
    if not 0.0 <= eta <= 1.0:
        raise ApplicationError(f"loss fraction eta must be in [0,1], got {eta}")
    if eta == 0.0:
        return 0.0
    if eta == 1.0:
        return 1.0
    if gaussian_omega:
        if not 0.0 <= rho <= 1.0:
            raise ApplicationError(f"rho must be in [0,1], got {rho}")
        return norm_cdf(norm_quantile(eta) * math.sqrt((1.0 - rho) / (1.0 + rho)))
    if rho == 0.0:
        raise RhoZeroUnsupported("direct-mode Vasicek CDF needs rho > 0 (uniform limit at 0)")
    if not 0.0 < rho <= 1.0:
        raise ApplicationError(f"rho must be in (0,1], got {rho}")
    arg = (norm_quantile(eta) * math.sqrt(1.0 - rho) - omega * theta) / math.sqrt(rho)
    return norm_cdf(arg)


def default_stats(
    omega: float,
    theta: float,
    rho: float,
    mode: str = "unconditional",
    xi: float | None = None,
) -> float:
    """Borrower default statistics under the single-factor return model.

    ``conditional``  : Phi((omega - xi sqrt(rho)) theta / sqrt(1-rho)), rho < 1.
    ``unconditional``: Phi(omega * theta).
    ``covariance``   : cov(D_i, D_j) in the stable market theta = 1,
                       Phi(w)(1-Phi(w)) - 2 T(w, sqrt((1-rho)/(1+rho))).
    """
    if mode == "conditional":
        if xi is None:
            raise ApplicationError("conditional mode needs the common shock xi")
        if not 0.0 <= rho < 1.0:
            raise ApplicationError(f"conditional mode needs rho in [0,1), got {rho}")
        return norm_cdf((omega - xi * math.sqrt(rho)) * theta / math.sqrt(1.0 - rho))
    if mode == "unconditional":
        return norm_cdf(omega * theta)
    if mode == "covariance":
        if not 0.0 <= rho <= 1.0:
            raise ApplicationError(f"rho must be in [0,1], got {rho}")
        p = norm_cdf(omega)
        return p * (1.0 - p) - 2.0 * owen_t(omega, math.sqrt((1.0 - rho) / (1.0 + rho)))
    raise ApplicationError(f"unknown mode '{mode}'")


@dataclass(frozen=True)
class CreditSpec:
    """Bank market: n signals about peers, cost c of forgone revenue.

    ``omega`` is the borrowers' contractual obligation; ``gaussian_omega``
    switches to obligations drawn N(0, theta^-2).  ``rho`` is both the asset
    correlation and the signal correlation (the dual role of the model).
    The equilibrium loss law is the large-portfolio limit; the finite
    two-borrower case is covered by :func:`var_two_borrowers`.
    """

    omega: float
    rho: float
    n: int
    cost: CostFunction
    G: InferenceProcedure = field(default_factory=MLE)
    gaussian_omega: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.rho <= 1.0:
            raise ApplicationError(f"credit market needs rho in (0,1], got {self.rho}")


@dataclass(frozen=True)
class BankOutcome:
    theta_star: float
    p_star: float
    roots: tuple[float, ...]


def solve_bank_cosesi(spec: CreditSpec) -> BankOutcome:
    """Bank equilibrium: roots of theta = sum_y mu_rho(y|theta) * Lam(C_y, theta).

    Lam is the Vasicek tail mass above the expected shutdown cost, computed
    as the CDF complement 1 - F(C_y) rather than by quadrature of the
    displayed density (identical for rho < 1, and free of the endpoint
    singularity).  The borrower default rate is p* = Phi(omega * theta*).
    A residual within ``SOLVE_TOL`` of 0 at every node of a 0.1 grid is
    taken for a continuum of equilibria and raises :class:`ApplicationError`.
    """
    shutdown_cost = lambda t: min(1.0, max(0.0, spec.cost(1.0 - t)))
    # clamped once more: quadrature may leave [0, 1], where vasicek_cdf is undefined
    costs = expected_costs(spec.G, spec.n, shutdown_cost).map(lambda v: min(1.0, max(0.0, v)))

    def res(theta: float) -> float:
        tail = lambda v: 1.0 - vasicek_cdf(v, theta, spec.omega, spec.rho, spec.gaussian_omega)
        return theta - costs.map(tail).psi(theta, spec.rho)

    if all(abs(res(i / 10)) <= SOLVE_TOL.abs_tol for i in range(11)):
        raise ApplicationError("a continuum of bank equilibria: every theta in [0,1] solves")
    roots, _ = _roots(res, 1e-3)
    if not roots:
        raise ApplicationError("no bank equilibrium found on [0,1]")
    theta_star = roots[0]
    if spec.gaussian_omega:
        p_star = 0.5  # E[Phi(omega*theta)] over omega ~ N(0, theta^-2)
    else:
        p_star = norm_cdf(spec.omega * theta_star)
    return BankOutcome(theta_star, p_star, roots)


def var_two_borrowers(p: float, tau: float, alpha: float) -> float:
    """Value at Risk of the equal-weight two-borrower portfolio loss.

    Piecewise in the confidence level alpha with thresholds
    (1-p)(1-p+tau*p) and 1-p(p+tau(1-p)); returns a loss in {0, 0.5, 1}.
    """
    for name, v in (("p", p), ("tau", tau), ("alpha", alpha)):
        if not 0.0 <= v <= 1.0:
            raise ApplicationError(f"{name} must be in [0,1], got {v}")
    low = (1.0 - p) * (1.0 - p + tau * p)
    high = 1.0 - p * (p + tau * (1.0 - p))
    if alpha <= low:
        return 0.0
    if alpha <= high:
        return 0.5
    return 1.0


# ---------------------------------------------------------------------------
# Tax policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaxOutcome:
    theta_tau: float
    theta_zero: float
    welfare: float
    check_value: float
    recommend_tax: bool


def tax_policy_check(
    c: CostFunction, G: InferenceProcedure, n: int, rho: float, tau: float
) -> TaxOutcome:
    """Equilibrium under a flat tax on the action, with the planner's test.

    The taxed equilibrium solves 1 - theta = sum_y mu_rho(y|theta)
    min(C_{n,y/n} + tau, 1).  Social welfare integrates eta - c(theta) over
    the acting types, a union of intervals [C_y + tau, 1] weighted by the
    count law (``ExpectedCosts.psi`` of the cell welfare, no sampling).
    ``recommend_tax`` is the sign test 1 - c(theta_0) - theta_0 c'(theta_0) < 0
    at the untaxed equilibrium of the supplied DGP.
    """
    if tau < 0.0:
        raise ApplicationError(f"tax must be >= 0, got {tau}")
    costs = expected_costs(G, n, c)
    taxed = costs.map(lambda v: min(v + tau, 1.0))
    theta_tau = _cosesi_root(taxed, rho)[0]
    theta_zero = theta_tau if tau == 0.0 else _cosesi_root(costs.map(lambda v: min(v, 1.0)), rho)[0]
    c_at = c(theta_tau)
    # int_a^1 (eta - c) d eta = (1 - a^2)/2 - c (1 - a), per count cell
    welfare = taxed.map(lambda a: (1.0 - a * a) / 2.0 - c_at * (1.0 - a)).psi(theta_tau, rho)
    check = 1.0 - c(theta_zero) - theta_zero * c.derivative(theta_zero)
    return TaxOutcome(theta_tau, theta_zero, welfare, check, check < 0.0)


# ---------------------------------------------------------------------------
# Two-part supply equilibrium under an industry shock
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupplyShockOutcome:
    theta1: float
    theta2: float
    condition_ok: bool
    delta_curvature: float
    delta_at_root: float


def two_part_supply(c: CostFunction, G: InferenceProcedure, eps: float) -> SupplyShockOutcome:
    """Two-period competitive market with a supply shock of size eps.

    Producers see one signal before the shock (success prob theta) and one
    after (theta + eps) but treat both as draws from the same iid law.  The
    pre-shock equilibrium theta1 solves 1 - theta = sum_l P(S = l) C_{2, l/2}
    with the cross-period product pmf, not a rho-mixture, on the bounds that
    keep both periods in [0, 1]; theta2 = theta1 + eps.

    ``condition_ok`` evaluates the uniqueness condition eps > 2 delta(theta)/Delta
    (reversed for concave costs, degenerate when Delta = 0); roots are
    reported either way.  Raises :class:`ApplicationError` unless |eps| < 1:
    otherwise no theta keeps both periods in [0, 1].
    """
    if not abs(eps) < 1.0:
        raise ApplicationError(f"supply shock needs |eps| < 1, got {eps:g}")
    grid = cost_grid(G, 2, c)
    c0, ch, c1 = float(grid[0]), float(grid[1]), float(grid[2])

    def res(t: float) -> float:
        t2 = t + eps
        p0 = (1.0 - t) * (1.0 - t2)
        p1 = t * (1.0 - t2) + (1.0 - t) * t2
        p2 = t * t2
        return 1.0 - t - (p0 * c0 + p1 * ch + p2 * c1)

    theta1 = solve_decreasing(res, max(0.0, -eps), min(1.0, 1.0 - eps))

    big_delta = c0 - 2.0 * ch + c1
    small_delta = (1.0 - theta1) * c0 + (2.0 * theta1 - 1.0) * ch - theta1 * c1
    if big_delta == 0.0:
        condition_ok = True  # linear expected cost: RHS increasing regardless
    elif big_delta > 0.0:
        condition_ok = eps > 2.0 * small_delta / big_delta
    else:
        condition_ok = eps < 2.0 * small_delta / big_delta
    return SupplyShockOutcome(theta1, theta1 + eps, condition_ok, big_delta, small_delta)
