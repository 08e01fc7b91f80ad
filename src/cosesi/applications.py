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
``equilibrium.expected_costs``, mapped cell by cell with ``ExpectedCosts.map``,
and takes Psi at one theta by ``ExpectedCosts.psi`` or at many by
``ExpectedCosts.psi_rows``.  The tax equilibria are solved by
``equilibrium._cosesi_root``; the bank's roots by ``equilibrium._roots`` on
a residual that takes the whole scan in one ``psi_rows`` pass, with each
theta's Vasicek tail as the map of its row.  Monopoly demand has one path:
a curve that solves an array of prices in lockstep by
``numerics.solve_decreasing_rows`` (through ``equilibrium._cosesi_roots``
for naive consumers).  The price search and the one-price demands call it,
and a price's demand does not depend on the other prices.  Two equations
keep a solve of their own (the docstrings say why): the two-sided market and
the supply shock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .numerics import (
    Bracket,
    norm_cdf,
    norm_cdf_array,
    norm_quantile,
    owen_t,
    solve_bracketed,
    solve_decreasing,
    solve_decreasing_rows,
)
from .model import CostFunction, InferenceProcedure, MLE, _check_mixture_rho, _check_n, exp_decay_cost
from .equilibrium import ContinuumOfEquilibria, _cosesi_root, _cosesi_roots, _roots, cost_grid, expected_costs

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


_REFINE_PRICES = 21  # prices of each refinement grid, over the bracket of the best price
_REFINE_WIDTH = 1e-7  # the price search stops once that bracket is no wider than this

_Demand = Callable[[np.ndarray], np.ndarray]  # demand at an array of prices, one lockstep solve


def _demand_curve(rho: float, t: float, n: float, G: InferenceProcedure) -> _Demand:
    """Demand p -> theta(p), the root of 1 - theta = sum_y mu_rho(y|theta)
    min(1+p-C_y, 1), by ``equilibrium._cosesi_roots``."""
    costs = expected_costs(G, n, exp_decay_cost(t))
    return lambda prices: _cosesi_roots(costs, rho, lambda v, p: np.minimum(1.0 + p - v, 1.0), prices)


def _rational_demand_curve(t: float) -> _Demand:
    """Rational-expectations demand, the root of theta = 1 - p - (1 - exp(-t*theta)):
    the n = inf, rho = 0 demand, solved directly (three times faster than the limit)."""
    cost = exp_decay_cost(t)
    return lambda prices: solve_decreasing_rows(lambda x, rows: cost(x) - x - prices[rows], len(prices))


def _one_price(p: float) -> np.ndarray:
    """p as a one-price array; refuses a price outside [0, 1] (nan included)."""
    if not 0.0 <= p <= 1.0:
        raise ApplicationError(f"price must be in [0,1], got {p}")
    return np.array([p])


def monopoly_demand(
    p: float, rho: float, t: float = 6.0, n: int = 2, G: InferenceProcedure | None = None
) -> float:
    """Equilibrium demand at price p for uniqueness-loving consumers.

    Consumers perceive the no-encounter probability as exp(-t*theta)
    (correlation neglect fixes rho = 0 in their cost model) while their
    actual encounters follow the rho-mixture law.  The one-price call of the
    demand curve: a lockstep row does not read the others, so this is the
    curve's entry at p bit for bit.
    """
    prices = _one_price(p)
    return float(_demand_curve(rho, t, n, G or MLE())(prices)[0])


def monopoly_rational_demand(p: float, t: float = 6.0) -> float:
    """Rational-expectations demand at price p, the root of theta = 1 - p -
    (1 - exp(-t*theta)): the one-price call of its curve, as :func:`monopoly_demand`."""
    prices = _one_price(p)
    return float(_rational_demand_curve(t)(prices)[0])


def monopoly_optimize(
    rho: float,
    t: float = 6.0,
    n: int = 2,
    G: InferenceProcedure | None = None,
    rational: bool = False,
) -> MonopolyOutcome:
    """Profit-maximizing price by a grid search on ever finer price grids.

    The demand at the 1e-3 grid of [0, 1] (1 001 prices) is the outcome's
    demand curve.  The best price of a grid (ties go to the first) and its
    two neighbours, clamped to [0, 1], bracket the next grid of 21 equally
    spaced prices, whose ends keep the demand already solved there, until
    that bracket is no wider than 1e-7.  p* is the best price of the last
    grid (1e-8 apart) and q* its demand, so profit* = p* q*.  Where p*q is
    unimodal, p* is within 1e-8 of its maximizer (2.4e-9 from 2 - sqrt(2) at
    rho = 1, t = 6, n = 2); on a flat top the demand's root tolerance leaves
    profit uneven by some 1e-14, which fixes p* only to about 1e-7.  Every
    grid is one lockstep solve of the demand curve, and ``monopoly_demand``
    or ``monopoly_rational_demand`` its one-price call.  rho, t and n are
    checked before any solve, as for naive consumers also where the demand
    is rational and reads t alone.
    """
    _check_mixture_rho(rho)
    if rational:
        if n != math.inf:
            _check_n(n)
        demand = _rational_demand_curve(t)
    else:
        demand = _demand_curve(rho, t, n, G or MLE())
    prices = np.arange(0.0, 1.0 + 5e-4, 1e-3)  # the demand curve's 1e-3 grid, where the search starts
    quantities = demand(prices)
    curve = tuple(zip(prices.tolist(), quantities.tolist()))
    while True:
        best = int(np.argmax(prices * quantities))
        lo, hi = max(0, best - 1), min(len(prices) - 1, best + 1)
        if prices[hi] - prices[lo] <= _REFINE_WIDTH:
            break
        prices = np.linspace(prices[lo], prices[hi], _REFINE_PRICES)
        quantities = np.concatenate(([quantities[lo]], demand(prices[1:-1]), [quantities[hi]]))
    p_star, q_star = float(prices[best]), float(quantities[best])
    return MonopolyOutcome(
        p_star,
        q_star,
        p_star * q_star,
        curve,
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
        if not math.isfinite(self.omega):
            raise ApplicationError(f"credit market needs a finite omega, got {self.omega}")


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
    One residual on arrays of thetas (:func:`_bank_residual`) serves the
    1e-3 scan and the refinement at one theta.  ``equilibrium._roots`` takes
    a residual within 1e-12 of 0 at every node of a 0.1 grid for a
    continuum of equilibria, re-raised here as :class:`ApplicationError`.
    """
    try:
        roots = _roots(_bank_residual(spec), 1e-3)[0]
    except ContinuumOfEquilibria:
        raise ApplicationError("a continuum of bank equilibria: every theta in [0,1] solves") from None
    if not roots:
        raise ApplicationError("no bank equilibrium found on [0,1]")
    theta_star = roots[0]
    if spec.gaussian_omega:
        p_star = 0.5  # E[Phi(omega*theta)] over omega ~ N(0, theta^-2)
    else:
        p_star = norm_cdf(spec.omega * theta_star)
    return BankOutcome(theta_star, p_star, roots)


def _bank_residual(spec: CreditSpec) -> Callable[[np.ndarray], np.ndarray]:
    """theta - sum_y mu_rho(y|theta) * Lam(C_y, theta) on an array of thetas.

    Entry i is bit for bit the residual of one theta, ``theta - psi(theta,
    rho)`` of the clamped costs mapped by ``v -> 1 - vasicek_cdf(v, theta,
    ...)``: the same float operations, with norm_quantile(C_y) times its
    square-root factor mapped once per cost cell (``ExpectedCosts.map``) and
    the normal CDF by ``numerics.norm_cdf_array``.  The costs 0 and 1 map to
    the quantiles -inf and inf, not scaled (at rho = 1 the scale is 0, and
    0 * inf is nan), so their tails are exactly vasicek_cdf's 1 and 0.  The
    tail of each theta is the ``f`` of ``ExpectedCosts.psi_rows``; under
    Gaussian obligations it does not depend on theta, and one mapped grid
    serves every theta.
    """
    shutdown_cost = lambda t: np.clip(spec.cost(1.0 - t), 0.0, 1.0)
    omega, rho, gaussian = spec.omega, spec.rho, spec.gaussian_omega
    scale = math.sqrt((1.0 - rho) / (1.0 + rho)) if gaussian else math.sqrt(1.0 - rho)

    def quantile(eta: float) -> float:
        eta = min(1.0, max(0.0, eta))  # quadrature may leave [0, 1], where vasicek_cdf is undefined
        if 0.0 < eta < 1.0:
            return norm_quantile(eta) * scale
        return -math.inf if eta == 0.0 else math.inf

    qs = expected_costs(spec.G, spec.n, shutdown_cost).map(quantile)
    if gaussian:
        tails = qs.map(lambda q: 1.0 - norm_cdf_array(q))
        return lambda thetas: thetas - tails.psi_rows(thetas, rho)
    tail = lambda q, theta: 1.0 - norm_cdf_array((q - omega * theta) / math.sqrt(rho))
    return lambda thetas: thetas - qs.psi_rows(thetas, rho, tail, thetas)


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
    if not tau >= 0.0:
        raise ApplicationError(f"tax must be >= 0, got {tau}")
    costs = expected_costs(G, n, c)
    taxed = costs.map(lambda v: np.minimum(v + tau, 1.0))
    theta_tau = _cosesi_root(taxed, rho)[0]
    theta_zero = theta_tau if tau == 0.0 else _cosesi_root(costs.map(lambda v: np.minimum(v, 1.0)), rho)[0]
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
