"""Equilibria of large-population binary-action games under correlation neglect.

Agents estimate the population action share from small, possibly correlated
samples while treating the signals as independent.  The package computes the
resulting sampling equilibria (and their Nash and iid-sampling benchmarks),
the market applications built on them, and Monte Carlo machinery that
validates every analytic fixed point.
"""

__version__ = "0.1.0"

from .numerics import (
    Bracket,
    Tolerance,
    find_sign_changes,
    integrate,
    norm_cdf,
    norm_quantile,
    owen_t,
    solve_bracketed,
)
from .model import (
    CMB,
    ActionCountPMF,
    AdditiveBinomial,
    BahadurJoint,
    BayesBeta,
    BetaEstimation,
    CostFunction,
    IID,
    MLE,
    MarkovShock,
    RhoMixture,
    Sequential,
    action_count_pmf,
    bayes_posterior,
    bernstein,
    binom_pmf,
    dgp_variance,
    exp_decay_cost,
    linear_cost,
    mean_limit_variance,
    parse_cost,
    power_cost,
    s_shaped_cost,
    weighted_bernstein,
)
from .equilibrium import (
    EquilibriumResult,
    SweepTable,
    cosesi_rho1_closed,
    enumerate_cosesi,
    solve_assortative,
    solve_bayesian_cosesi,
    solve_cosesi,
    solve_general_cmb,
    solve_heterogeneous,
    solve_ne,
    solve_with_dgp,
    sweep,
    variation_diagnostic,
)
from .applications import (
    BankOutcome,
    CreditSpec,
    MixedPopulationOutcome,
    MonopolyOutcome,
    TaxOutcome,
    TwoSidedOutcome,
    TwoSidedSpec,
    default_stats,
    mixed_population_employment,
    monopoly_demand,
    monopoly_optimize,
    monopoly_rational_demand,
    solve_bank_cosesi,
    solve_two_sided,
    tax_policy_check,
    two_part_supply,
    var_two_borrowers,
    vasicek_cdf,
)
from .sampling import (
    JointPMF,
    SeedableRng,
    asymptotic_action_prob,
    bahadur_joint,
    balance_check,
    chi_square_gof,
    informativeness,
    joint_from_conditionals,
    pairwise_correlation,
    sample_correlated,
    sequential_sample,
)
from .dynamics import (
    MarkovShockChain,
    McEquilibrium,
    Trajectory,
    mc_population_equilibrium,
    simulate_dynamics,
    stationary_rho,
)
