"""Equilibria of large-population binary-action games under correlation neglect.

Agents estimate the population action share from small, possibly correlated
samples while treating the signals as independent.  The package computes the
resulting sampling equilibria (and their Nash and iid-sampling benchmarks),
the market applications built on them, and Monte Carlo machinery that
validates every analytic fixed point.

``import cosesi`` loads no solver module.  Each exported name, and each
submodule reached as ``cosesi.<module>``, imports its home module on first
access (PEP 562); the name is then cached here, so later lookups are plain
attribute reads.  Each ``cosesi`` subcommand likewise imports only its own
modules.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names the package exports from it
_EXPORTS = {
    "numerics": """Bracket Tolerance find_sign_changes integrate norm_cdf norm_quantile owen_t
        solve_bracketed""",
    "model": """CMB ActionCountPMF AdditiveBinomial BahadurJoint BayesBeta BetaEstimation
        CostFunction IID MLE MarkovShock RhoMixture Sequential action_count_pmf bayes_posterior
        bernstein binom_pmf dgp_variance exp_decay_cost linear_cost mean_limit_variance
        parse_cost power_cost s_shaped_cost weighted_bernstein""",
    "equilibrium": """EquilibriumResult SweepTable cosesi_rho1_closed enumerate_cosesi
        solve_assortative solve_bayesian_cosesi solve_cosesi solve_general_cmb
        solve_heterogeneous solve_ne solve_with_dgp sweep variation_diagnostic""",
    "applications": """BankOutcome CreditSpec MixedPopulationOutcome MonopolyOutcome TaxOutcome
        TwoSidedOutcome TwoSidedSpec default_stats mixed_population_employment monopoly_demand
        monopoly_optimize monopoly_rational_demand solve_bank_cosesi solve_two_sided
        tax_policy_check two_part_supply var_two_borrowers vasicek_cdf""",
    "sampling": """JointPMF SeedableRng asymptotic_action_prob bahadur_joint balance_check
        chi_square_gof informativeness joint_from_conditionals pairwise_correlation
        sample_correlated sequential_sample""",
    "dynamics": """MarkovShockChain McEquilibrium Trajectory mc_population_equilibrium
        simulate_dynamics stationary_rho""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # the submodule itself; importing it binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
