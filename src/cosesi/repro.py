"""Reproduction table for every analytic example the package targets.

Each row compares a solver output against its target value and tolerance.
Targets tagged as derived come from stated independent oracles (quadratic or
cubic formulas, closed-form identities); a handful of rows additionally
carry the loosely rounded source values.  Three source narrations are
internally inconsistent with their own displayed equations (the tax example,
the two-borrower VaR story, and the matching-market inequality ratio); those
rows report both numbers and pass with a note instead of being forced.  Two
smaller numeric slips (the rational monopoly price on a flat profit curve
and one cell of the Beta-vs-MLE table) are handled the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MLE, BetaEstimation, RhoMixture, linear_cost, power_cost, action_count_pmf
from .equilibrium import (
    solve_assortative,
    solve_cosesi,
    solve_general_cmb,
    solve_heterogeneous,
    solve_ne,
)
from .applications import (
    TwoSidedSpec,
    default_stats,
    mixed_population_employment,
    monopoly_optimize,
    solve_two_sided,
    tax_policy_check,
    var_two_borrowers,
    vasicek_cdf,
)
from .dynamics import MarkovShockChain, simulate_dynamics
from .sampling import informativeness
from .numerics import norm_cdf, owen_t

__all__ = ["ReproRow", "run_repro", "format_table"]


@dataclass(frozen=True)
class ReproRow:
    name: str
    expected: float
    computed: float
    tol: float
    status: str
    note: str = ""

    @property
    def err(self) -> float:
        return abs(self.computed - self.expected)


def _row(name: str, expected: float, computed: float, tol: float, note: str = "") -> ReproRow:
    err = abs(computed - expected)
    if note:
        status = "PASS-WITH-NOTE" if err <= tol else "FAIL"
    else:
        status = "PASS" if err <= tol else "FAIL"
    return ReproRow(name, expected, computed, tol, status, note)


def _bound_row(name: str, bound: float, computed: float, note: str = "") -> ReproRow:
    ok = computed <= bound
    status = ("PASS-WITH-NOTE" if note else "PASS") if ok else "FAIL"
    return ReproRow(name, bound, computed, bound, status, note or "upper bound")


def run_repro() -> list[ReproRow]:
    """Run the full example suite and return one row per check."""
    rows: list[ReproRow] = []
    mle = MLE()
    beta_est = BetaEstimation()
    pow3, pow4 = power_cost(3), power_cost(4)

    # -- baseline equilibrium examples -------------------------------------
    t_mle0 = (-9.0 + math.sqrt(305.0)) / 14.0
    t_beta0 = (-7.0 + math.sqrt(109.0)) / 6.0
    t_mle5 = (-25.0 + math.sqrt(1073.0)) / 14.0
    t_beta5 = (-17.0 + math.sqrt(409.0)) / 6.0

    got = solve_cosesi(pow4, mle, 2, 0.0).theta
    rows.append(_row("cosesi pow4 mle n=2 rho=0 (quadratic root)", t_mle0, got, 1e-6))
    rows.append(_row("  same, source-rounded 0.6", 0.6, got, 5e-3))
    rows.append(_row("cosesi pow4 mle n=2 rho=1", 0.5, solve_cosesi(pow4, mle, 2, 1.0).theta, 1e-9))

    ne3 = float(np.roots([1.0, 0.0, 1.0, -1.0])[-1].real)
    rows.append(_row("ne pow3 (cubic root)", ne3, solve_ne(pow3).theta, 1e-6))
    sesi3 = float(np.roots([2.0, 6.0, 10.0, -9.0])[-1].real)
    got = solve_cosesi(pow3, mle, 3, 0.0).theta
    rows.append(_row("sesi pow3 n=3 (cubic root)", sesi3, got, 1e-6))
    rows.append(_row("  same, source-rounded 0.621", 0.621, got, 5e-4))
    worst = max(abs(solve_cosesi(pow3, mle, n, 1.0).theta - 0.5) for n in (2, 10, 100))
    rows.append(_row("cosesi pow3 rho=1, all n (persistence)", 0.0, worst, 1e-9))

    # -- Beta estimation vs MLE table --------------------------------------
    got = solve_cosesi(pow4, beta_est, 2, 0.0).theta
    rows.append(_row("table beta rho=0 (quadratic root)", t_beta0, got, 1e-6))
    rows.append(_row("  same, source-rounded 0.57", 0.57, got, 5e-3))
    got = solve_cosesi(pow4, mle, 2, 0.5).theta
    rows.append(_row("table mle rho=0.5 (quadratic root)", t_mle5, got, 1e-6))
    rows.append(_row("  same, source-rounded 0.55", 0.55, got, 5e-3))
    got = solve_cosesi(pow4, beta_est, 2, 0.5).theta
    rows.append(_row("table beta rho=0.5 (quadratic root)", t_beta5, got, 1e-6))
    rows.append(
        _row(
            "  same, source-rounded 0.53",
            0.53,
            got,
            8e-3,
            note=f"source rounds to 0.53; its own quadratic 3t^2+17t-10 has root {t_beta5:.6f}",
        )
    )
    rows.append(_row("table both rho=1", 0.5, solve_cosesi(pow4, beta_est, 2, 1.0).theta, 1e-9))

    # -- assortative closed form --------------------------------------------
    def assort_target(n: int) -> float:
        return (5.0 - 1.0 / n - math.sqrt(1.0 / n**2 - 2.0 / n + 17.0)) / (2.0 * (1.0 - 1.0 / n))

    rho_fn = lambda eta: eta
    rows.append(_row("assortative n=1", 0.5, solve_assortative(linear_cost(), mle, 1, rho_fn).theta, 1e-9))
    rows.append(
        _row("assortative n=10 (closed form)", assort_target(10), solve_assortative(linear_cost(), mle, 10, rho_fn).theta, 1e-9)
    )
    rows.append(
        _row(
            "assortative n=1e6 vs limit (5-sqrt(17))/2",
            (5.0 - math.sqrt(17.0)) / 2.0,
            solve_assortative(linear_cost(), mle, 10**6, rho_fn).theta,
            1e-3,
        )
    )

    # -- two-sided market -----------------------------------------------------
    lam = 0.3
    ne = solve_two_sided(TwoSidedSpec(lam=lam), rational=True)
    worst = max(abs(ne.alpha_star - lam), abs(ne.beta_star - lam), abs(ne.employment - lam**2))
    rows.append(_row("market NE (lam, lam, lam^2)", 0.0, worst, 1e-8))
    co = solve_two_sided(TwoSidedSpec(lam=lam, rho_w=1.0, rho_f=1.0))
    worst = max(abs(co.alpha_star - lam**2), abs(co.beta_star - lam**2), abs(co.employment - lam**3))
    rows.append(_row("market rho=1 (lam^2, lam^2, lam^3)", 0.0, worst, 1e-8))

    lam = 0.1
    kappa = 0.4
    mixed = mixed_population_employment(TwoSidedSpec(lam=lam, k=math.inf, n=math.inf), kappa)
    formula = (1.0 - kappa) * lam**2 + kappa * lam ** (16.0 / 7.0)
    rows.append(_row("mixed-population employment formula", formula, mixed.employment_total, 1e-9))
    rows.append(_row("inequality factor lam^(2/7)", lam ** (2.0 / 7.0), mixed.inequality_factor, 1e-9))
    rows.append(
        _row(
            "inequality disadvantage ratio",
            lam ** (-2.0 / 7.0),
            mixed.disadvantage_ratio,
            1e-9,
            note=f"source narrates 'nearly three times'; the exponent arithmetic gives {lam ** (-2.0 / 7.0):.4f}",
        )
    )

    # -- monopoly --------------------------------------------------------------
    rat = monopoly_optimize(rho=0.0, t=6.0, n=2, rational=True)
    rows.append(_row("monopoly rational quantity", 0.10, rat.quantity_star, 5e-3))
    rows.append(_row("monopoly rational profit", 0.045, rat.profit_star, 5e-3))
    rows.append(
        _row(
            "monopoly rational price",
            0.449,
            rat.price_star,
            1.5e-2,
            note="source reports 0.449 at the rounded quantity 0.1; the profit curve is flat and "
            f"the exact argmax is {rat.price_star:.4f} (profit gap < 5e-5)",
        )
    )
    mono = monopoly_optimize(rho=1.0, t=6.0, n=2)
    rows.append(_row("monopoly rho=1 price (2-sqrt2)", 2.0 - math.sqrt(2.0), mono.price_star, 5e-3))
    rows.append(_row("monopoly rho=1 quantity", 1.0 - 1.0 / math.sqrt(2.0), mono.quantity_star, 5e-3))
    rows.append(_row("monopoly rho=1 profit (3-2sqrt2)", 3.0 - 2.0 * math.sqrt(2.0), mono.profit_star, 5e-3))
    rows.append(_bound_row("monopoly profit ratio >= 3 (neg check)", -3.0, -mono.profit_star / rat.profit_star))

    # -- financial market -------------------------------------------------------
    omega = 0.7
    rows.append(_row("owen T(h, 0) = 0", 0.0, owen_t(omega, 0.0), 1e-14))
    rows.append(_row("default covariance rho=0", 0.0, default_stats(omega, 1.0, 0.0, "covariance"), 1e-10))
    pw = norm_cdf(omega)
    rows.append(
        _row("default covariance rho=1", pw * (1.0 - pw), default_stats(omega, 1.0, 1.0, "covariance"), 1e-10)
    )
    worst = max(
        abs(vasicek_cdf(d / 10.0, 0.5, 0.0, 1e-12, gaussian_omega=True) - d / 10.0) for d in range(1, 10)
    )
    rows.append(_row("gaussian-omega vasicek uniform at deciles", 0.0, worst, 1e-6))

    rows.append(_row("VaR p=.05 tau=0 a=.95", 0.5, var_two_borrowers(0.05, 0.0, 0.95), 0.0))
    rows.append(
        _row(
            "VaR p=.05 tau=0.9 a=.95",
            0.5,
            var_two_borrowers(0.05, 0.9, 0.95),
            0.0,
            note="source narrates 'prepare for 100% loss'; its displayed thresholds "
            "(0.94525, 0.95475) put alpha=0.95 in the 50%-loss branch",
        )
    )

    # -- tax policy --------------------------------------------------------------
    pow2 = power_cost(2)
    tax0 = tax_policy_check(pow2, mle, 2, 0.0, 0.0)
    target = (-3.0 + math.sqrt(17.0)) / 2.0
    rows.append(_row("tax SESI root (quadratic)", target, tax0.theta_zero, 1e-6))
    rows.append(
        _row(
            "tax SESI vs source narration",
            0.58,
            tax0.theta_zero,
            2.5e-2,
            note=f"source narrates 0.58 and check -0.0092; the stated equation has root {target:.4f} "
            f"with check value {tax0.check_value:+.4f} (sign flips, no tax recommended)",
        )
    )
    tax1 = tax_policy_check(pow2, mle, 2, 1.0, 0.0)
    rows.append(_row("tax rho=1 equilibrium", 0.5, tax1.theta_tau, 1e-9))
    rows.append(_row("tax rho=1 check value", 0.25, tax1.check_value, 1e-9))
    rows.append(_bound_row("tax rho=1 recommends no tax", 0.0, float(tax1.recommend_tax)))

    # -- informativeness and general counts ---------------------------------------
    psi = informativeness(200, action_count_pmf(RhoMixture(1.0), 200, 0.3), 0.3)
    rows.append(_bound_row("informativeness rho=1 n=200 below 0.02", 0.02, psi))
    sesi = solve_cosesi(pow2, mle, 4, 0.0).theta
    cmb1 = solve_general_cmb(pow2, mle, 4, 1.0).roots[0]
    rows.append(_row("CMB nu=1 reproduces SESI", sesi, cmb1, 1e-9))
    mix = solve_heterogeneous([(0.5, mle, 2), (0.5, mle, 5)], pow4, 0.0).theta
    lo, hi = sorted(solve_cosesi(pow4, mle, n, 0.0).theta for n in (2, 5))
    rows.append(_bound_row("heterogeneous mix inside pure SESIs", hi, mix))
    rows.append(_bound_row("  lower side (neg check)", -lo, -mix))

    # -- dynamics -------------------------------------------------------------------
    traj = simulate_dynamics(pow4, mle, 2, MarkovShockChain(0.0, 0.5), 0.1, 0.9, 0.0, 500)
    rows.append(_row("dynamics steady state pow4 n=2 rho*=0", t_mle0, traj.final_theta(), 1e-4))

    return rows


def format_table(rows: list[ReproRow]) -> str:
    """Fixed-width text table with one line per check."""
    name_w = max(len(r.name) for r in rows)
    lines = [
        f"{'check':<{name_w}}  {'expected':>12}  {'computed':>12}  {'|err|':>9}  {'tol':>8}  status",
        "-" * (name_w + 60),
    ]
    for r in rows:
        lines.append(
            f"{r.name:<{name_w}}  {r.expected:>12.6g}  {r.computed:>12.6g}  "
            f"{r.err:>9.2e}  {r.tol:>8.1e}  {r.status}"
        )
        if r.note:
            lines.append(f"{'':<{name_w}}  note: {r.note}")
    n_fail = sum(r.status == "FAIL" for r in rows)
    n_note = sum(r.status == "PASS-WITH-NOTE" for r in rows)
    lines.append("-" * (name_w + 60))
    lines.append(f"{len(rows)} checks: {len(rows) - n_fail - n_note} pass, {n_note} pass-with-note, {n_fail} fail")
    return "\n".join(lines)
