"""Workload instances drawn from a seed, and the checks on their outputs.

Every instance calls one public entry point of ``cosesi`` through the package
namespace, looked up at call time, so that a traced pass sees the wrapped
functions.  Parameters are drawn in strata (one draw per equal-width slice of
each range) so that the total work of a pass barely depends on the seed.

Checks recompute each returned root's residual from the public
``cost_grid`` and ``action_count_pmf`` (or the closed form the solver does not
use) and require |residual| <= 1e-9 with a sign change or an exact zero at
the root.  On polynomial laws with small n the number of roots is compared
with ``numpy.polynomial`` roots of the residual in the power basis.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

RESIDUAL_TOL = 1e-9
SIGN_STEP = 1e-7
POLY_MAX_N = 16

WORKLOAD_CODES = {"unique": 1, "multiroot": 2, "market": 3, "cli": 4}


@dataclass
class Instance:
    """One timed call: ``entry`` names the layer and function it enters."""

    entry: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    label: str


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_CODES[workload]])


def strata(rng, k, lo, hi):
    """k draws, one in the middle half of each of k equal slices of [lo, hi], shuffled."""
    u = (np.arange(k) + 0.25 + 0.5 * rng.random(k)) / k
    return [float(v) for v in rng.permutation(lo + (hi - lo) * u)]


def shape_strata(rng, k):
    """Beta shape parameters in [0.5, 1] and [1.5, 4], one per slice of the
    joined range.  Shapes in (1, 1.5) can put an endpoint cusp in a posterior
    integrand, which the fixed ``DEFECT`` instances cover once per pass."""
    return [v if v <= 1.0 else v + 0.5 for v in strata(rng, k, 0.5, 3.5)]


def log_int_strata(rng, k, lo, hi):
    return [int(round(math.exp(v))) for v in strata(rng, k, math.log(lo), math.log(hi))]


def fingerprint(obj):
    """Hashable, exactly comparable summary of a result or an exception."""
    if isinstance(obj, BaseException):
        return ("error", type(obj).__name__, str(obj))
    if dataclasses.is_dataclass(obj):
        return tuple(fingerprint(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, np.ndarray):
        return tuple(obj.ravel().tolist())
    if isinstance(obj, (list, tuple)):
        return tuple(fingerprint(v) for v in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, repr(v)) for k, v in obj.items()))
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


# ---------------------------------------------------------------------------
# residual checks
# ---------------------------------------------------------------------------


def root_errors(label, resid, theta, lo=0.0, hi=1.0):
    """|resid(theta)| <= 1e-9 with a sign change or an exact zero at theta."""
    theta = float(theta)
    if not lo <= theta <= hi:
        return [f"{label}: root {theta!r} outside [{lo}, {hi}]"]
    r = resid(theta)
    if not abs(r) <= RESIDUAL_TOL:
        return [f"{label}: residual {r:.3e} at root {theta!r}"]
    if r == 0.0:
        return []
    a, b = max(lo, theta - SIGN_STEP), min(hi, theta + SIGN_STEP)
    ra, rb = resid(a), resid(b)
    if ra == 0.0 or rb == 0.0 or (ra < 0.0) != (rb < 0.0):
        return []
    return [f"{label}: no sign change around root {theta!r} ({ra:.3e}, {rb:.3e})"]


def boundary_or_root_errors(label, resid, theta, lo=0.0, hi=1.0):
    """Solvers that clamp: a root inside, or an endpoint where the residual
    already has the sign that rules out an interior root."""
    if theta == lo and resid(lo) <= 0.0:
        return []
    if theta == hi and resid(hi) >= 0.0:
        return []
    return root_errors(label, resid, theta, lo, hi)


def rising_boundary_or_root_errors(label, resid, theta, lo=0.0, hi=1.0):
    """As above for residuals that increase in theta."""
    if theta == lo and resid(lo) >= 0.0:
        return []
    if theta == hi and resid(hi) <= 0.0:
        return []
    return root_errors(label, resid, theta, lo, hi)


def power_basis(coeffs):
    """Power-basis coefficients of sum_y r_y C(n,y) t^y (1-t)^(n-y)."""
    P = np.polynomial.polynomial
    n = len(coeffs) - 1
    out = np.zeros(n + 1)
    for y, r in enumerate(coeffs):
        term = P.polypow([1.0, -1.0], n - y) * (math.comb(n, y) * r)
        out[y : y + len(term)] += term
    return out


def poly_roots_01(bernstein_coeffs):
    P = np.polynomial.polynomial
    coeffs = power_basis(bernstein_coeffs)
    # affine costs give a lower-degree residual; drop its rounding-level top terms
    roots = P.polyroots(P.polytrim(coeffs, 1e-12 * np.abs(coeffs).max()))
    real = sorted(
        float(r.real) for r in roots if abs(r.imag) <= 1e-6 and -1e-9 <= r.real <= 1.0 + 1e-9
    )
    dedup: list[float] = []
    for r in real:
        if not dedup or r - dedup[-1] > 1e-6:
            dedup.append(r)
    return dedup


def root_count_errors(label, found, bernstein_coeffs):
    expected = poly_roots_01(bernstein_coeffs)
    errors = []
    if len(found) != len(expected):
        errors.append(f"{label}: {len(found)} roots found, power-basis polynomial has {len(expected)}")
    for r in found:
        if not expected or min(abs(r - e) for e in expected) > 1e-6:
            errors.append(f"{label}: root {r!r} is not a root of the power-basis polynomial")
    return errors


def mixture_coeffs(grid, rho, benefit=False):
    """Bernstein coefficients of the rho-mixture residual.

    Cost form: 1 - t - Psi(t); benefit form (enumerate): t - Psi(t).
    """
    n = len(grid) - 1
    z = np.arange(n + 1) / n
    lhs = z if benefit else 1.0 - z
    return lhs - (1.0 - rho) * grid - rho * (grid[0] + z * (grid[-1] - grid[0]))


# ---------------------------------------------------------------------------
# cost draws
# ---------------------------------------------------------------------------


def cost_spec(rng, kind):
    if kind == "pow":
        return f"pow:{rng.uniform(0.5, 5.0)!r}"
    if kind == "linear":
        return "linear"
    if kind == "exp":
        return f"exp:{rng.uniform(1.0, 8.0)!r}"
    a = rng.uniform(0.0, 0.4)
    return f"affine:{a!r},{rng.uniform(0.2, 1.0 - a)!r}"


COST_KINDS = ("pow", "linear", "exp", "affine")


def cost_cycle(rng, k, kinds=COST_KINDS):
    return [cost_spec(rng, kinds[i % len(kinds)]) for i in rng.permutation(k)]


# ---------------------------------------------------------------------------
# unique: unique-root solves
# ---------------------------------------------------------------------------


def build_unique(C, seed):
    """Unique-root CoSESI solves across costs, inference procedures, n and rho."""
    from cosesi.equilibrium import cost_grid

    rng = rng_for("unique", seed)
    out: list[Instance] = []

    def mixture_resid(G, n, c, rho):
        grid = cost_grid(G, n, c)
        law = C.RhoMixture(rho)
        return lambda t: 1.0 - t - float(C.action_count_pmf(law, n, t).probs @ grid)

    def cosesi_instance(label, spec, G, n, rho):
        c = C.parse_cost(spec)

        def check(res):
            return root_errors(label, mixture_resid(G, n, c, rho), res.theta_star)

        out.append(Instance("equilibrium.solve_cosesi",
                            lambda: C.solve_cosesi(c, G, n, rho), check, label))

    # MLE over n log-spread on [2, 1e4]
    k = 96
    for spec, n, rho in zip(cost_cycle(rng, k), log_int_strata(rng, k, 2, 10_000), strata(rng, k, 0.0, 1.0)):
        cosesi_instance(f"cosesi mle {spec} n={n} rho={rho:.4f}", spec, C.MLE(), n, rho)
    # quadrature-based inference, n up to 200
    k = 30
    for spec, n, rho in zip(cost_cycle(rng, k), log_int_strata(rng, k, 2, 200), strata(rng, k, 0.0, 1.0)):
        cosesi_instance(f"cosesi beta {spec} n={n} rho={rho:.4f}", spec, C.BetaEstimation(), n, rho)
    k = 29
    for spec, n, rho, a, b, zeta in zip(
        cost_cycle(rng, k), log_int_strata(rng, k, 2, 200), strata(rng, k, 0.0, 1.0),
        shape_strata(rng, k), shape_strata(rng, k), strata(rng, k, 0.0, 1.0),
    ):
        G = C.BayesBeta(a, b, 0.0, zeta)
        cosesi_instance(f"cosesi bayes({a:.3f},{b:.3f},zeta={zeta:.3f}) {spec} n={n} rho={rho:.4f}",
                        spec, G, n, rho)
    # documented defect: integrate raises MaxIterExceeded on the endpoint cusp
    # of a posterior whose prior shape is just above 1
    cosesi_instance("defect: cosesi bayes(1.25,0.93,zeta=0.42) exp:3.8 n=2 rho=0.08",
                    "exp:3.8", C.BayesBeta(1.25, 0.93, 0.0, 0.42), 2, 0.08)

    # comparative-statics sweeps along rho and along n
    k = 8
    for i, (spec, n) in enumerate(zip(cost_cycle(rng, k), log_int_strata(rng, k, 2, 1000))):
        values = sorted(strata(rng, 5, 0.0, 1.0))
        c = C.parse_cost(spec)
        G = C.MLE() if i % 2 else C.BetaEstimation()
        n = n if i % 2 else min(n, 50)
        label = f"sweep rho {spec} {G.kind} n={n}"

        def check(table, c=c, G=G, n=n, label=label):
            errs = []
            for v, th in table.rows:
                errs += root_errors(f"{label} rho={v}", mixture_resid(G, n, c, v), th)
            return errs

        out.append(Instance("equilibrium.sweep",
                            lambda c=c, G=G, n=n, values=values: C.sweep("rho", values, c, G, n=n), check, label))
    for spec, rho in zip(cost_cycle(rng, k), strata(rng, k, 0.0, 1.0)):
        values = sorted(set(log_int_strata(rng, 4, 2, 500)))
        c = C.parse_cost(spec)
        label = f"sweep n {spec} rho={rho:.4f} values={values}"

        def check(table, c=c, rho=rho, label=label):
            errs = []
            for v, th in table.rows:
                errs += root_errors(f"{label} n={v}", mixture_resid(C.MLE(), int(v), c, rho), th)
            return errs

        out.append(Instance("equilibrium.sweep",
                            lambda c=c, rho=rho, values=values: C.sweep("n", values, c, C.MLE(), rho=rho),
                            check, label))

    # heterogeneous populations
    k = 16
    for i, (spec, rho) in enumerate(zip(cost_cycle(rng, k), strata(rng, k, 0.0, 1.0))):
        groups = 2 + i % 2
        weights = rng.dirichlet(np.ones(groups))
        weights[-1] = 1.0 - weights[:-1].sum()
        specs = []
        for j, w in enumerate(weights):  # inference alternates so each pass has the same mix
            if (i + j) % 2:
                specs.append((float(w), C.MLE(), log_int_strata(rng, 1, 2, 2000)[0]))
            else:
                specs.append((float(w), C.BetaEstimation(), log_int_strata(rng, 1, 2, 50)[0]))
        c = C.parse_cost(spec)
        label = f"hetero {spec} rho={rho:.4f} " + ",".join(f"{w:.3f}:{G.kind}:{n}" for w, G, n in specs)

        def check(res, c=c, specs=specs, rho=rho, label=label):
            parts = [(w, n, cost_grid(G, n, c)) for w, G, n in specs]
            law = C.RhoMixture(rho)

            def resid(t):
                return 1.0 - t - sum(w * float(C.action_count_pmf(law, n, t).probs @ g) for w, n, g in parts)

            return root_errors(label, resid, res.theta_star)

        out.append(Instance("equilibrium.solve_heterogeneous",
                            lambda c=c, specs=specs, rho=rho: C.solve_heterogeneous(specs, c, rho), check, label))

    # assortative matching with closed-form integrals L(C) = int_C^1 rho(eta) d eta;
    # each solve runs n + 1 quadratures of rho to 1e-13, which are costly for
    # the power family, so its n stays small and no instance dominates a pass
    sizes = sorted(log_int_strata(rng, k, 2, 60))
    power_sizes = log_int_strata(rng, k, 2, 12)
    items = []
    for i, spec in enumerate(cost_cycle(rng, k)):
        n = sizes[i]
        if i % 3 == 0:
            fname, fn, integral = "identity", lambda e: e, lambda h: (1.0 - h * h) / 2.0
        elif i % 3 == 1:
            v = float(rng.uniform(0.0, 1.0))
            fname, fn, integral = f"const:{v:.4f}", lambda e, v=v: v, lambda h, v=v: v * (1.0 - h)
        else:  # exponents below 1 put a cusp at 0; the defect instance below has one
            p = float(rng.uniform(1.0, 4.0))
            n = power_sizes[i]
            fname, fn = f"power:{p:.4f}", lambda e, p=p: e**p
            integral = lambda h, p=p: (1.0 - h ** (p + 1.0)) / (p + 1.0)
        items.append(("", spec, C.MLE() if i % 2 else C.BetaEstimation(), n, fname, fn, integral))
    # documented defect: integrate raises MaxIterExceeded on the cusp of
    # rho(eta) = eta^0.5 at 0 when c(0) = 0
    items.append(("defect: ", "pow:3", C.BetaEstimation(), 6, "power:0.5", lambda e: e**0.5,
                  lambda h: (1.0 - h**1.5) / 1.5))
    for prefix, spec, G, n, fname, fn, integral in items:
        c = C.parse_cost(spec)
        label = f"{prefix}assortative {spec} {G.kind} n={n} rho_fn={fname}"

        def check(res, c=c, G=G, n=n, integral=integral, label=label):
            grid = cost_grid(G, n, c)
            lam = np.array([integral(min(1.0, max(v, 0.0))) for v in grid])
            iid = C.IID()

            def resid(t):
                b = C.action_count_pmf(iid, n, t).probs
                return 1.0 - t - (float(b @ grid) + float(b @ lam) - (t * lam[-1] + (1.0 - t) * lam[0]))

            return root_errors(label, resid, res.theta_star)

        out.append(Instance("equilibrium.solve_assortative",
                            lambda c=c, G=G, n=n, fn=fn: C.solve_assortative(c, G, n, fn), check, label))

    # Bayesian CoSESI with partial neglect, rho in {0, 1}
    items = [("", spec, n, a, b, float(i % 2), zeta) for i, (spec, n, a, b, zeta) in enumerate(zip(
        cost_cycle(rng, k), log_int_strata(rng, k, 2, 200), shape_strata(rng, k),
        shape_strata(rng, k), strata(rng, k, 0.0, 1.0),
    ))]
    # documented defect: a prior shape just above 1 gives an endpoint cusp
    items.append(("defect: ", "exp:4.67", 7, 1.24, 1.66, 0.0, 0.97))
    for prefix, spec, n, a, b, rho, zeta in items:
        c = C.parse_cost(spec)
        label = f"{prefix}bayes cosesi {spec} prior=({a:.3f},{b:.3f}) n={n} rho={rho:g} zeta={zeta:.3f}"

        def check(res, c=c, n=n, a=a, b=b, rho=rho, zeta=zeta, label=label):
            naive = cost_grid(C.BayesBeta(a, b, 0.0, 1.0), n, c)
            if rho == 0.0:
                iid = C.IID()

                def resid(t):
                    return 1.0 - t - float(C.action_count_pmf(iid, n, t).probs @ naive)
            else:
                aware = C.BayesBeta(a, b, 1.0, 0.0)
                a0, a1 = aware.expected_cost(n, 0.0, c), aware.expected_cost(n, 1.0, c)

                def resid(t):
                    mixed = zeta * (t * naive[-1] + (1.0 - t) * naive[0]) + (1.0 - zeta) * (
                        t * a1 + (1.0 - t) * a0)
                    return 1.0 - t - mixed

            return root_errors(label, resid, res.theta_star)

        out.append(Instance("equilibrium.solve_bayesian_cosesi",
                            lambda c=c, n=n, a=a, b=b, rho=rho, zeta=zeta:
                            C.solve_bayesian_cosesi(c, (a, b), n, rho, zeta), check, label))
    return out


# ---------------------------------------------------------------------------
# multiroot: scanned laws and S-shaped enumeration
# ---------------------------------------------------------------------------


def sshape_spec(rng):
    lo, hi = rng.uniform(0.02, 0.1), rng.uniform(0.9, 0.98)
    return f"sshape:{lo!r},{hi!r},{rng.uniform(12.0, 30.0)!r},{rng.uniform(0.4, 0.6)!r}"


def build_multiroot(C, seed):
    """solve_with_dgp over every count law, plus enumerate_cosesi on S-shapes."""
    from cosesi.equilibrium import cost_grid

    rng = rng_for("multiroot", seed)
    out: list[Instance] = []
    mle = C.MLE()
    dgp_cost_kinds = ("pow", "linear", "affine", "sshape")

    def dgp_cost(i):
        kind = dgp_cost_kinds[i % len(dgp_cost_kinds)]
        return sshape_spec(rng) if kind == "sshape" else cost_spec(rng, kind)

    # one law per family so that the work of a pass does not depend on the
    # seed; each solve scans 10 001 points and takes a few hundred ms, so a
    # pass stays short enough to be repeated several times in a run
    laws = []
    for nu, n in zip(strata(rng, 2, -1.5, 3.0), log_int_strata(rng, 2, 2, 30)):
        laws.append((C.CMB(float(nu)), n, False))
    for nu, n in zip((-math.inf, math.inf), log_int_strata(rng, 2, 2, 30)):
        laws.append((C.CMB(nu), n, False))
    # cost grows as n^2, so n is fixed
    laws.append((C.Sequential(tuple(float(v) for v in rng.uniform(0.0, 0.8, 2))), 3, False))
    laws.append((C.RhoMixture(float(rng.uniform(0.0, 1.0))), log_int_strata(rng, 1, 2, 12)[0], True))
    p, q = (float(v) for v in rng.uniform(0.05, 0.95, 2))
    laws.append((C.MarkovShock(p, q), log_int_strata(rng, 1, 2, 12)[0], True))
    laws.append((C.BahadurJoint((float(rng.uniform(0.0, 0.9)),)), 2, False))
    # documented defect: the scan evaluates theta = 0, where the law is inadmissible
    laws.append((C.AdditiveBinomial(float(rng.uniform(-0.05, 0.1))), log_int_strata(rng, 1, 2, 12)[0], False))

    for i, j in enumerate(rng.permutation(len(laws))):
        dgp, n, polynomial = laws[j]
        spec = dgp_cost(i)
        c = C.parse_cost(spec)
        label = f"dgp {dgp!r} {spec} n={n}"

        def check(res, c=c, dgp=dgp, n=n, polynomial=polynomial, label=label):
            grid = cost_grid(mle, n, c)

            def resid(t):
                return 1.0 - t - float(C.action_count_pmf(dgp, n, t).probs @ grid)

            roots = res.roots
            if not roots:
                return [f"{label}: no root reported"]
            errs = []
            if list(roots) != sorted(roots):
                errs.append(f"{label}: roots not sorted")
            for r in roots:
                errs += root_errors(label, resid, r)
            if polynomial and n <= POLY_MAX_N:
                rho = dgp.rho if isinstance(dgp, C.RhoMixture) else dgp.p_xi / (dgp.p_xi + dgp.q_xi)
                errs += root_count_errors(label, roots, mixture_coeffs(grid, rho))
            return errs

        out.append(Instance("equilibrium.solve_with_dgp",
                            lambda c=c, n=n, dgp=dgp: C.solve_with_dgp(c, mle, n, dgp), check, label))

    k = 3
    for rho, n in zip(strata(rng, k, 0.0, 1.0), log_int_strata(rng, k, 3, 40)):
        spec = sshape_spec(rng)
        c = C.parse_cost(spec)
        label = f"enumerate {spec} n={n} rho={rho:.4f}"

        def check(res, c=c, n=n, rho=rho, label=label):
            grid = np.array([c(y / n) for y in range(n + 1)])
            law = C.RhoMixture(rho)

            def resid(t):
                return t - float(C.action_count_pmf(law, n, t).probs @ grid)

            roots = res.roots
            errs = [] if roots else [f"{label}: no root reported"]
            if len(roots) > 3:
                errs.append(f"{label}: {len(roots)} roots, at most three expected")
            for r in roots:
                errs += root_errors(label, resid, r)
            if n <= POLY_MAX_N:
                errs += root_count_errors(label, roots, mixture_coeffs(grid, rho, benefit=True))
            return errs

        out.append(Instance("equilibrium.enumerate_cosesi",
                            lambda c=c, n=n, rho=rho: C.enumerate_cosesi(c, n, rho), check, label))
    return out


# ---------------------------------------------------------------------------
# market: applications and dynamics
# ---------------------------------------------------------------------------


def build_market(C, seed):
    """Application entry points and the dynamics/Monte Carlo layer."""
    from cosesi.equilibrium import cost_grid

    rng = rng_for("market", seed)
    out: list[Instance] = []
    mle = C.MLE()

    def mixture_pmf(rho, n, t):
        return C.action_count_pmf(C.RhoMixture(rho), n, t).probs

    # monopoly pricing, naive and rational consumers
    for rho, t, n in zip(strata(rng, 4, 0.0, 1.0), strata(rng, 4, 3.0, 8.0), log_int_strata(rng, 4, 2, 8)):
        label = f"monopoly naive rho={rho:.4f} t={t:.4f} n={n}"

        def check(res, rho=rho, t=t, n=n, label=label):
            grid = cost_grid(mle, n, C.exp_decay_cost(t))

            def demand_resid(p):
                lam = np.minimum(1.0 + p - grid, 1.0)
                return lambda th: 1.0 - th - float(mixture_pmf(rho, n, th) @ lam)

            errs = boundary_or_root_errors(f"{label} p*={res.price_star!r}",
                                           demand_resid(res.price_star), res.quantity_star)
            for p, q in res.demand_curve[::100]:
                errs += boundary_or_root_errors(f"{label} p={p!r}", demand_resid(p), q)
            best = max(p * q for p, q in res.demand_curve)
            if res.profit_star < best - 1e-9:
                errs.append(f"{label}: profit {res.profit_star!r} below grid best {best!r}")
            return errs

        out.append(Instance("applications.monopoly_optimize",
                            lambda rho=rho, t=t, n=n: C.monopoly_optimize(rho, t, n), check, label))
    for rho, t in zip(strata(rng, 2, 0.0, 1.0), strata(rng, 2, 3.0, 8.0)):
        label = f"monopoly rational t={t:.4f}"

        def check(res, t=t, label=label):
            def resid(p):
                return lambda th: th - math.exp(-t * th) + p

            errs = rising_boundary_or_root_errors(label, resid(res.price_star), res.quantity_star)
            for p, q in res.demand_curve[::100]:
                errs += rising_boundary_or_root_errors(f"{label} p={p!r}", resid(p), q)
            return errs

        out.append(Instance("applications.monopoly_optimize",
                            lambda rho=rho, t=t: C.monopoly_optimize(rho, t, 2, rational=True), check, label))

    # credit market
    for omega, rho, n, slope in zip(strata(rng, 4, -0.5, 0.5), strata(rng, 4, 0.1, 0.9),
                                    log_int_strata(rng, 4, 2, 10), strata(rng, 4, 0.7, 1.0)):
        spec = C.CreditSpec(float(omega), float(rho), n, C.parse_cost(f"affine:1,{-slope!r}"))
        label = f"bank omega={omega:.4f} rho={rho:.4f} n={n} slope={slope:.4f}"

        def check(res, spec=spec, label=label):
            shutdown = lambda t: min(1.0, max(0.0, spec.cost(1.0 - t)))
            grid = np.clip(cost_grid(spec.G, spec.n, shutdown), 0.0, 1.0)

            def resid(th):
                lam = np.array([0.0 if v >= 1.0 else 1.0 if v <= 0.0 else
                                1.0 - C.vasicek_cdf(v, th, spec.omega, spec.rho) for v in grid])
                return th - float(mixture_pmf(spec.rho, spec.n, th) @ lam)

            errs = []
            for r in res.roots:
                errs += root_errors(label, resid, r)
            if res.theta_star != res.roots[0]:
                errs.append(f"{label}: theta_star is not the smallest root")
            p = 0.5 * math.erfc(-spec.omega * res.theta_star / math.sqrt(2.0))
            if abs(res.p_star - p) > 1e-12:
                errs.append(f"{label}: default rate {res.p_star!r} != {p!r}")
            return errs

        out.append(Instance("applications.solve_bank_cosesi",
                            lambda spec=spec: C.solve_bank_cosesi(spec), check, label))

    # tax policy
    for i, (spec, n, rho, tau) in enumerate(zip(cost_cycle(rng, 4, ("pow", "linear", "affine")),
                                                log_int_strata(rng, 4, 2, 50), strata(rng, 4, 0.0, 1.0),
                                                strata(rng, 4, 0.0, 0.3))):
        c = C.parse_cost(spec)
        G = mle if i % 2 else C.BetaEstimation()
        label = f"tax {spec} {G.kind} n={n} rho={rho:.4f} tau={tau:.4f}"

        def check(res, c=c, G=G, n=n, rho=rho, tau=tau, label=label):
            base = cost_grid(G, n, c)

            def resid(tax):
                taxed = np.minimum(base + tax, 1.0)
                return lambda th: 1.0 - th - float(mixture_pmf(rho, n, th) @ taxed)

            errs = boundary_or_root_errors(f"{label} taxed", resid(tau), res.theta_tau)
            errs += boundary_or_root_errors(f"{label} untaxed", resid(0.0), res.theta_zero)
            taxed = np.minimum(base + tau, 1.0)
            pmf = mixture_pmf(rho, n, res.theta_tau)
            welfare = float(np.sum(pmf * ((1.0 - taxed**2) / 2.0 - c(res.theta_tau) * (1.0 - taxed))))
            if abs(res.welfare - welfare) > 1e-9:
                errs.append(f"{label}: welfare {res.welfare!r} != {welfare!r}")
            check_value = 1.0 - c(res.theta_zero) - res.theta_zero * c.derivative(res.theta_zero)
            if abs(res.check_value - check_value) > 1e-12 or res.recommend_tax != (check_value < 0.0):
                errs.append(f"{label}: planner check {res.check_value!r} != {check_value!r}")
            return errs

        out.append(Instance("applications.tax_policy_check",
                            lambda c=c, G=G, n=n, rho=rho, tau=tau: C.tax_policy_check(c, G, n, rho, tau),
                            check, label))

    # two-sided matching market
    def side(other, m, rho, moment):
        fn = lambda x: x**moment
        if math.isinf(m):
            base = other**moment
            return (1.0 - rho) * base + rho * other
        m = int(m)
        return float(mixture_pmf(rho, m, other) @ cost_grid(mle, m, fn))

    for i, (lam, v, rho_w, rho_f) in enumerate(zip(strata(rng, 4, 0.2, 0.9), strata(rng, 4, 0.3, 0.7),
                                                   strata(rng, 4, 0.0, 1.0), strata(rng, 4, 0.0, 1.0))):
        k_w = math.inf if i == 0 else float(rng.integers(1, 11))
        n_f = math.inf if i == 1 else float(rng.integers(1, 11))
        spec = C.TwoSidedSpec(float(lam), float(v), k_w, n_f, float(rho_w), float(rho_f))
        label = f"two-sided {spec!r}"

        def check(res, spec=spec, label=label):
            lam, v = spec.lam, spec.v

            def alpha_of(beta):
                return (lam * side(beta, spec.k, spec.rho_w, 1.0 - v)) ** (1.0 / (2.0 - v))

            def resid(beta):
                return beta - (lam * side(alpha_of(beta), spec.n, spec.rho_f, v)) ** (1.0 / (1.0 + v))

            errs = root_errors(label, resid, res.beta_star, 1e-12, 1.0)
            if abs(res.alpha_star - alpha_of(res.beta_star)) > 1e-12:
                errs.append(f"{label}: alpha {res.alpha_star!r} off the worker response")
            emp = lam * res.alpha_star**v * res.beta_star ** (1.0 - v)
            if abs(res.employment - emp) > 1e-12:
                errs.append(f"{label}: employment {res.employment!r} != {emp!r}")
            return errs

        out.append(Instance("applications.solve_two_sided",
                            lambda spec=spec: C.solve_two_sided(spec), check, label))
    # closed form at k = n = inf, MLE, v = 1/2, rho_f = 0: (1-kappa) lam^2 + kappa lam^(16/7)
    for lam, kappa in zip(strata(rng, 3, 0.2, 0.9), strata(rng, 3, 0.0, 1.0)):
        spec = C.TwoSidedSpec(float(lam), 0.5, math.inf, math.inf, 0.0, 0.0)
        label = f"mixed population lam={lam:.4f} kappa={kappa:.4f}"

        def check(res, lam=lam, kappa=kappa, label=label):
            closed = (1.0 - kappa) * lam**2 + kappa * lam ** (16.0 / 7.0)
            if abs(res.employment_total - closed) > 1e-9:
                return [f"{label}: employment {res.employment_total!r} != closed form {closed!r}"]
            return []

        out.append(Instance("applications.mixed_population_employment",
                            lambda spec=spec, kappa=kappa: C.mixed_population_employment(spec, kappa),
                            check, label))

    # two-period supply shock
    for i, (spec, eps) in enumerate(zip(cost_cycle(rng, 4, ("pow", "linear", "affine")),
                                        strata(rng, 4, -0.1, 0.1))):
        c = C.parse_cost(spec)
        G = mle if i % 2 else C.BetaEstimation()
        label = f"supply {spec} {G.kind} eps={eps:.4f}"

        def check(res, c=c, G=G, eps=eps, label=label):
            c0, ch, c1 = (float(v) for v in cost_grid(G, 2, c))

            def resid(t):
                t2 = t + eps
                return 1.0 - t - ((1 - t) * (1 - t2) * c0 + (t * (1 - t2) + (1 - t) * t2) * ch + t * t2 * c1)

            errs = boundary_or_root_errors(label, resid, res.theta1, max(0.0, -eps), min(1.0, 1.0 - eps))
            if res.theta2 != res.theta1 + eps:
                errs.append(f"{label}: theta2 != theta1 + eps")
            return errs

        out.append(Instance("applications.two_part_supply",
                            lambda c=c, G=G, eps=eps: C.two_part_supply(c, G, eps), check, label))

    # Monte Carlo population oracle against the analytic CoSESI
    for i, (d, rho, n) in enumerate(zip(strata(rng, 3, 1.0, 5.0), strata(rng, 3, 0.0, 1.0),
                                        log_int_strata(rng, 3, 1, 5))):
        c = C.parse_cost(f"pow:{d!r}")
        rng_mc = C.SeedableRng(seed, i)
        label = f"mc pow:{d:.4f} n={n} rho={rho:.4f}"

        def check(res, c=c, n=n, rho=rho, label=label):
            target = C.solve_cosesi(c, mle, n, rho).theta
            if not abs(res.theta_hat - target) <= 5.0 * res.stderr:
                return [f"{label}: theta_hat {res.theta_hat!r} vs analytic {target!r} "
                        f"beyond 5 stderr ({res.stderr!r})"]
            return []

        out.append(Instance("dynamics.mc_population_equilibrium",
                            lambda c=c, n=n, rho=rho, rng_mc=rng_mc: C.mc_population_equilibrium(
                                c, mle, n, C.RhoMixture(rho), num_agents=50_000, rng=rng_mc),
                            check, label))

    # generational dynamics under Markov sampling shocks
    # twelve dynamics runs of a few ms each sit in the middle of the latency
    # distribution, fifteen cheaper calls below and thirteen costlier above,
    # so that op_p50_ms falls inside one homogeneous group
    for spec, n, p, q, gamma, T in zip(cost_cycle(rng, 12, ("pow", "linear", "affine")),
                                       log_int_strata(rng, 12, 2, 10), strata(rng, 12, 0.0, 0.5),
                                       strata(rng, 12, 0.2, 1.0), strata(rng, 12, 0.1, 0.5),
                                       log_int_strata(rng, 12, 300, 600)):
        c = C.parse_cost(spec)
        chain = C.MarkovShockChain(float(p), float(q))
        theta0, rho0 = float(rng.random()), float(rng.random())
        label = f"dynamics {spec} n={n} p={p:.4f} q={q:.4f} gamma={gamma:.4f} T={T}"

        def check(res, c=c, n=n, chain=chain, gamma=gamma, label=label):
            grid = cost_grid(mle, n, c)
            th, rh = float(res.theta[-2]), float(res.rho[-2])
            step = (1.0 - gamma) * th + gamma * (1.0 - float(mixture_pmf(rh, n, th) @ grid))
            errs = []
            if abs(res.theta[-1] - step) > 1e-12:
                errs.append(f"{label}: last step {res.theta[-1]!r} != recursion {step!r}")
            target = C.solve_cosesi(c, mle, n, C.stationary_rho(chain)).theta
            if abs(res.final_theta() - target) > 1e-6:
                errs.append(f"{label}: final theta {res.final_theta()!r} != steady state {target!r}")
            return errs

        out.append(Instance("dynamics.simulate_dynamics",
                            lambda c=c, n=n, chain=chain, gamma=gamma, theta0=theta0, rho0=rho0, T=T:
                            C.simulate_dynamics(c, mle, n, chain, gamma, theta0, rho0, T), check, label))
    return out


# ---------------------------------------------------------------------------
# cli: README commands plus the --help-documented --dgp examples
# ---------------------------------------------------------------------------


def _values(stdout):
    out = {}
    for line in stdout.splitlines():
        key, sep, val = line.partition("=")
        if sep and key and " " not in key:
            out[key] = val
    return out


def _float_in(values, key, lo, hi):
    try:
        v = float(values[key])
    except (KeyError, ValueError):
        return [f"no numeric '{key}' in output"]
    return [] if lo <= v <= hi else [f"{key}={v!r} outside [{lo}, {hi}]"]


def _expect(key, lo=0.0, hi=1.0):
    return lambda stdout: _float_in(_values(stdout), key, lo, hi)


def _check_rho1(stdout):
    errs = _float_in(_values(stdout), "theta_star", 0.0, 1.0)
    if not errs and abs(float(_values(stdout)["theta_star"]) - 0.5) > 1e-9:
        errs.append(f"theta_star={_values(stdout)['theta_star']} but the README documents 0.5")
    return errs


def _check_ne_pow3(stdout):
    errs = _float_in(_values(stdout), "theta_star", 0.0, 1.0)
    if not errs:
        t = float(_values(stdout)["theta_star"])
        if abs(1.0 - t - t**3) > 1e-9:
            errs.append(f"ne residual {1.0 - t - t**3:.3e}")
    return errs


def _check_enumerate_rho1(stdout):
    values = _values(stdout)
    if values.get("num_roots") != "1":
        return [f"rho = 1 has exactly one CoSESI, got num_roots={values.get('num_roots')}"]
    return _float_in(values, "theta_0", 0.0, 1.0)


def _check_var(stdout):
    v = _values(stdout).get("var")
    return [] if v in ("0", "0.5", "1") else [f"two-borrower VaR {v!r} not in {{0, 0.5, 1}}"]


def _check_simulate(stdout):
    values = _values(stdout)
    errs = [] if values.get("draws") == "100000" else ["simulate did not report 100000 draws"]
    errs += _float_in(values, "pairwise_correlation", 0.6 - 0.02, 0.6 + 0.02)
    return errs


def _check_repro(stdout):
    lines = stdout.splitlines()
    fails = [ln for ln in lines if ln.rstrip().endswith(" FAIL")]
    errs = [f"repro FAIL row: {ln.strip()}" for ln in fails]
    if not lines or not lines[-1].rstrip().endswith(" 0 fail"):
        errs.append("repro summary does not report 0 fail")
    return errs


def _check_mc(seed):
    def check(stdout):
        values = _values(stdout)
        errs = _float_in(values, "theta_hat", 0.0, 1.0) + _float_in(values, "stderr", 0.0, 1.0)
        if errs:
            return errs
        import cosesi as C

        target = C.solve_cosesi(C.power_cost(3), C.MLE(), 3, 0.5).theta
        if abs(float(values["theta_hat"]) - target) > 5.0 * float(values["stderr"]):
            errs.append(f"mc theta_hat {values['theta_hat']} vs analytic {target!r} beyond 5 stderr")
        return errs

    return check


@dataclass
class Command:
    argv: list[str]
    readme: bool
    check: Callable[[str], list[str]]


def build_cli(seed):
    """Every README command, plus `cosesi --dgp cmb:2` and `--dgp addbin:0.05`.

    The seed only reaches the commands that take one (simulate, mc).
    """
    rng = rng_for("cli", seed)
    sim_seed, mc_seed = (int(v) for v in rng.integers(0, 2**31 - 1, 2))
    readme = [
        ("cosesi --cost pow:4 --inference mle --n 2 --rho 1", _check_rho1),
        ("ne --cost pow:3", _check_ne_pow3),
        ("sweep --axis rho --cost pow:3 --n 3 --values 0,0.5,0.75,1 --out sweep.csv", _expect("last_theta")),
        ("enumerate --cost sshape --n 12 --rho 1", _check_enumerate_rho1),
        ("assortative --cost linear --n 10 --rho-fn identity", _expect("theta_star")),
        ("bayes --cost pow:2 --alpha 1 --beta 1 --n 2 --rho 1 --zeta 0.5", _expect("theta_star")),
        ("hetero --groups 0.5:mle:2,0.5:mle:5 --cost pow:4", _expect("theta_star")),
        ("market --lam 0.3 --rho-w 1 --rho-f 1 --kappa 0.4", _expect("employment_total")),
        ("monopoly --rho 1 --t 6 --n 2", _expect("price_star")),
        ("bank --omega 0 --rho 0.5 --n 2 --cost affine:1,-1", _expect("theta_star")),
        ("var --p 0.05 --tau 0.9 --alpha 0.95", _check_var),
        ("tax --cost pow:2 --n 2 --rho 1 --tax 0", _expect("theta_tau")),
        ("supply-shock --cost pow:2 --eps -0.05", _expect("theta1")),
        ("dynamics --cost pow:4 --n 2 --p-xi 0 --q-xi 0.5 --gamma 0.1 --T 500", _expect("theta_final")),
        (f"simulate --dgp rho:0.6 --n 4 --theta 0.4 --draws 100000 --seed {sim_seed}", _check_simulate),
        ("info --dgp rho:1 --n 200 --theta 0.3", _expect("informativeness")),
        (f"mc --cost pow:3 --n 3 --dgp rho:0.5 --agents 100000 --seed {mc_seed}", _check_mc(mc_seed)),
        ("repro --out repro.csv", _check_repro),
    ]
    commands = [Command(line.split(), True, check) for line, check in readme]
    commands.append(Command("cosesi --dgp cmb:2".split(), False, _expect("theta_star")))
    # documented defect: exits 1 because the scan evaluates theta = 0
    commands.append(Command("cosesi --dgp addbin:0.05".split(), False, _expect("theta_star")))
    return commands


BUILDERS = {"unique": build_unique, "multiroot": build_multiroot, "market": build_market}
