"""Command-line front end.

Every subcommand solves one model or application and can emit a
machine-readable CSV (`--out`); identical configuration and seed give
byte-identical output.  `repro` runs the full example-reproduction suite
and prints a pass/fail table.  Flat KEY = VALUE config files are accepted
through `--config`, with command-line flags taking precedence; unknown
config keys are rejected, and each value is converted by its flag's type.

`main` builds only the parser of the subcommand that `argv[0]` names: one
table (`_SUBCOMMANDS`) defines every subcommand's flags once, for that
parser and for the full `build_parser()`.  An argv that parser would not
take whole (no command, an option or an unknown name first, arguments left
over) goes through the full parser, so usage, help and error texts are the
same either way.

Exit codes: 0 success, 1 solver error, 2 configuration error.  Every spec
string (--cost, --inference, --dgp, --rho-fn, --groups, --values) is parsed
before any solve, and one that fails to parse is a configuration error; so
is an `--out` path that cannot be written, refused before the solve too.
"""

from __future__ import annotations

import argparse
import csv
import errno
import math
import os
import sys
from functools import partial

import numpy as np

from . import __version__
from .numerics import NumericsError
from .model import (
    CMB,
    AdditiveBinomial,
    BayesBeta,
    BetaEstimation,
    IID,
    MLE,
    MarkovShock,
    ModelError,
    RhoMixture,
    Sequential,
    action_count_pmf,
    parse_cost,
)
from .equilibrium import (
    enumerate_cosesi,
    solve_assortative,
    solve_bayesian_cosesi,
    solve_cosesi,
    solve_heterogeneous,
    solve_ne,
    solve_with_dgp,
    sweep,
)
from .applications import (
    ApplicationError,
    CreditSpec,
    TwoSidedSpec,
    mixed_population_employment,
    monopoly_optimize,
    solve_bank_cosesi,
    solve_two_sided,
    tax_policy_check,
    two_part_supply,
    var_two_borrowers,
)
from .dynamics import DynamicsError, simulate_dynamics, mc_population_equilibrium
from .sampling import SamplingError, SeedableRng, informativeness, pairwise_correlation, sample_correlated
from .repro import format_table, run_repro

_SOLVER_ERRORS = (
    NumericsError,
    ModelError,
    ApplicationError,
    DynamicsError,
    SamplingError,
    ValueError,
    ArithmeticError,
)


class ConfigError(Exception):
    pass


def _parse_inference(spec: str):
    head, _, rest = spec.partition(":")
    if head == "mle":
        return MLE()
    if head == "beta":
        return BetaEstimation()
    if head == "bayes":
        args = [float(a) for a in rest.split(",")] if rest else []
        if len(args) not in (3, 4):
            raise ConfigError("bayes inference needs 'bayes:alpha,beta,rho[,zeta]'")
        return BayesBeta(*args)
    raise ConfigError(f"unknown inference '{spec}'")


def _parse_dgp(spec: str):
    head, _, rest = spec.partition(":")
    args = [float(a) for a in rest.split(",")] if rest else []
    if head == "iid":
        return IID()
    if head == "rho":
        return RhoMixture(args[0])
    if head == "cmb":
        return CMB(args[0])
    if head == "addbin":
        return AdditiveBinomial(args[0])
    if head == "seq":
        return Sequential(tuple(args))
    if head == "markov":
        return MarkovShock(args[0], args[1])
    raise ConfigError(f"unknown dgp '{spec}'")


def _parse_rho_fn(spec: str):
    head, _, rest = spec.partition(":")
    if head == "zero":
        return lambda eta: 0.0
    if head == "identity":
        return lambda eta: eta
    if head == "const":
        v = float(rest)
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"const rho needs x in [0,1], got {v}")
        return lambda eta: v
    if head == "power":
        k = float(rest)
        if not 0.0 <= k < math.inf:
            raise ConfigError(f"power rho needs a finite k >= 0, got {k}")
        return lambda eta: eta**k
    raise ConfigError(f"unknown rho function '{spec}'")


def _parse_groups(spec: str):
    # a token with exactly two colons starts a group; any other token continues
    # the previous group's inference spec, so bayes:alpha,beta,rho keeps its commas
    parts: list[str] = []
    for token in spec.split(","):
        if token.count(":") == 2 or not parts:
            parts.append(token)
        else:
            parts[-1] += "," + token
    groups = []
    for part in parts:
        w, rest = part.split(":", 1)
        inf, nn = rest.rsplit(":", 1)
        groups.append((float(w), _parse_inference(inf), int(nn)))
    return groups


# args attribute -> parser of its spec string; _parse_specs runs them all
# before any solve, so a malformed spec is a configuration error
_SPEC_PARSERS = {
    "cost": parse_cost,
    "inference": _parse_inference,
    "dgp": _parse_dgp,
    "rho_fn": _parse_rho_fn,
    "groups": _parse_groups,
    "values": lambda spec: [float(v) for v in spec.split(",")],
}


def _parse_specs(args) -> None:
    """Replace every spec string on ``args`` by its object; any failure is a ConfigError."""
    for key, parse in _SPEC_PARSERS.items():
        text = getattr(args, key, None)
        if text is None:
            continue
        try:
            setattr(args, key, parse(str(text)))
        except Exception as exc:
            raise ConfigError(f"bad --{key.replace('_', '-')} value {text!r}: {exc}") from exc


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _emit(args, header: list[str], rows: list[list], summary: list[tuple[str, object]]) -> None:
    # the CSV goes first, so an --out that cannot be written leaves stdout empty
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for row in rows:
                    writer.writerow([_fmt(v) for v in row])
        except OSError as exc:
            raise ConfigError(f"cannot write --out {args.out!r}: {exc.strerror or exc}") from exc
    for key, val in summary:
        print(f"{key}={_fmt(val)}")


def _check_out(path: str) -> None:
    """Refuse an --out path that cannot be written before anything is solved,
    without creating it: the path must not be a directory, and its parent
    must be a writable directory (as must the file, if it exists)."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ConfigError(f"cannot write --out {path!r}: {os.strerror(code)}")


def _parse_config_file(path: str) -> dict[str, str]:
    """KEY = VALUE lines as strings; each flag's own ``type`` converts its value."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line: {raw.strip()!r}")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip().strip("\"'")
    return values


def _common(p: argparse.ArgumentParser, cost=True, inference=True, n=True, rho=True, seed=False) -> None:
    p.add_argument("--config", help="flat KEY=VALUE config file; flags override")
    p.add_argument("--out", help="write results to this CSV path")
    # only the commands that draw random numbers read COSESI_SEED; argparse converts
    # a string default at parse time, so a bad value is an argument error of theirs
    if seed:
        p.add_argument("--seed", type=int, default=os.environ.get("COSESI_SEED", "0"),
                       help="random seed (default: COSESI_SEED or 0)")
    if cost:
        p.add_argument("--cost", default="pow:2", help="cost spec, e.g. pow:4, linear, exp:6, sshape")
    if inference:
        p.add_argument("--inference", default="mle", help="mle, beta, or bayes:alpha,beta,rho[,zeta]")
    if n:
        p.add_argument("--n", type=int, default=2, help="sample size")
    if rho:
        p.add_argument("--rho", type=float, default=0.0, help="signal correlation in [0,1]")


def _cosesi_flags(p: argparse.ArgumentParser) -> None:
    _common(p)
    p.set_defaults(rho=None)  # so that an explicit --rho next to --dgp can be refused
    p.add_argument("--dgp", help="optional count law, e.g. cmb:2, addbin:0.05 (not with --rho)")


def _sweep_flags(p: argparse.ArgumentParser) -> None:
    _common(p)
    p.add_argument("--axis", choices=("rho", "n"), default="rho")
    p.add_argument("--values", default="0,0.25,0.5,0.75,1", help="comma-separated axis values")


def _enumerate_flags(p: argparse.ArgumentParser) -> None:
    _common(p, inference=False)
    p.set_defaults(cost="sshape")
    p.add_argument("--grid-step", type=float, default=1e-4)


def _assortative_flags(p: argparse.ArgumentParser) -> None:
    _common(p, rho=False)
    p.add_argument("--rho-fn", default="identity",
                   help="zero, identity, const:x (x in [0,1]), power:k (k >= 0)")


def _bayes_flags(p: argparse.ArgumentParser) -> None:
    _common(p, inference=False)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--zeta", type=float, default=1.0, help="degree of correlation neglect")


def _hetero_flags(p: argparse.ArgumentParser) -> None:
    _common(p, inference=False, n=False)
    p.add_argument("--groups", default="0.5:mle:2,0.5:mle:5", help="weight:inference:n, comma-separated")


def _market_flags(p: argparse.ArgumentParser) -> None:
    _common(p, cost=False, inference=False, n=False, rho=False)
    p.add_argument("--lam", type=float, default=0.3, help="matching friction")
    p.add_argument("--v", type=float, default=0.5, help="Cobb-Douglas exponent")
    p.add_argument("--k", type=float, default=2, help="worker sample size (inf allowed)")
    p.add_argument("--n", type=float, default=2, help="firm sample size (inf allowed)")
    p.add_argument("--rho-w", type=float, default=0.0)
    p.add_argument("--rho-f", type=float, default=0.0)
    p.add_argument("--rational", action="store_true", help="rational-expectations benchmark")
    p.add_argument("--kappa", type=float, help="mixed-population share with correlated samples")


def _monopoly_flags(p: argparse.ArgumentParser) -> None:
    _common(p, cost=False)
    p.add_argument("--t", type=float, default=6.0, help="encounters parameter of exp(-t theta)")
    p.add_argument("--rational", action="store_true")
    p.add_argument("--grid-step", type=float, default=1e-3)


def _bank_flags(p: argparse.ArgumentParser) -> None:
    _common(p)
    p.set_defaults(rho=0.5)
    p.add_argument("--omega", type=float, default=0.0, help="borrower obligation")
    p.add_argument("--gaussian-omega", action="store_true")


def _var_flags(p: argparse.ArgumentParser) -> None:
    _common(p, cost=False, inference=False, n=False, rho=False)
    p.add_argument("--p", type=float, default=0.05, help="default probability")
    p.add_argument("--tau", type=float, default=0.0, help="default correlation")
    p.add_argument("--alpha", type=float, default=0.95, help="confidence level")


def _tax_flags(p: argparse.ArgumentParser) -> None:
    _common(p)
    p.add_argument("--tax", type=float, default=0.0)


def _supply_shock_flags(p: argparse.ArgumentParser) -> None:
    _common(p, n=False, rho=False)
    p.add_argument("--eps", type=float, default=-0.05, help="supply shock size")


def _dynamics_flags(p: argparse.ArgumentParser) -> None:
    _common(p, rho=False)
    p.add_argument("--p-xi", type=float, default=0.2)
    p.add_argument("--q-xi", type=float, default=0.8)
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--theta0", type=float, default=0.5)
    p.add_argument("--rho0", type=float, default=0.0)
    p.add_argument("--T", type=int, default=500)


def _simulate_flags(p: argparse.ArgumentParser) -> None:
    _common(p, cost=False, inference=False, rho=False, seed=True)
    p.add_argument("--dgp", default="rho:0.5")
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--draws", type=int, default=100000)


def _info_flags(p: argparse.ArgumentParser) -> None:
    _common(p, cost=False, inference=False, rho=False)
    p.add_argument("--dgp", default="rho:1")
    p.add_argument("--theta", type=float, default=0.3)


def _mc_flags(p: argparse.ArgumentParser) -> None:
    _common(p, rho=False, seed=True)
    p.add_argument("--dgp", default="rho:0")
    p.add_argument("--agents", type=int, default=100000)


# name -> (help, ArgumentParser keyword arguments, function that adds the
# flags), in the order the top-level help lists them
_SUBCOMMANDS = {
    "ne": ("Nash equilibrium 1-theta=c(theta)", {}, partial(_common, inference=False, n=False, rho=False)),
    "cosesi": ("simple CoSESI (or SESI at rho=0)", {}, _cosesi_flags),
    "sweep": ("theta* along a rho or n axis", {}, _sweep_flags),
    "enumerate": ("all CoSESIs of an S-shaped benefit game", {}, _enumerate_flags),
    "assortative": ("type-dependent correlation rho(eta)", {}, _assortative_flags),
    "bayes": ("Bayesian CoSESI with partial neglect", {}, _bayes_flags),
    "hetero": ("heterogeneous inference/sample-size mix", {}, _hetero_flags),
    "market": ("two-sided matching market", {}, _market_flags),
    "monopoly": ("monopoly pricing against naive consumers", {}, _monopoly_flags),
    "bank": ("credit-market equilibrium and default rate", {}, _bank_flags),
    "var": ("two-borrower value at risk", {}, _var_flags),
    "tax": ("tax-policy equilibrium and planner check", {}, _tax_flags),
    "supply-shock": ("two-part competitive equilibrium", {}, _supply_shock_flags),
    # no prefix matching here, or --rho would silently set --rho0
    "dynamics": ("generational dynamic with Markov shocks", {"allow_abbrev": False}, _dynamics_flags),
    "simulate": ("Monte Carlo signal draws and diagnostics", {}, _simulate_flags),
    "info": ("informativeness of a count law", {}, _info_flags),
    "mc": ("agent-population Monte Carlo equilibrium", {}, _mc_flags),
    "repro": ("reproduce the full example suite", {},
              partial(_common, cost=False, inference=False, n=False, rho=False)),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every subcommand, reachable by name through ``parser.subparsers_by_name``."""
    parser = argparse.ArgumentParser(
        prog="cosesi",
        description="Equilibria of binary-action population games under correlation neglect.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subparsers_by_name = sub.choices  # argparse's own name -> subparser map
    for name, (help_text, kwargs, add_flags) in _SUBCOMMANDS.items():
        add_flags(sub.add_parser(name, help=help_text, **kwargs))
    return parser


def _config_defaults(args: argparse.Namespace) -> dict:
    """The ``--config`` file's values for ``args.command``, ready for ``set_defaults``.

    Values stay strings, which argparse converts with each flag's ``type``;
    a ``store_true`` flag (the only ones parsed to a bool) takes true or false.
    """
    values: dict[str, object] = {**_parse_config_file(args.config)}
    unknown = set(values) - (set(vars(args)) - {"command"})
    if unknown:
        raise ConfigError(f"unknown config keys for '{args.command}': {sorted(unknown)}")
    for key, val in values.items():
        if isinstance(getattr(args, key), bool):
            if val.lower() not in ("true", "false"):
                raise ConfigError(f"config key '{key}' takes true or false, got {val!r}")
            values[key] = val.lower() == "true"
    return values


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv``, building only the subcommand's own parser when ``argv[0]`` names one.

    That parser is the one ``build_parser`` would hand the arguments to.  Any
    other argv (none, an option or unknown name first, or arguments the
    subcommand leaves over) is one the full parser refuses or answers with
    help, so it goes there for argparse's own text.  ``--config`` values
    become defaults of the subcommand's parser and the arguments are parsed
    again, so explicit flags still win.
    """
    name = argv[0] if argv else None
    if name in _SUBCOMMANDS:
        _, kwargs, add_flags = _SUBCOMMANDS[name]
        sub = argparse.ArgumentParser(prog=f"cosesi {name}", **kwargs)
        add_flags(sub)
        # argparse converts a string default only when the namespace holds the
        # default itself; holding None keeps COSESI_SEED unread until the config
        # file, which may set the seed, is known
        held = {"seed": None} if sub.get_default("seed") is not None else {}
        args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=name, **held))
        if not extra:
            if args.config:
                sub.set_defaults(**_config_defaults(args))
            if args.config or held:
                args, _ = sub.parse_known_args(argv[1:], argparse.Namespace(command=name))
            return args
    return build_parser().parse_args(argv)  # only ever exits: help, version or a usage error


def _emit_result(args, res) -> None:
    _emit(args, ["concept", "theta_star", "residual"], [[res.concept, res.theta, res.residual]],
          [("theta_star", res.theta)])


def _run(args) -> int:
    _parse_specs(args)
    cmd = args.command
    if cmd == "ne":
        _emit_result(args, solve_ne(args.cost))
        return 0
    if cmd == "cosesi":
        if args.dgp is None:
            res = solve_cosesi(args.cost, args.inference, args.n, args.rho or 0.0)
        elif args.rho is None:
            res = solve_with_dgp(args.cost, args.inference, args.n, args.dgp)
        else:
            raise ConfigError("--rho is not accepted with --dgp: the count law fixes the correlation")
        roots = res.roots
        rows = [[res.concept, i, r, res.residual] for i, r in enumerate(roots)]
        _emit(args, ["concept", "root_index", "theta_star", "residual"], rows,
              [("theta_star", roots[0] if len(roots) == 1 else ",".join(_fmt(r) for r in roots))])
        return 0
    if cmd == "sweep":
        table = sweep(args.axis, args.values, args.cost, args.inference, n=args.n, rho=args.rho)
        rows = [[args.axis, v, th] for v, th in table.rows]
        _emit(args, ["axis", "value", "theta_star"], rows,
              [("rows", len(rows)), ("last_theta", table.rows[-1][1])])
        return 0
    if cmd == "enumerate":
        res = enumerate_cosesi(args.cost, args.n, args.rho, args.grid_step)
        rows = [[i, r] for i, r in enumerate(res.roots)]
        _emit(args, ["root_index", "theta_star"], rows, [("num_roots", len(res.roots))] + [
            (f"theta_{i}", r) for i, r in enumerate(res.roots)])
        return 0
    if cmd == "assortative":
        _emit_result(args, solve_assortative(args.cost, args.inference, args.n, args.rho_fn))
        return 0
    if cmd == "bayes":
        _emit_result(args, solve_bayesian_cosesi(args.cost, (args.alpha, args.beta), args.n,
                                                 args.rho, args.zeta))
        return 0
    if cmd == "hetero":
        _emit_result(args, solve_heterogeneous(args.groups, args.cost, args.rho))
        return 0
    if cmd == "market":
        spec = TwoSidedSpec(lam=args.lam, v=args.v, k=args.k, n=args.n,
                            rho_w=args.rho_w, rho_f=args.rho_f)
        # the mixed population first: it refuses a kappa outside [0, 1] before any solve
        mixed = None if args.kappa is None else mixed_population_employment(spec, args.kappa)
        out = solve_two_sided(spec, rational=args.rational)
        rows = [[out.concept, out.alpha_star, out.beta_star, out.employment]]
        summary = [("alpha_star", out.alpha_star), ("beta_star", out.beta_star),
                   ("employment", out.employment)]
        if mixed is not None:
            summary += [("employment_total", mixed.employment_total),
                        ("inequality_factor", mixed.inequality_factor),
                        ("disadvantage_ratio", mixed.disadvantage_ratio)]
        _emit(args, ["concept", "alpha_star", "beta_star", "employment"], rows, summary)
        return 0
    if cmd == "monopoly":
        out = monopoly_optimize(rho=args.rho, t=args.t, n=args.n, G=args.inference,
                                price_grid_step=args.grid_step, rational=args.rational)
        rows = [[p, q] for p, q in out.demand_curve]
        _emit(args, ["price", "demand"], rows,
              [("price_star", out.price_star), ("quantity_star", out.quantity_star),
               ("profit_star", out.profit_star)])
        return 0
    if cmd == "bank":
        spec = CreditSpec(omega=args.omega, rho=args.rho, n=args.n, cost=args.cost,
                          G=args.inference, gaussian_omega=args.gaussian_omega)
        out = solve_bank_cosesi(spec)
        rows = [[i, r] for i, r in enumerate(out.roots)]
        _emit(args, ["root_index", "theta"], rows,
              [("theta_star", out.theta_star), ("p_star", out.p_star)])
        return 0
    if cmd == "var":
        loss = var_two_borrowers(args.p, args.tau, args.alpha)
        _emit(args, ["p", "tau", "alpha", "var"], [[args.p, args.tau, args.alpha, loss]],
              [("var", loss)])
        return 0
    if cmd == "tax":
        out = tax_policy_check(args.cost, args.inference, args.n, args.rho, args.tax)
        _emit(args, ["theta_tau", "theta_zero", "welfare", "check_value", "recommend_tax"],
              [[out.theta_tau, out.theta_zero, out.welfare, out.check_value, out.recommend_tax]],
              [("theta_tau", out.theta_tau), ("welfare", out.welfare),
               ("recommend_tax", out.recommend_tax)])
        return 0
    if cmd == "supply-shock":
        out = two_part_supply(args.cost, args.inference, args.eps)
        _emit(args, ["theta1", "theta2", "condition_ok"],
              [[out.theta1, out.theta2, out.condition_ok]],
              [("theta1", out.theta1), ("theta2", out.theta2), ("condition_ok", out.condition_ok)])
        return 0
    if cmd == "dynamics":
        traj = simulate_dynamics(args.cost, args.inference, args.n,
                                 MarkovShock(args.p_xi, args.q_xi), args.gamma,
                                 args.theta0, args.rho0, args.T)
        rows = [[int(t), th, rh] for t, th, rh in zip(traj.t, traj.theta, traj.rho)]
        _emit(args, ["t", "theta", "rho"], rows,
              [("theta_final", traj.final_theta()), ("rho_final", float(traj.rho[-1]))])
        return 0
    if cmd == "simulate":
        if not isinstance(args.dgp, RhoMixture):
            raise ConfigError("simulate currently draws from rho-mixture laws (rho:<value>)")
        if args.draws < 2:  # one draw has no sample correlation
            raise ConfigError(f"--draws must be at least 2, got {args.draws}")
        bits = sample_correlated(args.n, args.theta, args.dgp.rho, SeedableRng(args.seed),
                                 size=args.draws)
        counts = np.bincount(bits.sum(axis=1), minlength=args.n + 1)
        pmf = action_count_pmf(args.dgp, args.n, args.theta)
        rows = [[y, int(counts[y]), pmf.probs[y]] for y in range(args.n + 1)]
        corr = pairwise_correlation(bits) if args.n > 1 else 0.0
        _emit(args, ["count", "observed", "exact_prob"], rows,
              [("draws", args.draws), ("pairwise_correlation", corr)])
        return 0
    if cmd == "info":
        pmf = action_count_pmf(args.dgp, args.n, args.theta)
        psi = informativeness(args.n, pmf, args.theta)
        _emit(args, ["n", "theta", "informativeness"], [[args.n, args.theta, psi]],
              [("informativeness", psi)])
        return 0
    if cmd == "mc":
        out = mc_population_equilibrium(args.cost, args.inference, args.n, args.dgp,
                                        num_agents=args.agents, rng=SeedableRng(args.seed))
        _emit(args, ["theta_hat", "stderr", "sweeps"],
              [[out.theta_hat, out.stderr, out.sweeps_used]],
              [("theta_hat", out.theta_hat), ("stderr", out.stderr)])
        return 0
    if cmd == "repro":
        rows = run_repro()
        _emit(args, ["name", "expected", "computed", "abs_err", "tol", "status", "note"],
              [[r.name, r.expected, r.computed, r.err, r.tol, r.status, r.note] for r in rows], [])
        print(format_table(rows))
        return 0 if all(r.status != "FAIL" for r in rows) else 1
    raise ConfigError(f"unhandled command {cmd}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(list(sys.argv[1:] if argv is None else argv))
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.out:
            _check_out(args.out)
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
