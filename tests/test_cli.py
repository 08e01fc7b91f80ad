import argparse
import importlib
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from cosesi import applications, cli, equilibrium, model, repro, sampling
from cosesi.cli import build_parser, main

from conftest import subprocess_env

SUBCOMMANDS = [
    "ne", "cosesi", "sweep", "enumerate", "assortative", "bayes", "hetero",
    "market", "monopoly", "bank", "var", "tax", "supply-shock", "dynamics",
    "simulate", "info", "mc", "repro",
]


def _not_solved(*args, **kwargs):
    raise AssertionError("the input is refused before anything is solved")


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def _readme_commands():
    """The `cosesi ...` lines of the README's command-line block, comments dropped."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```")[1]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    return [line for line in lines if line.startswith("cosesi ")]


README_COMMANDS = _readme_commands()
GOLDEN = Path(__file__).resolve().parent / "golden"


class TestParsing:
    @pytest.mark.parametrize("cmd", SUBCOMMANDS)
    def test_help_lists_flags(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--out" in out
        assert ("--seed" in out) == (cmd in ("simulate", "mc"))

    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["ne", "--frobnicate"])
        assert exc.value.code == 2


def _exit_and_output(call, capsys):
    """(exit code, stdout, stderr) of ``call()``, which may exit through SystemExit."""
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestOneParserPerCall:
    """``main`` builds only the named subcommand's parser; what that parser
    would not take whole goes to the full parser, so every text is the same."""

    @pytest.mark.parametrize("argv", [
        ["--help"],
        *([cmd, "--help"] for cmd in SUBCOMMANDS),
        ["--version"],
        [],
        ["walrus"],
        ["ne", "--bogus"],
        ["cosesi", "--n", "x"],
        ["dynamics", "--n", "x"],
        ["dynamics", "--rho", "1"],  # abbreviations are off for dynamics
        ["--cost", "pow:3", "ne"],
    ])
    def test_same_bytes_as_the_full_parser(self, argv, capsys):
        assert _exit_and_output(lambda: main(argv), capsys) == _exit_and_output(
            lambda: build_parser().parse_args(argv), capsys)

    @pytest.mark.parametrize("argv", [["ne", "--cost", "pow:3"], ["cosesi", "--config", "run.cfg"]])
    def test_known_command_builds_one_parser(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("cost = pow:4\nrho = 1\n")
        progs = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("main built the full parser"))
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err
        assert progs == [f"cosesi {argv[0]}"]


class TestCommands:
    def test_cosesi_full_correlation_prints_half(self, capsys):
        code, out, _ = run_cli(
            ["cosesi", "--cost", "pow:4", "--inference", "mle", "--n", "2", "--rho", "1"],
            capsys,
        )
        assert code == 0
        assert "0.5" in out

    def test_ne(self, capsys):
        code, out, _ = run_cli(["ne", "--cost", "pow:3"], capsys)
        assert code == 0
        assert "0.682327" in out

    def test_info_polarized(self, capsys):
        code, out, _ = run_cli(
            ["info", "--dgp", "rho:1", "--n", "200", "--theta", "0.3"], capsys
        )
        assert code == 0
        psi = float(out.strip().split("=")[-1])
        assert psi < 0.02

    def test_sweep(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            ["sweep", "--axis", "rho", "--cost", "pow:3", "--n", "3",
             "--values", "0,0.5,1", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "axis,value,theta_star"
        assert len(lines) == 4

    def test_market_and_mixed(self, capsys):
        code, out, _ = run_cli(
            ["market", "--lam", "0.3", "--rho-w", "1", "--rho-f", "1", "--kappa", "0.5"],
            capsys,
        )
        assert code == 0
        fields = dict(line.split("=") for line in out.strip().splitlines())
        assert float(fields["employment"]) == pytest.approx(0.027, abs=1e-6)

    def test_var(self, capsys):
        code, out, _ = run_cli(["var", "--p", "0.05", "--tau", "0.9", "--alpha", "0.95"], capsys)
        assert code == 0
        assert out.strip().endswith("0.5")

    def test_assortative(self, capsys):
        code, out, _ = run_cli(
            ["assortative", "--cost", "linear", "--n", "1", "--rho-fn", "identity"], capsys
        )
        assert code == 0
        assert "theta_star=0.5" in out

    @pytest.mark.parametrize("k", ["0.001", "0.05", "0.1", "0.15", "0.16"])
    def test_assortative_power_rho_with_a_zero_cost_cell(self, k, capsys):
        # the cell C = 0 puts the cusp of eta^k at the end of its tail integral
        code, out, err = run_cli(
            ["assortative", "--cost", "pow:2", "--n", "10", "--rho-fn", f"power:{k}"], capsys
        )
        assert code == 0, err
        assert out.startswith("theta_star=0.49")

    def test_bayes(self, capsys):
        code, out, _ = run_cli(
            ["bayes", "--cost", "pow:2", "--alpha", "1", "--beta", "1", "--n", "2",
             "--rho", "1", "--zeta", "0.5"],
            capsys,
        )
        assert code == 0
        fields = dict(line.split("=") for line in out.strip().splitlines())
        assert 0.0 < float(fields["theta_star"]) < 1.0

    def test_hetero(self, capsys):
        code, out, _ = run_cli(
            ["hetero", "--groups", "0.5:mle:2,0.5:mle:5", "--cost", "pow:4"], capsys
        )
        assert code == 0
        assert "theta_star=" in out

    def test_monopoly(self, capsys):
        code, out, _ = run_cli(["monopoly", "--rho", "1", "--t", "6", "--n", "2"], capsys)
        assert code == 0
        fields = dict(line.split("=") for line in out.strip().splitlines())
        assert float(fields["profit_star"]) == pytest.approx(0.1716, abs=5e-3)

    def test_enumerate(self, capsys):
        code, out, _ = run_cli(["enumerate", "--n", "12", "--rho", "1"], capsys)
        assert code == 0
        assert "num_roots=1" in out

    def test_enumerate_s_shape_at_full_correlation(self, capsys):
        code, out, _ = run_cli(["enumerate", "--cost", "sshape", "--n", "12", "--rho", "1"], capsys)
        assert code == 0
        assert "num_roots=1" in out

    def test_bank(self, capsys):
        code, out, _ = run_cli(
            ["bank", "--omega", "0", "--rho", "0.5", "--n", "2", "--cost", "affine:1,-1"],
            capsys,
        )
        assert code == 0
        fields = dict(line.split("=") for line in out.strip().splitlines())
        assert float(fields["theta_star"]) == pytest.approx(0.5, abs=1e-6)

    def test_tax(self, capsys):
        code, out, _ = run_cli(["tax", "--cost", "pow:2", "--n", "2", "--rho", "1"], capsys)
        assert code == 0
        assert "recommend_tax=False" in out

    def test_supply_shock(self, capsys):
        code, out, _ = run_cli(["supply-shock", "--cost", "pow:2", "--eps", "-0.05"], capsys)
        assert code == 0
        fields = dict(line.split("=") for line in out.strip().splitlines())
        assert float(fields["theta1"]) > float(fields["theta2"])

    def test_dynamics(self, capsys):
        code, out, _ = run_cli(
            ["dynamics", "--cost", "pow:4", "--n", "2", "--p-xi", "0", "--q-xi", "0.5",
             "--gamma", "0.1", "--theta0", "0.9", "--rho0", "0", "--T", "500"],
            capsys,
        )
        assert code == 0
        fields = dict(line.split("=") for line in out.strip().splitlines())
        assert float(fields["theta_final"]) == pytest.approx(0.6045892, abs=1e-4)

    def test_mc(self, capsys):
        code, out, _ = run_cli(
            ["mc", "--cost", "pow:4", "--n", "2", "--dgp", "rho:0", "--agents", "20000",
             "--seed", "11"],
            capsys,
        )
        assert code == 0
        fields = dict(line.split("=") for line in out.strip().splitlines())
        assert float(fields["theta_hat"]) == pytest.approx(0.6046, abs=0.01)

    @pytest.mark.parametrize("cost, want", [("pow:3", "0.831578947368"), ("affine:0.9,-0.5", "0.338461538462")])
    def test_cmb_1e15_prints_the_infinite_law(self, cost, want, capsys):
        # comb(7, 3)**nu and comb(7, 4)**nu must be equal: nu times a one-ulp gap in
        # their logs moves the central pair's weights (0.818, 0.182 against 0.7, 0.3)
        for nu in ("1e15", "inf"):
            code, out, _ = run_cli(["cosesi", "--cost", cost, "--n", "7", "--dgp", f"cmb:{nu}"], capsys)
            assert (code, out) == (0, f"theta_star={want}\n")

    @pytest.mark.parametrize("args", [
        ["cosesi", "--cost", "pow:3", "--n", "10"],
        ["cosesi", "--cost", "affine:0.9,-0.5", "--n", "10"],
        ["cosesi", "--cost", "pow:3", "--n", "7"],
        ["info", "--n", "10", "--theta", "0.3"],
        ["mc", "--cost", "exp:2", "--n", "7", "--agents", "10000", "--seed", "3"],
    ])
    @pytest.mark.parametrize("nu", ["1e308", "-1e308"])
    def test_cmb_1e308_is_the_infinite_law(self, args, nu, capsys):
        # nu log comb(n, y) overflows: each such weight must be 0, with no RuntimeWarning
        want = run_cli(args + ["--dgp", "cmb:" + nu.replace("1e308", "inf")], capsys)
        assert want[0] == 0
        assert run_cli(args + ["--dgp", f"cmb:{nu}"], capsys) == want

    @pytest.mark.parametrize("args", [
        ["monopoly", "--rho", "1.5"],
        ["tax", "--cost", "pow:2", "--rho", "-0.2", "--tax", "0.1"],
    ])
    def test_inadmissible_rho_exits_1(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 1
        assert out == ""
        assert "rho must be in [0,1]" in err

    @pytest.mark.parametrize("args", [
        ["cosesi", "--dgp", "rho"],
        ["cosesi", "--dgp", "markov:0.2"],
        ["cosesi", "--dgp", "markov:2,0.5"],
        ["cosesi", "--dgp", "walrus:1"],
        ["cosesi", "--cost", "pow:abc"],
        ["cosesi", "--inference", "bayes:1,x,0"],
        ["cosesi", "--inference", "bayes:1,1,0.5"],
        ["assortative", "--rho-fn", "const:"],
        ["hetero", "--groups", "0.5:mle"],
        ["hetero", "--groups", "0.5:mle:x,0.5:mle:2"],
        ["sweep", "--values", "0,x"],
        ["mc", "--dgp", "cmb"],
        ["cosesi", "--dgp", "seq:1.2"],
    ])
    def test_malformed_spec_exits_2(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("config error: ")

    @pytest.mark.parametrize("cmd", ["cosesi", "simulate", "info", "mc"])
    def test_rho_mixture_outside_unit_interval_exits_2(self, cmd, capsys):
        code, out, err = run_cli([cmd, "--dgp", "rho:1.5"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("config error: bad --dgp value 'rho:1.5'")

    @pytest.mark.parametrize("rho", ["0.9", "0"])
    def test_rho_with_dgp_exits_2(self, rho, capsys):
        # the count law fixes the correlation, so an explicit --rho is refused, 0 included
        code, out, err = run_cli(["cosesi", "--dgp", "rho:0.4", "--rho", rho, "--n", "3"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("config error: ") and "--rho" in err and "--dgp" in err

    @pytest.mark.parametrize("args", [
        ["dynamics", "--rho", "0.5"],
        ["simulate", "--rho", "0.5"],
        ["info", "--rho", "0.5"],
        ["mc", "--rho", "0.5"],
        ["bayes", "--inference", "beta"],
    ])
    def test_unread_flag_exits_2(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"unrecognized arguments: {' '.join(args[1:])}" in err

    @pytest.mark.parametrize("cmd", [c for c in SUBCOMMANDS if c not in ("simulate", "mc")])
    def test_seed_only_where_randomness_is_drawn(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["cosesi", "--n", "-3"],
        ["tax", "--n", "-2"],
        ["monopoly", "--n", "0"],
        ["mc", "--n", "0"],
    ])
    def test_bad_sample_size_exits_1(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 1
        assert out == ""
        assert err == f"solver error: n must be a positive integer, got {args[-1]}\n"

    @pytest.mark.parametrize("args, message", [
        (["dynamics", "--p-xi", "0", "--q-xi", "0"], "Markov shock needs"),
        (["bank", "--omega", "0", "--rho", "0.5", "--n", "2", "--cost", "linear", "--gaussian-omega"],
         "continuum of bank equilibria"),
        (["enumerate", "--cost", "pow:3", "--n", "5", "--rho", "1"], "continuum of equilibria"),
        (["enumerate", "--cost", "linear", "--n", "12", "--rho", "0"], "continuum of equilibria"),
        (["enumerate", "--cost", "linear", "--n", "200000", "--rho", "0.3"], "continuum of equilibria"),
        (["cosesi", "--cost", "affine:1,-1", "--n", "3", "--rho", "1"], "continuum of equilibria"),
        (["cosesi", "--cost", "affine:1,-1", "--n", "3", "--rho", "1", "--inference", "beta"],
         "continuum of equilibria"),
        # 1 - C_{3,0} + C_{3,1} = 0 with C_{3,0} != 1: the residual is a nonzero constant
        (["cosesi", "--cost", "affine:1.0000000000009095,-1", "--n", "3", "--rho", "1"],
         "no equilibrium at rho = 1: the residual is the constant 1 - C_n,0 = -9.094947017729282e-13"),
    ])
    def test_rejected_law_or_continuum_exits_1(self, args, message, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("solver error: ") and message in err

    def test_population_above_2_53_exits_1(self, capsys):
        code, out, err = run_cli(["mc", "--cost", "pow:3", "--n", "3", "--agents", "9007199254740993"], capsys)
        assert (code, out) == (1, "")
        assert err == ("solver error: population oracle needs an integer number of agents in "
                       "[10000, 2**53], got 9007199254740993\n")

    @pytest.mark.parametrize("eps", ["5", "-1"])
    def test_supply_shock_of_unit_size_exits_1(self, eps, capsys):
        code, out, err = run_cli(["supply-shock", "--eps", eps], capsys)
        assert code == 1
        assert out == ""
        assert err == f"solver error: supply shock needs |eps| < 1, got {eps}\n"

    def test_nan_tax_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(applications, "expected_costs", _not_solved)
        code, out, err = run_cli(["tax", "--tax", "nan"], capsys)
        assert code == 1
        assert out == ""
        assert err == "solver error: tax must be >= 0, got nan\n"

    @pytest.mark.parametrize("t, message", [
        ("nan", "exp_decay rate must be >= 0, got nan"),
        ("inf", "exp_decay rate must be finite, got inf"),
        ("-1", "exp_decay rate must be >= 0, got -1.0"),
    ])
    @pytest.mark.parametrize("rational", [[], ["--rational"]])
    def test_non_finite_encounter_rate_exits_1(self, t, message, rational, capsys, monkeypatch):
        monkeypatch.setattr(applications, "expected_costs", _not_solved)
        monkeypatch.setattr(applications, "solve_decreasing_rows", _not_solved)
        code, out, err = run_cli(["monopoly", "--t", t, *rational], capsys)
        assert code == 1
        assert out == ""
        assert err == f"solver error: {message}\n"

    @pytest.mark.parametrize("args, message", [
        (["--rho", "5"], "rho must be in [0,1], got 5.0"),
        (["--n", "-5"], "n must be a positive integer, got -5"),
    ])
    @pytest.mark.parametrize("rational", [[], ["--rational"]])
    def test_monopoly_rho_or_n_outside_its_region_exits_1(self, args, message, rational, capsys, monkeypatch):
        # the rational demand reads t alone, but its rho and n are checked as the naive demand's
        monkeypatch.setattr(applications, "solve_decreasing_rows", _not_solved)
        monkeypatch.setattr(applications, "_cosesi_roots", _not_solved)
        code, out, err = run_cli(["monopoly", *args, *rational], capsys)
        assert code == 1
        assert out == ""
        assert err == f"solver error: {message}\n"

    @pytest.mark.parametrize("omega", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("gaussian", [[], ["--gaussian-omega"]])
    def test_non_finite_omega_exits_1(self, omega, gaussian, capsys, monkeypatch):
        monkeypatch.setattr(applications, "expected_costs", _not_solved)
        code, out, err = run_cli(["bank", f"--omega={omega}", *gaussian], capsys)
        assert code == 1
        assert out == ""
        assert err == f"solver error: credit market needs a finite omega, got {omega}\n"

    @pytest.mark.parametrize("args, code, message", [
        (["cosesi", "--dgp", "cmb:nan", "--cost", "pow:2", "--n", "3"], 2, "CMB needs nu in [-inf, inf], got nan"),
        (["info", "--dgp", "cmb:nan", "--n", "3"], 2, "CMB needs nu in [-inf, inf], got nan"),
        (["cosesi", "--dgp", "addbin:nan", "--n", "3"], 2, "additive binomial needs a finite rho, got nan"),
        (["cosesi", "--inference", "bayes:nan,1,0"], 2,
         "Beta prior parameters must be positive and finite, got (nan, 1.0)"),
        (["cosesi", "--cost", "pow:nan"], 2, "power cost needs d > 0, got nan"),
        (["cosesi", "--cost", "affine:nan,1"], 2, "leaves [0,1] on the unit interval"),
        (["cosesi", "--cost", "affine:0.5,nan"], 2, "leaves [0,1] on the unit interval"),
        (["assortative", "--rho-fn", "const:2", "--n", "3"], 2, "const rho needs x in [0,1], got 2.0"),
        (["assortative", "--rho-fn", "const:nan", "--n", "3"], 2, "const rho needs x in [0,1], got nan"),
        (["assortative", "--rho-fn", "power:nan", "--n", "3"], 2, "power rho needs a finite k >= 0, got nan"),
        (["assortative", "--rho-fn", "power:-1", "--n", "3"], 2, "power rho needs a finite k >= 0, got -1.0"),
        (["simulate", "--theta", "1.5", "--n", "3", "--draws", "1000"], 1, "theta must be in [0,1], got 1.5"),
        (["market", "--kappa", "2"], 1, "kappa must be in [0,1], got 2.0"),
        (["simulate", "--n", "0", "--draws", "1000"], 1, "n must be a positive integer, got 0"),
        # 2**52 bytes: no address space holds them, so no host reaches the draws
        (["simulate", "--n", "4", "--draws", str(2**50)], 1,
         f"cannot allocate {2**50} draws of 4 signals: they need {2**52} bytes"),
    ])
    def test_parameter_outside_its_region_is_refused_before_solving(self, args, code, message, capsys, monkeypatch):
        # cli imports each solver from its home module when the command runs
        for module, name in [(equilibrium, "solve_cosesi"), (equilibrium, "solve_with_dgp"),
                             (equilibrium, "solve_assortative"), (model, "action_count_pmf"),
                             (applications, "solve_two_sided"), (sampling.SeedableRng, "generator")]:
            monkeypatch.setattr(module, name, _not_solved)
        got, out, err = run_cli(args, capsys)
        assert got == code
        assert out == ""
        assert err.startswith("config error: " if code == 2 else "solver error: ") and message in err

    @pytest.mark.parametrize("draws", ["0", "-3", "1"])
    def test_simulate_without_draws_exits_2(self, draws, capsys, tmp_path):
        out_path = tmp_path / "sim.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before sampling: no numpy warning either
            code, out, err = run_cli(["simulate", "--draws", draws, "--out", str(out_path)], capsys)
        assert code == 2
        assert out == "" and not out_path.exists()
        assert err == f"config error: --draws must be at least 2, got {draws}\n"

    def test_simulate_without_sample_correlation_exits_1(self, capsys, tmp_path):
        # at theta = 0 every signal is 0 in every draw
        out_path = tmp_path / "sim.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["simulate", "--theta", "0", "--draws", "5", "--out", str(out_path)], capsys)
        assert code == 1
        assert out == "" and not out_path.exists()
        assert err == "solver error: signal 0 takes one value in every draw: no sample correlation\n"

    def test_bayes_group(self, capsys):
        code, out, err = run_cli(["hetero", "--groups", "0.5:bayes:1,1,0:3,0.5:mle:2"], capsys)
        assert code == 0, err
        assert out == "theta_star=0.584267399204\n"

    def test_polarized_bayes_at_full_correlation(self, capsys):
        code, out, err = run_cli(
            ["cosesi", "--inference", "bayes:1,1,1,0.5", "--rho", "1", "--n", "3"], capsys
        )
        assert code == 0, err
        assert out.startswith("theta_star=")

    def test_sweep_non_integer_n_exits_1(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(
            ["sweep", "--axis", "n", "--values", "2.5,3", "--cost", "pow:3", "--out", str(out_path)],
            capsys,
        )
        assert code == 1
        assert out == "" and not out_path.exists()
        assert "positive integer, got 2.5" in err

    def test_solver_error_exits_1(self, capsys):
        code, _, err = run_cli(
            ["bayes", "--cost", "pow:2", "--n", "2", "--rho", "0.5"], capsys
        )
        assert code == 1
        assert "solver error" in err


class TestConfigAndDeterminism:
    def test_config_file_defaults_and_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("cost = pow:4\nn = 2\nrho = 1\n")
        code, out, _ = run_cli(["cosesi", "--config", str(cfg)], capsys)
        assert code == 0
        assert "theta_star=0.5" in out
        # explicit flag beats the config value
        code, out, _ = run_cli(["cosesi", "--config", str(cfg), "--rho", "0"], capsys)
        assert code == 0
        assert "0.604589" in out

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("walrus = 7\n")
        code, _, err = run_cli(["cosesi", "--config", str(cfg)], capsys)
        assert code == 2
        assert "config error" in err

    def test_missing_config_exits_2(self, capsys):
        code, _, err = run_cli(["cosesi", "--config", "/nonexistent.cfg"], capsys)
        assert code == 2

    def test_byte_identical_csv(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--dgp", "rho:0.6", "--n", "4", "--theta", "0.4",
                "--draws", "20000", "--seed", "7"]
        assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_non_integer_seed_env_reaches_only_seeded_commands(self, monkeypatch, capsys):
        monkeypatch.setenv("COSESI_SEED", "abc")
        code, out, err = run_cli(["ne", "--cost", "pow:3"], capsys)
        assert code == 0, err
        assert "0.682327" in out
        code, out, err = _exit_and_output(lambda: main(["simulate"]), capsys)
        assert code == 2 and out == ""
        assert err.endswith("cosesi simulate: error: argument --seed: invalid int value: 'abc'\n")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--dgp", "rho:0.6", "--n", "4", "--theta", "0.4", "--draws", "2000"],
        ["mc", "--cost", "pow:3", "--n", "3", "--dgp", "rho:0.5", "--agents", "10000"],
    ])
    def test_config_seed_wins_over_seed_env(self, argv, monkeypatch, capsys, tmp_path):
        # the config file replaces the COSESI_SEED default, as an explicit --seed does
        monkeypatch.setenv("COSESI_SEED", "abc")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\n")
        code, out, err = run_cli(argv + ["--config", str(cfg)], capsys)
        assert code == 0, err
        assert (code, out, err) == run_cli(argv + ["--seed", "5"], capsys)
        # a config file without a seed leaves the variable in charge
        cfg.write_text("n = 3\n")
        code, out, err = _exit_and_output(lambda: main(argv + ["--config", str(cfg)]), capsys)
        assert code == 2 and out == ""
        assert err.endswith(f"cosesi {argv[0]}: error: argument --seed: invalid int value: 'abc'\n")

    @pytest.mark.parametrize("cmd, line, message", [
        ("dynamics", "T = 5.5", "cosesi dynamics: error: argument --T: invalid int value: '5.5'\n"),
        ("ne", "command = mc", "config error: unknown config keys for 'ne': ['command']\n"),
        ("market", "rational = 1", "config error: config key 'rational' takes true or false, got '1'\n"),
    ])
    def test_config_value_goes_through_its_flag(self, cmd, line, message, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, out, err = _exit_and_output(lambda: main([cmd, "--config", str(cfg)]), capsys)
        assert code == 2 and out == ""
        assert err.endswith(message)

    @pytest.mark.parametrize("cmd, step", [("enumerate", "1e-3"), ("monopoly", "1e-4")])
    def test_grid_step_is_not_settable(self, cmd, step, capsys, tmp_path):
        # both commands scan on a fixed grid: neither the flag nor the config key exists
        code, out, err = _exit_and_output(lambda: main([cmd, "--grid-step", step]), capsys)
        assert (code, out) == (2, "")
        assert err.endswith(f"cosesi: error: unrecognized arguments: --grid-step {step}\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid_step = 1e-3\n")
        code, out, err = _exit_and_output(lambda: main([cmd, "--config", str(cfg)]), capsys)
        assert (code, out, err) == (2, "", f"config error: unknown config keys for '{cmd}': ['grid_step']\n")

    def test_config_store_true_flag(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rational = True\n")
        assert run_cli(["market", "--config", str(cfg)], capsys) == run_cli(["market", "--rational"], capsys)

    def test_config_out_is_a_path(self, tmp_path):
        # a digit-only value is a file name, not file descriptor 1
        (tmp_path / "run.cfg").write_text("out = 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "cosesi.cli", "ne", "--cost", "linear", "--config", "run.cfg"],
            capture_output=True, text=True, env=subprocess_env(), cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "theta_star=0.5\n"
        assert (tmp_path / "1").read_text().splitlines()[0] == "concept,theta_star,residual"

    @pytest.mark.parametrize("argv", [["ne", "--cost", "pow:3"], ["repro"]])
    def test_unwritable_out_exits_2(self, argv, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(argv + ["--out", str(path)], capsys)
        assert code == 2 and out == ""
        assert err == f"config error: cannot write --out {str(path)!r}: No such file or directory\n"

    @pytest.mark.parametrize("where, reason", [
        ("missing/x.csv", "No such file or directory"),
        ("file.txt/x.csv", "Not a directory"),
        ("", "Is a directory"),
    ])
    def test_unwritable_out_is_refused_before_solving(self, where, reason, capsys, tmp_path, monkeypatch):
        (tmp_path / "file.txt").write_text("")

        def boom():
            raise AssertionError("the suite ran before --out was checked")

        monkeypatch.setattr(repro, "run_repro", boom)
        path = str(tmp_path / where) if where else str(tmp_path)
        code, out, err = run_cli(["repro", "--out", path], capsys)
        assert (code, out) == (2, "")
        assert err == f"config error: cannot write --out {path!r}: {reason}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file.txt"]

    def test_seed_env_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COSESI_SEED", "99")
        args = build_parser().parse_args(["simulate"])
        assert args.seed == 99


class TestReproCommand:
    def test_repro_passes_and_notes_discrepancies(self, capsys, tmp_path):
        out_path = tmp_path / "repro.csv"
        code, out, _ = run_cli(["repro", "--out", str(out_path)], capsys)
        assert code == 0
        assert "0 fail" in out
        assert out.count("PASS-WITH-NOTE") >= 3
        # the three documented source inconsistencies each carry both values
        assert "100% loss" in out
        assert "0.58" in out
        assert "nearly three times" in out
        header = out_path.read_text().splitlines()[0]
        assert header == "name,expected,computed,abs_err,tol,status,note"


class TestReadmeCommands:
    def test_every_subcommand_has_an_example(self):
        assert sorted(shlex.split(c)[1] for c in README_COMMANDS) == sorted(SUBCOMMANDS)

    @pytest.mark.parametrize("command", README_COMMANDS)
    def test_exits_0(self, command, capsys, tmp_path, monkeypatch):
        # stdout and the --out file must match the recorded golden files byte
        # for byte; a deliberate change of output re-records them
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("COSESI_SEED", raising=False)
        argv = shlex.split(command)[1:]
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        assert out == (GOLDEN / f"{argv[0]}.stdout").read_text()
        if "--out" in argv:
            written = tmp_path / argv[argv.index("--out") + 1]
            assert written.read_bytes() == (GOLDEN / f"{argv[0]}.out").read_bytes()


# (subcommand, flag, value): every concrete example that a --help string gives
HELP_EXAMPLES = [
    *(("cosesi", "--cost", cost) for cost in ("pow:4", "linear", "exp:6", "sshape")),
    ("cosesi", "--inference", "mle"),
    ("cosesi", "--inference", "beta"),
    ("cosesi", "--dgp", "cmb:2"),
    pytest.param("cosesi", "--dgp", "addbin:0.05", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 8: the scan evaluates theta = 0, outside the law's admissible set")),
    ("assortative", "--rho-fn", "zero"),
    ("assortative", "--rho-fn", "identity"),
    ("hetero", "--groups", "0.5:mle:2,0.5:mle:5"),
]


@pytest.mark.parametrize("cmd, flag, value", HELP_EXAMPLES)
def test_help_example_exits_0(cmd, flag, value, capsys):
    (action,) = [a for a in build_parser().subparsers_by_name[cmd]._actions if flag in a.option_strings]
    assert value in action.help or value == action.default
    code, out, err = run_cli([cmd, flag, value], capsys)
    assert code == 0, err


# NE, the rational market, the infinite-sample market, tax welfare and a
# rho-mixture count-law scan run through the shared kernel and its large-n
# limit; their output was recorded before that routing.  The rational
# monopoly solves its own equation; its demand rows were re-recorded when the
# root loop became the Anderson-Bjorck lockstep, and its price and quantity
# when the price search became a lockstep grid search.
KERNEL_COMMANDS = {
    "limit-ne": "ne --cost exp:2 --out ne.csv",
    "limit-market-rational": "market --lam 0.3 --rational --out market.csv",
    "limit-market-rational-kappa": "market --lam 0.45 --v 0.3 --rational --kappa 0.2",
    "limit-market-inf": "market --lam 0.3 --k inf --n inf --kappa 0.5 --rho-w 0.3",
    "limit-tax": "tax --cost pow:2 --n 5 --rho 0.4 --tax 0.1 --out tax.csv",
    "limit-monopoly-rational": "monopoly --rational --t 6 --out monopoly.csv",
    "limit-cosesi-dgp-rho": "cosesi --dgp rho:0.4 --n 6 --cost pow:2",
}


@pytest.mark.parametrize("name", sorted(KERNEL_COMMANDS))
def test_kernel_paths_match_golden(name, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("COSESI_SEED", raising=False)
    argv = shlex.split(KERNEL_COMMANDS[name])
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    assert out == (GOLDEN / f"{name}.stdout").read_text()
    if "--out" in argv:
        written = tmp_path / argv[argv.index("--out") + 1]
        assert written.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()


def test_readme_commands_run_without_scipy(tmp_path):
    # numpy is the one run-time dependency: every README command exits 0 with
    # scipy made unimportable before the package loads
    script = (
        "import shlex, sys\n"
        "sys.modules['scipy'] = None\n"
        "from cosesi.cli import main\n"
        "for command in sys.argv[1:]:\n"
        "    if main(shlex.split(command)[1:]) != 0:\n"
        "        sys.exit(f'exit != 0: {command}')\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, *README_COMMANDS], cwd=tmp_path,
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cosesi.cli", "ne", "--cost", "linear"],
        capture_output=True, text=True, env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert "0.5" in proc.stdout


class TestPerCommandImports:
    """Each subcommand imports only its own modules; main still reports the
    typed error of every module as a solver error."""

    def test_loaded_modules(self):
        script = (
            "import sys\n"
            "def loaded(): return sorted(m for m in sys.modules if m.startswith('cosesi'))\n"
            "import cosesi; print(loaded())\n"
            "import cosesi.cli; print(loaded())\n"
            "cosesi.cli.main(['ne', '--cost', 'pow:3']); print(loaded())\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "['cosesi']",
            "['cosesi', 'cosesi.cli']",
            "theta_star=0.682327803828",
            "['cosesi', 'cosesi.cli', 'cosesi.equilibrium', 'cosesi.model', 'cosesi.numerics']",
        ]

    @pytest.mark.parametrize("home, solver, error, argv", [
        ("equilibrium", "solve_ne", "numerics.NumericsError", ["ne"]),
        ("equilibrium", "solve_cosesi", "model.ModelError", ["cosesi"]),
        ("applications", "var_two_borrowers", "applications.ApplicationError", ["var"]),
        ("dynamics", "simulate_dynamics", "dynamics.DynamicsError", ["dynamics", "--T", "3"]),
        ("sampling", "informativeness", "sampling.SamplingError", ["info"]),
    ])
    def test_typed_solver_error_exits_1(self, home, solver, error, argv, capsys, monkeypatch):
        module, name = error.split(".")
        cls = getattr(importlib.import_module(f"cosesi.{module}"), name)

        def fail(*args, **kwargs):
            raise cls("patched failure")

        monkeypatch.setattr(importlib.import_module(f"cosesi.{home}"), solver, fail)
        assert run_cli(argv, capsys) == (1, "", "solver error: patched failure\n")

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_group_weight_is_a_config_error(self, weight, capsys, monkeypatch):
        monkeypatch.setattr(equilibrium, "expected_costs", _not_solved)
        groups = f"{weight}:mle:2,0.5:mle:3"
        code, out, err = run_cli(["hetero", f"--groups={groups}", "--cost", "pow:4"], capsys)
        assert (code, out) == (2, "")
        assert err == (f"config error: bad --groups value {groups!r}: weights must be nonnegative "
                       f"and sum to 1, got [{float(weight)}, 0.5]\n")
