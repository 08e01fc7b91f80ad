"""In-memory span tracer that wraps cosesi's public functions from outside.

Each wrapped function is replaced, for the duration of a traced pass, at
every module attribute through which a calling layer looks it up (for
example ``cosesi.equilibrium.action_count_pmf`` and
``cosesi.applications.solve_bracketed``).  A wrapper records one span per
call: name, start, end, parent span, the workload instance it belongs to and
an optional integer payload (cells of a count-law call, roots found by a
scan, Monte Carlo sweeps).  Residual callables handed to ``solve_bracketed``
and ``find_sign_changes`` are wrapped as ``equilibrium.residual`` spans.

Spans stay in compact arrays until the pass ends; :meth:`Tracer.save` writes
them out and :meth:`Tracer.layer_metrics` reduces them to the per-layer
metrics.  Self time of a span is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

PACKAGE_MODULES = (
    "cosesi",
    "cosesi.numerics",
    "cosesi.model",
    "cosesi.equilibrium",
    "cosesi.applications",
    "cosesi.dynamics",
    "cosesi.sampling",
    "cosesi.repro",
    "cosesi.cli",
)

COUNT_LAW = (
    "model.action_count_pmf",
    "model.binom_pmf",
    "model.bernstein",
    "model.weighted_bernstein",
)

APPLICATIONS = (
    "monopoly_optimize",
    "solve_bank_cosesi",
    "tax_policy_check",
    "solve_two_sided",
    "mixed_population_employment",
    "two_part_supply",
)

EQUILIBRIUM_SOLVERS = (
    "cost_grid",
    "solve_ne",
    "solve_cosesi",
    "cosesi_rho1_closed",
    "enumerate_cosesi",
    "variation_diagnostic",
    "solve_assortative",
    "solve_bayesian_cosesi",
    "solve_heterogeneous",
    "solve_general_cmb",
    "solve_with_dgp",
    "sweep",
)

SAMPLING = (
    "sample_correlated",
    "sequential_sample",
    "bahadur_joint",
    "joint_from_conditionals",
    "balance_check",
    "informativeness",
    "chi_square_gof",
    "pairwise_correlation",
    "asymptotic_action_prob",
)


def _count_cells(arg_index):
    """Payload: n + 1 cells, with n the positional argument at ``arg_index``."""

    def payload(args, kwargs, result):
        n = args[arg_index] if len(args) > arg_index else kwargs.get("n", 0)
        return int(n) + 1

    return payload


def _scan_roots(args, kwargs, result):
    return len(result.brackets) + len(result.node_roots)


def _mc_sweeps(args, kwargs, result):
    return int(result.sweeps_used)


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._code: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.instance = array("i")
        self.payload = array("q")
        self._stack: list[int] = []
        self.current_instance = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _code_of(self, name: str) -> int:
        code = self._code.get(name)
        if code is None:
            code = self._code[name] = len(self.names)
            self.names.append(name)
        return code

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._code_of(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.instance.append(self.current_instance)
        self.payload.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, payload: int = 0) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if payload:
            self.payload[idx] = payload

    def _wrap(self, name: str, fn, payload=None, wraps_residual=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if wraps_residual and args:
                args = (tracer._wrap_residual(args[0]),) + args[1:]
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(idx, payload(args, kwargs, result) if payload else 0)
            return result

        return wrapper

    def _wrap_residual(self, f):
        tracer = self

        def residual(x):
            idx = tracer.open("equilibrium.residual")
            try:
                return f(x)
            finally:
                tracer.close(idx)

        return residual

    # -- installation --------------------------------------------------------

    def install(self, modules: dict[str, object]) -> None:
        """Wrap every traced function at each module attribute bound to it."""
        targets: list[tuple[object, str, object, dict]] = []
        numerics = modules["cosesi.numerics"]
        model = modules["cosesi.model"]
        equilibrium = modules["cosesi.equilibrium"]
        targets.append((numerics, "integrate", "numerics.integrate", {}))
        targets.append(
            (numerics, "find_sign_changes", "numerics.find_sign_changes",
             {"payload": _scan_roots, "wraps_residual": True})
        )
        targets.append(
            (numerics, "solve_bracketed", "numerics.solve_bracketed", {"wraps_residual": True})
        )
        targets.append((model, "action_count_pmf", "model.action_count_pmf",
                        {"payload": _count_cells(1)}))
        for fn_name in ("binom_pmf", "bernstein", "weighted_bernstein"):
            targets.append((model, fn_name, f"model.{fn_name}", {"payload": _count_cells(0)}))
        for fn_name in EQUILIBRIUM_SOLVERS:
            targets.append((equilibrium, fn_name, f"equilibrium.{fn_name}", {}))
        for fn_name in APPLICATIONS:
            targets.append((modules["cosesi.applications"], fn_name, f"applications.{fn_name}", {}))
        dynamics = modules["cosesi.dynamics"]
        targets.append((dynamics, "mc_population_equilibrium", "dynamics.mc_population_equilibrium",
                        {"payload": _mc_sweeps}))
        targets.append((dynamics, "simulate_dynamics", "dynamics.simulate_dynamics", {}))
        for fn_name in SAMPLING:
            targets.append((modules["cosesi.sampling"], fn_name, f"sampling.{fn_name}", {}))
        targets.append((modules["cosesi.repro"], "run_repro", "repro.run_repro", {}))
        targets.append((modules["cosesi.cli"], "main", "cli.main", {}))

        for home, attr, span_name, opts in targets:
            original = getattr(home, attr)
            wrapper = self._wrap(span_name, original, **opts)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)

        # inference procedures: C_{n,z} goes through each class's expected_value
        for cls_name in ("MLE", "BetaEstimation", "BayesBeta"):
            cls = getattr(model, cls_name)
            original = cls.__dict__["expected_value"]
            self._patches.append((cls, "expected_value", original))
            setattr(cls, "expected_value", self._wrap("model.expected_value", original))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "instance": np.frombuffer(self.instance, dtype=np.int32).copy(),
            "payload": np.frombuffer(self.payload, dtype=np.int64).copy(),
            "names": np.array(self.names, dtype=object).astype(str),
        }

    def save(self, path) -> None:
        """Write every span as arrays in one ``.npz`` file."""
        np.savez(path, **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Reduce the spans to the benchmark's per-layer metrics."""
        a = self.arrays()
        names = list(a["names"])
        code = {name: i for i, name in enumerate(names)}
        nid, parent, payload = a["name_id"], a["parent"], a["payload"]
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        k = len(names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=self_t, minlength=k)
        pay = np.bincount(nid, weights=payload.astype(float), minlength=k)

        def of(arr, name):
            return arr[code[name]] if name in code else 0

        def children_of(kind, parent_name):
            """Spans named ``kind`` whose direct parent is named ``parent_name``."""
            if kind not in code or parent_name not in code:
                return 0
            mask = (nid == code[kind]) & has_parent
            return int(np.count_nonzero(nid[parent[mask]] == code[parent_name]))

        def under(kind, ancestor_name):
            """Spans named ``kind`` with an ancestor named ``ancestor_name``."""
            if kind not in code or ancestor_name not in code:
                return 0
            target, total = code[ancestor_name], 0
            for i in np.flatnonzero(nid == code[kind]):
                p = parent[i]
                while p >= 0 and nid[p] != target:
                    p = parent[p]
                total += p >= 0
            return int(total)

        m: dict[str, float] = {}
        m["cli.main.self_s"] = float(of(self_s, "cli.main"))
        m["repro.run_repro.self_s"] = float(of(self_s, "repro.run_repro"))
        m["sampling.self_s"] = float(sum(self_s[i] for n, i in code.items() if n.startswith("sampling.")))
        m["equilibrium.cost_grid.calls"] = int(of(calls, "equilibrium.cost_grid"))
        m["equilibrium.cost_grid.self_s"] = float(of(self_s, "equilibrium.cost_grid"))
        m["model.expected_value.calls"] = int(of(calls, "model.expected_value"))
        m["numerics.integrate.calls"] = int(of(calls, "numerics.integrate"))
        m["numerics.integrate.self_s"] = float(of(self_s, "numerics.integrate"))
        m["model.count_law.calls"] = int(sum(of(calls, n) for n in COUNT_LAW))
        m["model.count_law.cells"] = int(sum(of(pay, n) for n in COUNT_LAW))
        m["model.count_law.self_s"] = float(sum(of(self_s, n) for n in COUNT_LAW))
        m["equilibrium.residual.evals"] = int(of(calls, "equilibrium.residual"))
        m["equilibrium.residual.self_s"] = float(of(self_s, "equilibrium.residual"))
        scan_evals = children_of("equilibrium.residual", "numerics.find_sign_changes")
        scan_roots = int(of(pay, "numerics.find_sign_changes"))
        m["numerics.find_sign_changes.calls"] = int(of(calls, "numerics.find_sign_changes"))
        m["numerics.find_sign_changes.evals"] = scan_evals
        m["numerics.find_sign_changes.self_s"] = float(of(self_s, "numerics.find_sign_changes"))
        m["numerics.find_sign_changes.roots_per_kevals"] = (
            1000.0 * scan_roots / scan_evals if scan_evals else 0.0
        )
        solve_calls = int(of(calls, "numerics.solve_bracketed"))
        solve_evals = children_of("equilibrium.residual", "numerics.solve_bracketed")
        m["numerics.solve_bracketed.calls"] = solve_calls
        m["numerics.solve_bracketed.evals"] = solve_evals
        m["numerics.solve_bracketed.evals_per_call"] = solve_evals / solve_calls if solve_calls else 0.0
        m["numerics.solve_bracketed.self_s"] = float(of(self_s, "numerics.solve_bracketed"))
        for fn_name in APPLICATIONS:
            m[f"applications.{fn_name}.calls"] = int(of(calls, f"applications.{fn_name}"))
            m[f"applications.{fn_name}.self_s"] = float(of(self_s, f"applications.{fn_name}"))
        m["applications.monopoly_optimize.demand_solves"] = under(
            "numerics.solve_bracketed", "applications.monopoly_optimize"
        )
        m["dynamics.mc_population_equilibrium.self_s"] = float(
            of(self_s, "dynamics.mc_population_equilibrium")
        )
        m["dynamics.mc_population_equilibrium.sweeps"] = int(of(pay, "dynamics.mc_population_equilibrium"))
        m["dynamics.simulate_dynamics.self_s"] = float(of(self_s, "dynamics.simulate_dynamics"))
        return m
