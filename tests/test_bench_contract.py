"""The benchmark tracer still finds every name it wraps.

``perfbench/tracing.py`` wraps the package's public functions at the module
attributes each layer calls through.  A renamed or deleted name would only
show in a traced benchmark pass; installing and uninstalling the tracer here
makes it fail the test suite instead.
"""

import importlib
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture
def traced(tracing):
    modules = {name: importlib.import_module(name) for name in tracing.PACKAGE_MODULES}
    before = {name: dict(vars(module)) for name, module in modules.items()}
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        yield tracer, modules
    finally:
        tracer.uninstall()
    for name, module in modules.items():
        for key, value in before[name].items():
            assert vars(module)[key] is value, f"{name}.{key} not restored"


def test_install_wraps_and_uninstall_restores(traced):
    tracer, modules = traced
    eq = modules["cosesi.equilibrium"]
    model = modules["cosesi.model"]
    eq.solve_cosesi(model.power_cost(3), model.MLE(), 3, 0.3)
    metrics = tracer.layer_metrics()
    assert metrics["equilibrium.residual.evals"] > 0
    assert metrics["model.count_law.calls"] > 0
    assert metrics["equilibrium.cost_grid.calls"] == 1


def test_limit_paths_never_reach_the_count_law(traced):
    # the count-law payload reads int(n) + 1, which fails for n = inf
    tracer, modules = traced
    eq = modules["cosesi.equilibrium"]
    model = modules["cosesi.model"]
    app = modules["cosesi.applications"]
    dyn = modules["cosesi.dynamics"]
    c = model.power_cost(3)
    eq.solve_cosesi(c, model.MLE(), 200_000, 0.3)
    eq.solve_heterogeneous([(1.0, model.MLE(), 200_000)], c, 0.3)
    app.monopoly_demand(0.3, 0.5, n=200_000)
    app.solve_two_sided(app.TwoSidedSpec(0.3, k=math.inf, n=math.inf, rho_w=0.5))
    dyn.simulate_dynamics(c, model.MLE(), 200_000, dyn.MarkovShockChain(0.2, 0.8), 0.1, 0.5, 0.0, 20)
    app.tax_policy_check(c, model.MLE(), 200_000, 0.3, 0.1)
    eq.enumerate_cosesi(model.s_shaped_cost(), 200_000, 0.3, 1e-3)
    app.solve_bank_cosesi(app.CreditSpec(0.0, 0.5, 200_000, model.affine_cost(1.0, -1.0)))
    metrics = tracer.layer_metrics()
    assert metrics["model.count_law.calls"] == 0
    assert metrics["equilibrium.cost_grid.calls"] == 0
