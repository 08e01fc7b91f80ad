import math
import os
from pathlib import Path

import pytest

import cosesi
from cosesi import MLE, BetaEstimation, SeedableRng, power_cost


def subprocess_env() -> dict:
    """Environment whose PYTHONPATH finds the cosesi package this run imported."""
    src = str(Path(cosesi.__file__).resolve().parent.parent)
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


# Analytic targets, each frozen from its stated oracle.
# Quadratic/cubic residual equations of the n = 2 examples (quadratic formula):
ROOT_POW4_MLE_RHO0 = (-9.0 + math.sqrt(305.0)) / 14.0  # 7t^2 + 9t - 8 = 0
ROOT_POW4_BETA_RHO0 = (-7.0 + math.sqrt(109.0)) / 6.0  # 3t^2 + 7t - 5 = 0
ROOT_POW4_MLE_RHO5 = (-25.0 + math.sqrt(1073.0)) / 14.0  # 7t^2 + 25t - 16 = 0
ROOT_POW4_BETA_RHO5 = (-17.0 + math.sqrt(409.0)) / 6.0  # 3t^2 + 17t - 10 = 0
# Real roots of t^3 + t - 1, t^4 + t - 1, and 2t^3 + 6t^2 + 10t - 9 (30-digit
# Newton refinement of the stated cubics/quartic):
NE_POW3 = 0.6823278038280193
NE_POW4 = 0.7244919590005156
SESI3_POW3 = 0.6208577182637018
# (-3 + sqrt(17)) / 2, root of t^2 + 3t - 2 = 0:
TAX_THETA0 = (-3.0 + math.sqrt(17.0)) / 2.0
# (5 - sqrt(17)) / 2, the infinite-sample assortative fixed point:
ASSORT_LIMIT = (5.0 - math.sqrt(17.0)) / 2.0


@pytest.fixture
def mle():
    return MLE()


@pytest.fixture
def beta_est():
    return BetaEstimation()


@pytest.fixture
def pow2():
    return power_cost(2)


@pytest.fixture
def pow3():
    return power_cost(3)


@pytest.fixture
def pow4():
    return power_cost(4)


@pytest.fixture
def rng():
    return SeedableRng(20240817)
