"""The package's exports: lazy, and each the very object of its home module."""

import importlib
import subprocess
import sys

import pytest

import cosesi

from conftest import subprocess_env


@pytest.mark.parametrize("name", cosesi.__all__)
def test_export_is_its_home_modules_object(name):
    home = importlib.import_module(f"cosesi.{cosesi._HOME[name]}")
    assert name in home.__all__
    assert getattr(cosesi, name) is getattr(home, name)


def test_star_import_and_dir_list_every_export():
    namespace: dict = {}
    exec("from cosesi import *", namespace)
    assert set(cosesi.__all__) <= set(namespace)
    assert set(cosesi.__all__) <= set(dir(cosesi))
    assert len(set(cosesi.__all__)) == len(cosesi.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'cosesi' has no attribute 'solve_everything'$"):
        cosesi.solve_everything
    assert not hasattr(cosesi, "solve_everything")


def test_import_loads_no_submodule_until_first_use():
    script = (
        "import sys, cosesi\n"
        "def loaded(): return [m for m in sys.modules if m.startswith('cosesi.')]\n"
        "print(loaded())\n"
        "cosesi.model; print('cosesi.model' in loaded(), 'cosesi.sampling' in loaded())\n"
        "cosesi.SeedableRng; print('cosesi.sampling' in loaded(), 'SeedableRng' in vars(cosesi))\n"
        "print(cosesi.model is sys.modules['cosesi.model'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True False", "True True", "True"]
