import importlib
import pkgutil

import pytest

import adasde

MODULES = [f"adasde.{info.name}" for info in pkgutil.iter_modules(adasde.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_exists(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined {missing}"


def test_every_module_is_checked():
    # a package layout the discovery misses would make the check above vacuous
    assert {"adasde.stats", "adasde.ngos", "adasde.moments", "adasde.harness"} <= set(MODULES)
