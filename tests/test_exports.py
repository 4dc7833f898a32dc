import ast
import importlib
import pathlib
import pkgutil

import pytest

import adasde
from adasde.optimizers import ALGORITHMS

MODULES = [f"adasde.{info.name}" for info in pkgutil.iter_modules(adasde.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_exists(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined {missing}"


def test_every_module_is_checked():
    # a package layout the discovery misses would make the check above vacuous
    assert {"adasde.stats", "adasde.ngos", "adasde.moments", "adasde.harness"} <= set(MODULES)


def _unused_imports(module_name: str) -> list[str]:
    """Names a module imports but neither reads nor lists in its ``__all__``."""
    module = importlib.import_module(module_name)
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - set(getattr(module, "__all__", ())))


def test_no_unused_imports():
    unused = {name: names for name in MODULES if (names := _unused_imports(name))}
    assert not unused, f"imported but never read: {unused}"


def _unused_parameters(module_name: str) -> list[str]:
    """``function(param)`` for each parameter a module-level function never reads.

    Methods and closures are exempt: they implement an interface
    (``drift(x, t)``, ``sample(theta, rng)``) whose every argument a given
    implementation need not read. A read inside a closure counts for the
    enclosing function.
    """
    module = importlib.import_module(module_name)
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None
        ]
        read = {
            n.id for stmt in node.body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unused += [f"{node.name}({p.arg})" for p in params if p.arg not in read]
    return unused


def test_no_unused_parameters():
    unused = {name: names for name in MODULES if (names := _unused_parameters(name))}
    assert not unused, f"parameters never read: {unused}"


def _algorithm_lists(module_name: str) -> list[str]:
    """``line: literal`` for each tuple, list or set literal of two or more algorithm names.

    Which algorithms share a trait is said once, in ``optimizers`` (the
    steps) and ``scaling`` (``DECAYS``); a list spelled out anywhere else
    goes stale when an algorithm is added.
    """
    module = importlib.import_module(module_name)
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            continue
        names = [e for e in node.elts if isinstance(e, ast.Constant) and e.value in ALGORITHMS]
        if len(names) >= 2:
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_no_algorithm_lists_outside_their_owners():
    owners = {"adasde.optimizers", "adasde.scaling"}
    lists = {
        name: found for name in MODULES if name not in owners and (found := _algorithm_lists(name))
    }
    assert not lists, f"algorithm names listed outside optimizers and scaling: {lists}"
