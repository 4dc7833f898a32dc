import ast
import importlib
import pathlib
import pkgutil

import pytest

import adasde
from adasde.optimizers import ALGORITHMS

MODULES = [f"adasde.{info.name}" for info in pkgutil.iter_modules(adasde.__path__)]
BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_exists(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined {missing}"


def test_every_module_is_checked():
    # a package layout the discovery misses would make the check above vacuous
    assert {"adasde.stats", "adasde.ngos", "adasde.harness"} <= set(MODULES)


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


def _harness_call_sites(callee: str) -> list[str]:
    """``function:line`` of each call of ``callee`` in harness, by the top-level def holding it."""
    tree = ast.parse(pathlib.Path(importlib.import_module("adasde.harness").__file__).read_text())
    return [
        f"{getattr(top, 'name', '<module>')}:{node.lineno}"
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == callee
    ]


def test_harness_draws_normals_only_on_the_shared_path():
    # every comparison rides harness._shared_path, which draws each block
    # through _path_block; a second call site of standard_normal there would
    # be a second path mechanism
    sites = _harness_call_sites("standard_normal")
    assert len(sites) == 1 and sites[0].startswith("_path_block:"), sites


@pytest.mark.parametrize("callee", ["_SequencedGaussianOracle", "hyperparams_from_constants"])
def test_harness_builds_discrete_cells_in_one_place(callee):
    # an order cell is the cell at eta and SVAG run ell the cell at eta/ell,
    # both built by _cell_start; a second site pinning hyperparameters or
    # building the sequenced oracle would be a second route to a cell
    sites = _harness_call_sites(callee)
    assert len(sites) == 1 and sites[0].startswith("_cell_start:"), sites


# __all__ names that the bench does not reach, each with the reader that keeps
# it (a claim's test, or a check of the library against it); an entry counts as
# a root, so a helper only it uses needs no entry of its own. The bench is the
# only other root: a harness export is not reached because harness defines it
UNREACHED_EXPORTS = {
    "adasde.scaling.sde_constants": "tests/test_scaling.py checks the constant map against it",
}

_LIBRARY = {"adasde", *MODULES}
_TREES = {
    name: ast.parse(pathlib.Path(importlib.import_module(name).__file__).read_text())
    for name in _LIBRARY
}


def _imports(tree: ast.Module, package: str) -> dict[str, tuple[str, str | None]]:
    """Local name -> (module, attribute) for each import, attribute None for a module."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, [package if node.level else None, node.module]))
            for alias in node.names:
                sub = f"{base}.{alias.name}"
                bound[alias.asname or alias.name] = (sub, None) if sub in _LIBRARY else (
                    base, alias.name
                )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = (alias.name if alias.asname else name, None)
    return bound


def _definitions(tree: ast.Module) -> dict[str, list[ast.stmt]]:
    """Each module-level name a def, class or assignment binds, with its statements."""
    defs: dict[str, list[ast.stmt]] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            defs.setdefault(name, []).append(node)
    return defs


_IMPORTS = {name: _imports(tree, "adasde") for name, tree in _TREES.items()}
_DEFS = {name: _definitions(tree) for name, tree in _TREES.items()}

# the one private name that crosses modules: the recorder both runners fill
SHARED_PRIVATE = {("adasde.recording", "_Recorder")}


def test_no_module_imports_another_modules_private_names():
    # a private name imported from another module is an entry point the
    # export audit cannot see; equality also fails on a stale allowlist entry
    crossing = {
        (source, name)
        for module in _LIBRARY
        for source, name in _IMPORTS[module].values()
        if name is not None and name.startswith("_") and source in _LIBRARY
    }
    assert crossing == SHARED_PRIVATE


def _member(module: str, attr: str):
    """Where ``module.attr`` is defined: (module, name) or (module, None); None outside adasde."""
    if module not in _LIBRARY:
        return None
    if f"{module}.{attr}" in _LIBRARY:
        return f"{module}.{attr}", None
    if attr in _DEFS[module]:
        return module, attr
    if attr in _IMPORTS[module]:
        source, name = _IMPORTS[module][attr]
        return (source, None) if name is None else _member(source, name)
    return None


def _references(node: ast.AST, bound: dict) -> set:
    """The adasde definitions a piece of code reads: by name, by attribute, or by string.

    A string lookup is a module followed by a string, as in ``getattr(mod, "f")``
    or the tracer's ``(mod, "f", wrapper)`` targets.
    """

    def target(expr):
        if isinstance(expr, ast.Name):
            source, name = bound.get(expr.id, (None, None))
            return (source, None) if name is None else _member(source, name)
        if isinstance(expr, ast.Attribute):
            base = target(expr.value)
            return _member(base[0], expr.attr) if base and base[1] is None else None
        return None

    refs = set()
    for n in ast.walk(node):
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load):
            refs.add(target(n))
        items = n.elts if isinstance(n, ast.Tuple) else n.args if isinstance(n, ast.Call) else []
        if len(items) >= 2 and isinstance(items[1], ast.Constant) and isinstance(items[1].value, str):
            base = target(items[0])
            if base and base[1] is None:
                refs.add(_member(base[0], items[1].value))
    return {ref for ref in refs if ref and ref[0] in _LIBRARY and ref[1] is not None}


def _scope(module: str) -> dict:
    """A library module's names: its imports, and its own definitions over them."""
    return {**_IMPORTS[module], **{name: (module, name) for name in _DEFS[module]}}


def _reached(roots) -> set:
    seen, todo = set(), list(roots)
    while todo:
        ref = todo.pop()
        if ref in seen:
            continue
        seen.add(ref)
        module, name = ref
        for node in _DEFS[module][name]:
            todo += _references(node, _scope(module))
    return seen


def _bench_roots() -> set:
    """Every adasde definition a ``bench/`` script imports or looks up."""
    roots = set()
    for path in BENCH.glob("*.py"):
        tree = ast.parse(path.read_text())
        roots |= _references(tree, _imports(tree, package=""))
    return roots


def _exports() -> dict[str, tuple[str, str]]:
    """``module.name`` for each __all__ entry, with the definition it names."""
    return {
        f"{module}.{name}": _member(module, name)
        for module in MODULES
        for name in getattr(importlib.import_module(module), "__all__", ())
    }


def _exempted(key: str) -> set:
    """The definitions an exemption covers: one export, or every export of a module."""
    return {ref for name, ref in _exports().items() if name == key or name.startswith(key + ".")}


def test_bench_roots_are_found():
    # the bench is the audit's one root besides the exemptions; it reaches
    # these by an import, an attribute and a string lookup
    assert {
        ("adasde.scaling", "make_plan"),  # from adasde.scaling import make_plan
        ("adasde.ngos", "BernoulliNoiseOracle"),  # ngos.BernoulliNoiseOracle
        ("adasde.linalg", "psd_sqrt"),  # (problems, "psd_sqrt", ...)
    } <= _bench_roots()


def _audit(exemptions) -> tuple[list, list]:
    """The exports no root reaches, and the exemptions that name nothing or are reached."""
    exempt = {key: _exempted(key) for key in exemptions}
    plain = _reached(_bench_roots())
    reached = _reached(plain.union(*exempt.values()))
    unread = sorted(name for name, ref in _exports().items() if ref not in reached)
    stale = sorted(key for key, refs in exempt.items() if not refs or refs <= plain)
    return unread, stale


def test_every_export_is_reached():
    unread, stale = _audit(UNREACHED_EXPORTS)
    assert not unread, f"exported, but bench/ does not reach them and no exemption names a reader: {unread}"
    assert not stale, f"exemptions that name nothing or that the roots already reach: {stale}"


@pytest.mark.parametrize("key", sorted(UNREACHED_EXPORTS))
def test_each_exemption_is_needed(key):
    # without its entry, what it covers reads as unread, even with the others as roots
    unread, _ = _audit(UNREACHED_EXPORTS.keys() - {key})
    covered = [name for name in _exports() if name == key or name.startswith(key + ".")]
    assert covered and set(covered) <= set(unread)


@pytest.mark.parametrize("key", ["adasde.harness.order_sweep", "adasde.ngos.no_such_name"])
def test_stale_exemption_fails(key):
    # one that the roots reach without it, and one that names nothing
    assert _audit({**UNREACHED_EXPORTS, key: "stale"}) == ([], [key])
