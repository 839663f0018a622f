import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import aqradius

MODULES = sorted(info.name for info in pkgutil.iter_modules(aqradius.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"aqradius.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_module_level_import(name):
    # __init__ star-imports the submodules, so only the submodules are scanned
    tree = ast.parse((Path(aqradius.__file__).parent / f"{name}.py").read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(getattr(importlib.import_module(f"aqradius.{name}"), "__all__", ()))
    unused = {bound: line for bound, line in imported.items() if bound not in used | exported}
    assert not unused


def test_namespace_reexports_exactly_the_submodule_exports():
    # cli exports only main, the console entry point, which is not library API
    exports = set().union(
        *(importlib.import_module(f"aqradius.{name}").__all__ for name in MODULES if name != "cli")
    )
    public = {name for name in vars(aqradius) if not name.startswith("_")} - set(MODULES)
    assert public == exports


def test_no_two_submodules_export_the_same_name():
    # __init__ star-imports each submodule, so a name two of them export would
    # silently take the later module's object
    owners = {}
    for name in MODULES:
        for export in importlib.import_module(f"aqradius.{name}").__all__:
            owners.setdefault(export, []).append(name)
    assert not {export: found for export, found in owners.items() if len(found) > 1}


def test_every_exported_exception_is_raised():
    # a public exception class that no code raises is dead API
    exceptions = {
        name
        for name, obj in vars(aqradius).items()
        if not name.startswith("_") and isinstance(obj, type) and issubclass(obj, Exception)
    }
    raised = set()
    for path in Path(aqradius.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    assert exceptions
    assert not exceptions - raised


def _module_level_names(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return set()
    return {t.id for t in targets if isinstance(t, ast.Name)}


def test_every_private_module_level_name_is_used():
    # a private helper, class or constant that no other statement of the package
    # reads is dead code; a reference inside its own definition does not count
    defined, used = {}, set()
    for path in Path(aqradius.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            own = _module_level_names(top)
            private = {name for name in own if name.startswith("_") and not name.startswith("__")}
            defined.update((name, path.stem) for name in private)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs = {node.id}
                elif isinstance(node, ast.Attribute):
                    refs = {node.attr}
                elif isinstance(node, ast.ImportFrom):
                    refs = {alias.name for alias in node.names}
                else:
                    continue
                used |= refs - own
    assert not {name: module for name, module in defined.items() if name not in used}


@pytest.mark.parametrize("name", ["laws", "sequences"])
def test_callers_leave_the_q_one_route_to_the_estimators(name):
    # the laws and the traces ask aq_radius/aq_crawford at q = 1, which pick the
    # phase bracket themselves, so neither imports nor names a_radius or a_crawford
    tree = ast.parse((Path(aqradius.__file__).parent / f"{name}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.name.split(".")[-1] for alias in node.names}
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not names & {"a_radius", "a_crawford"}


def test_no_module_imports_scipy():
    # the package needs numpy alone; a scipy import, even one inside a function,
    # would add scipy's load time to the first run that reaches it
    found = []
    for path in Path(aqradius.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.stem, node.lineno, n) for n in names if n.split(".")[0] == "scipy"]
    assert not found


RUN_WITHOUT_SCIPY = """
import sys
import numpy as np
import aqradius
import aqradius.cli
from aqradius import Budget, Weight, a_radius, canonical_2x2, check_law, q_crawford_2x2, q_radius_2x2

t = np.array([[1.0, 2.0 + 1.0j], [0.5j, -1.0]])
w = Weight.identity(2)
a_radius(w, t)
form = canonical_2x2(t + 4.0 * np.exp(0.5j) * np.eye(2))
q_radius_2x2(form, 0.7)
assert q_crawford_2x2(form, 0.7) > 0.0  # the origin is outside: the boundary extreme's climb runs
check_law("app1", w, t, 0.5, partner=(w, 2.0 * t, 0.5), budget=Budget(restarts=2, iterations=5))
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_a_run_loads_no_scipy_module():
    # import, a phase bracket, both 2x2 closed forms and a direct-sum law in a fresh process
    src = str(Path(aqradius.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_SCIPY], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
