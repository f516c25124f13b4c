"""The benchmark imports only exported names, every exported name is the
object its module defines, no module of the package imports a sibling's
private name, and planning does not load numpy."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import actplan

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"
PACKAGE = ROOT / "src" / "actplan"
DLIB = str(PACKAGE / "networks" / "dlib_face.net")


def imported_from_actplan(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "actplan"
            for alias in node.names}


def test_benchmark_imports_are_exported():
    names = set()
    for script in ("workloads.py", "run.py"):
        names |= imported_from_actplan(BENCHMARKS / script)
    assert names, "no `from actplan import ...` found in the benchmark"
    assert names <= set(actplan.__all__), sorted(names - set(actplan.__all__))


def defining_modules():
    """Each top-level name of the package's modules, mapped to the modules that bind it."""
    homes = {}
    for path in PACKAGE.glob("*.py"):
        if path.stem in ("__init__", "__main__"):
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                homes.setdefault(name, []).append(f"actplan.{path.stem}")
    return homes


def test_every_exported_name_resolves(monkeypatch):
    # forget the lazy names that earlier imports cached, so that the first
    # getattr below resolves each of them afresh
    for name in actplan._LAZY:
        monkeypatch.delitem(vars(actplan), name, raising=False)
    homes = defining_modules()
    for name in actplan.__all__:
        if name == "__version__":
            continue
        assert len(homes.get(name, ())) == 1, (name, homes.get(name))
        defined = getattr(importlib.import_module(homes[name][0]), name)
        assert getattr(actplan, name) is defined, name
    star = {}
    exec("from actplan import *", star)
    for name in actplan.__all__:
        assert star[name] is getattr(actplan, name), name
    assert not hasattr(actplan, "no_such_name")


# Runs one statement in a fresh interpreter and, at exit, prints to stderr
# whether numpy was imported.
_NUMPY_PROBE = ("import atexit, sys\n"
                "atexit.register(lambda: print('numpy' in sys.modules, file=sys.stderr))\n")


@pytest.mark.parametrize("statement, code, numpy_loaded", [
    ("import actplan", 0, False),
    (f"from actplan.cli import main; sys.exit(main(['plan', {DLIB!r}]))", 0, False),
    (f"from actplan.cli import main; sys.exit(main(['plan', {DLIB!r}, '--format', 'json']))",
     0, False),
    (f"from actplan.cli import main; sys.exit(main(['plan', {DLIB!r}, '--ascii-map']))",
     0, False),
    ("from actplan.cli import main; sys.exit(main(['plan', 'no_such_file.net']))", 2, False),
    ("from actplan.cli import main; sys.exit(main(['--help']))", 0, False),
    (f"from actplan.cli import main; sys.exit(main(['verify', {DLIB!r}]))", 0, True),
], ids=["import", "plan", "plan-json", "plan-ascii-map", "plan-missing-file", "help",
        "verify"])
def test_only_verify_sweep_and_exec_load_numpy(statement, code, numpy_loaded, tmp_path):
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", _NUMPY_PROBE + statement], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
                         timeout=60)
    assert (run.returncode, run.stderr.splitlines()[-1]) == (code, str(numpy_loaded)), run.stderr


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5, PACKAGE
    private = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "actplan"):
                private += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert not private
