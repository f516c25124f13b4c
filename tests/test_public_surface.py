"""The benchmark imports only exported names, every exported name exists, and
no module of the package imports a sibling's private name."""

import ast
from pathlib import Path

import actplan

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"
PACKAGE = ROOT / "src" / "actplan"


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


def test_every_exported_name_resolves():
    missing = [name for name in actplan.__all__ if not hasattr(actplan, name)]
    assert not missing


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
