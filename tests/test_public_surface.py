"""The benchmark imports only exported names, and every exported name exists."""

import ast
from pathlib import Path

import actplan

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


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
