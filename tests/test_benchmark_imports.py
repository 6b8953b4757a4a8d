"""The benchmark under perfbench/ imports the library by name. Read its
sources (without running them) and check that every name it takes from
prstirling still resolves, so removing a public name the benchmark uses
fails here and not only when the benchmark runs."""

import ast
import importlib
from pathlib import Path

import pytest

import prstirling

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def _trees():
    return [(path.name, ast.parse(path.read_text(), str(path))) for path in SOURCES]


def _is_prstirling(module: str) -> bool:
    return module == "prstirling" or module.startswith("prstirling.")


def test_the_benchmark_sources_are_found():
    assert {"run.py", "tracing.py", "checks.py", "child.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("name, tree", _trees(), ids=[path.name for path in SOURCES])
def test_every_name_the_benchmark_imports_resolves(name, tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and _is_prstirling(node.module):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{name}: from {node.module} import {alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_prstirling(alias.name):
                    importlib.import_module(alias.name)


def test_every_traced_layer_imports():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    layers = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    ]
    assert len(layers) == 1 and layers[0]
    for layer in layers[0]:
        importlib.import_module(f"prstirling.{layer}")


def test_every_exported_name_resolves():
    assert [name for name in prstirling.__all__ if not hasattr(prstirling, name)] == []
