"""No dead imports or private helpers in the package: every name a module
imports is used in that module, and every private module-level function is
used somewhere in the package. Read from the sources with `ast`, as no
linter is assumed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "prstirling"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _used(nodes) -> set[str]:
    """Names read in the given subtrees: bare names and attribute names."""
    used = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_the_package_sources_are_found():
    assert {"__init__.py", "kernel.py", "moments.py", "stirling.py", "bell.py", "identities.py"} <= set(TREES)


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_imported_name_is_used(name):
    tree = TREES[name]
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    assert [n for n in imported if n not in _used([tree])] == []


def test_every_private_function_is_used():
    unused = []
    for name, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.endswith("__"):
                # uses outside its own body, in this module or any other
                elsewhere = [n for n in tree.body if n is not node]
                others = [t for other, t in TREES.items() if other != name]
                if node.name not in _used(elsewhere + others):
                    unused.append(f"{name}: {node.name}")
    assert unused == []
