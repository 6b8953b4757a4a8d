"""No dead code in the package: every name a module imports is used in that
module, every private module-level function is used somewhere in the
package, and every public module-level function or class is exported,
used elsewhere in the package, or the console-script entry. Read from the
sources with `ast`, as no linter is assumed."""

import ast
import tomllib
from collections import Counter
from pathlib import Path

import pytest

import prstirling

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "prstirling"
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


def _unnamed(kinds, wanted) -> list[str]:
    """The module-level definitions of the given kinds, chosen by name, that
    no other module-level statement of the package names."""
    uses = {id(node): _used([node]) for tree in TREES.values() for node in tree.body}
    named = Counter(name for names in uses.values() for name in names)  # statements naming each name
    return [
        f"{module}: {node.name}"
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, kinds) and wanted(node.name) and named[node.name] == (node.name in uses[id(node)])
    ]


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
    private = lambda name: name.startswith("_") and not name.endswith("__")
    assert _unnamed(ast.FunctionDef, private) == []


def test_every_public_function_or_class_is_exported_used_or_the_entry_point():
    """A public definition that is neither in `prstirling.__all__`, nor named
    by other code of the package, nor the `[project.scripts]` entry is a
    second way in that nothing reaches."""
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    entries = {target.rpartition(":")[2] for target in scripts.values()}
    public = lambda name: not name.startswith("_") and name not in prstirling.__all__ and name not in entries
    assert _unnamed((ast.FunctionDef, ast.ClassDef), public) == []
