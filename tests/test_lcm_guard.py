"""`kernel._over_lcm` turns Fractions into an integer row. Only the code that
makes rows from Fractions may call it: the public Polynomial functions
(`polynomial`), the two uniform constructors (a uniform's points) and the moment
layer's single-copy code. A reader of a kept row gets numerators over one
denominator already, so no reader may derive an lcm of its entries again. The
allow-list matches the uses exactly, so an entry cannot outlive its scope.
Read from the sources with `ast`, as no linter is assumed."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "prstirling"
ALLOWED = {
    ("kernel.py", "_over_lcm"),  # its definition
    ("polynomial.py", ""),  # the import
    ("polynomial.py", "Polynomial.__call__"),
    ("polynomial.py", "convert_basis"),
    ("polynomial.py", "shift_argument"),
    ("moments.py", ""),  # the import
    ("moments.py", "MomentOracle.uniform_discrete"),
    ("moments.py", "MomentOracle.uniform_continuous"),
    ("moments.py", "MomentOracle._single_row"),
    ("moments.py", "_SumTable.grow"),
}


def uses(name: str, tree: ast.AST) -> set[str]:
    """Qualified names of the functions and classes (or "" for module level)
    in which `name` is defined, read, imported or looked up as an attribute."""
    found = set()

    def visit(node: ast.AST, scope: tuple) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == name:
                found.add(".".join(scope + (node.name,)))
            scope = scope + (node.name,)
        elif (
            (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and (node.asname or node.name) == name)
        ):
            found.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_the_guard_sees_every_kind_of_use():
    source = (
        "from .kernel import _over_lcm\n"
        "import prstirling.kernel as kernel\n"
        "class Checker:\n"
        "    def read(self, row):\n"
        "        return kernel._over_lcm(row)\n"
        "def check(row):\n"
        "    helper = _over_lcm\n"
        "    return helper(row)\n"
    )
    assert uses("_over_lcm", ast.parse(source)) == {"", "Checker.read", "check"}


def test_over_lcm_is_used_only_where_rows_are_made_from_fractions():
    found = {
        (path.name, scope)
        for path in sorted(SRC.glob("*.py"))
        for scope in uses("_over_lcm", ast.parse(path.read_text(), str(path)))
    }
    assert found - ALLOWED == set()
    assert ALLOWED - found == set()  # no stale entry
