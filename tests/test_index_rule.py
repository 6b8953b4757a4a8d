"""The three r-Stirling routes of `stirling` share one entry reader, so the
index rule (negative indices raise, an entry past the row is 0 before any
read) lives in one function. Read from the source with `ast`, as no linter is
assumed."""

import ast
from pathlib import Path

STIRLING = Path(__file__).resolve().parents[1] / "src" / "prstirling" / "stirling.py"
RULE = "indices must be >= 0"
ROUTES = ("prob_r_stirling2", "prob_r_stirling2_via_conv", "prob_r_stirling2_via_shift")


def raisers(tree: ast.AST, text: str) -> set[str]:
    """Qualified names of the functions whose own body raises an error whose
    message holds `text`."""
    found = set()

    def visit(node: ast.AST, scope: tuple) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            if any(isinstance(c, ast.Constant) and text in str(c.value) for c in ast.walk(node.exc)):
                found.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_the_check_sees_every_kind_of_raise():
    source = (
        "def plain(n):\n"
        "    raise ValueError('indices must be >= 0')\n"
        "def formatted(n, k):\n"
        "    if n < 0:\n"
        "        raise ValueError(f'indices must be >= 0, got ({n}, {k})')\n"
        "class Context:\n"
        "    def read(self, n):\n"
        "        def inner():\n"
        "            raise IndexError('indices must be >= 0')\n"
        "        return inner\n"
        "def other(n):\n"
        "    raise ValueError(f'degree must be >= 0, got {n}')\n"
    )
    assert raisers(ast.parse(source), RULE) == {"plain", "formatted", "Context.read.inner"}


def test_one_function_of_stirling_checks_the_indices():
    tree = ast.parse(STIRLING.read_text(), str(STIRLING))
    [reader] = raisers(tree, RULE)
    # each route is one call of that reader
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in ROUTES:
            *doc, body = node.body
            call = body.value if isinstance(body, ast.Return) else None
            assert isinstance(call, ast.Call) and isinstance(call.func, ast.Name), node.name
            assert call.func.id == reader and len(doc) == 1, node.name
