"""The witness routes are independent of the production route above the exact
kernel, and the module boundary is where that shows: `witness` names nothing
of the generating-function triangle, and no module on a `table`, `moments` or
`bell` request's path imports `witness` or `polynomial` when it loads (a
function body may, as `bell_coeffs` imports `polynomial`). Read from the
sources with `ast`, as no linter is assumed; `tests/test_identities.py`
checks the same boundary at run time by refusing `stirling._columns`."""

import ast
from pathlib import Path

import pytest

from test_lcm_guard import uses

SRC = Path(__file__).resolve().parents[1] / "src" / "prstirling"
PRODUCTION = ("_columns", "_triangle_row", "stirling_triangle")
REQUEST_PATH = ("kernel", "moments", "distparse", "stirling", "bell", "cli")
COLD = {"witness", "polynomial"}


def load_time_imports(tree: ast.AST) -> set[str]:
    """The package modules, by short name, that the module imports when it
    loads: every import outside a function body, relative or absolute."""
    found = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            base = module if node.level else module.removeprefix("prstirling").lstrip(".")
            if node.level or module.startswith("prstirling"):
                found.update([base] if base else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("prstirling."))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_the_check_sees_every_kind_of_load_time_import():
    source = (
        "from .witness import _via_conv\n"
        "from . import polynomial\n"
        "import prstirling.kernel\n"
        "from prstirling.moments import MomentOracle\n"
        "class Holder:\n"
        "    from .stirling import StirlingContext\n"
        "if True:\n"
        "    from .bell import bell_eval\n"
        "def later():\n"
        "    from .identities import run_suite\n"
    )
    assert load_time_imports(ast.parse(source)) == {"witness", "polynomial", "kernel", "moments", "stirling", "bell"}


def test_witness_names_nothing_of_the_generating_function():
    tree = ast.parse((SRC / "witness.py").read_text(), "witness.py")
    assert {name: uses(name, tree) for name in PRODUCTION} == {name: set() for name in PRODUCTION}
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "stirling"]
    assert [alias.name for node in imports for alias in node.names] == ["StirlingContext"]


@pytest.mark.parametrize("module", REQUEST_PATH)
def test_no_module_on_a_request_path_loads_the_witnesses_or_the_polynomial_api(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(), f"{module}.py")
    assert load_time_imports(tree) & COLD == set()
