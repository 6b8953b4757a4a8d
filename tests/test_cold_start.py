"""A CLI request loads only the modules its subcommand runs, and importing the
package loads none of its modules: `prstirling` resolves each public name on
first use. This test process imported everything long ago, so each case runs
in a fresh interpreter and reports the modules that appeared after it started.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import prstirling

SRC = Path(__file__).resolve().parents[1] / "src"

# Run by the child before its case: what was loaded before prstirling was.
PROLOGUE = """
import contextlib, io, sys
_before = set(sys.modules)
"""
# Run by the child after its case: report the modules that appeared, then
# import json to print them, so that the case's own loads are what is seen.
EPILOGUE = """
_loaded = sorted(set(sys.modules) - _before)
import json
print(json.dumps(_loaded))
"""


def _fresh(case: str, *flags: str) -> set[str]:
    """Run `case` in a fresh interpreter started with `flags`; the modules it
    loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = PROLOGUE + textwrap.dedent(case) + EPILOGUE
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _cli(*argvs: list[str]) -> str:
    """A case running `cli.main` on each argv, its output discarded."""
    calls = "".join(f"    assert cli.main({argv!r}) == 0\n" for argv in argvs)
    return "import prstirling.cli as cli\nwith contextlib.redirect_stdout(io.StringIO()):\n" + calls


def test_table_and_moments_load_neither_bell_nor_identities():
    loaded = _fresh(_cli(
        ["table", "--n-max", "6", "--r", "2", "--lambda", "1/3", "--dist", "uniform{0,1,2}"],
        ["moments", "--dist", "poisson(1)", "--upto", "4", "--sum", "2"],
    ))
    assert "prstirling.stirling" in loaded
    assert loaded.isdisjoint({"prstirling.identities", "prstirling.bell", "dataclasses", "inspect"})


# argparse loads gettext, and its subparsers locale. The children run with
# -S, so that no module a site hook loads first can hide a load.
PARSERS_AND_SERIALIZERS = {"argparse", "gettext", "locale", "json", "csv"}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_no_request_loads_a_parser_or_serializer(fmt):
    """Flags are read from one table and records written by hand: no
    `table`, `moments` or `bell` request, in either format, and no `verify`
    summary loads argparse, json or csv."""
    loaded = _fresh(_cli(
        ["table", "--n-max", "3", "--dist", "point(1)", "--format", fmt],
        ["moments", "--dist", "poisson(1)", "--upto", "3", "--format", fmt],
        ["bell", "--n", "3", "--lambda", "-1/2", "--dist", "point(1)", "--x", "1/2", "--dobinski", "--x-float", "2"],
        ["verify", "--suite", "T2_5", "--max-n", "2"],
    ), "-S")
    assert "prstirling.bell" in loaded and "prstirling.identities" in loaded
    assert loaded.isdisjoint(PARSERS_AND_SERIALIZERS)


def test_only_a_verify_json_report_loads_json():
    loaded = _fresh(_cli(["verify", "--suite", "T2_5", "--max-n", "2", "--report", "json"]), "-S")
    assert loaded & PARSERS_AND_SERIALIZERS == {"json"}


def test_only_out_loads_tempfile(tmp_path):
    """Site hooks usually load `tempfile` before the program starts; without
    them a request to stdout does not, and one with --out does."""
    argv = ["table", "--n-max", "3", "--dist", "point(1)"]
    assert "tempfile" not in _fresh(_cli(argv), "-S")
    assert "tempfile" in _fresh(_cli(argv + ["--out", str(tmp_path / "t.json")]), "-S")


def test_bell_does_not_load_identities():
    loaded = _fresh(_cli(["bell", "--n", "4", "--dist", "point(1)", "--x", "1/2", "--dobinski", "--x-float", "2"]))
    assert "prstirling.bell" in loaded
    assert loaded.isdisjoint({"prstirling.identities", "dataclasses", "inspect"})


def test_verify_loads_no_dataclasses():
    loaded = _fresh(_cli(["verify", "--suite", "T2_7", "--max-n", "1"]))
    assert "prstirling.identities" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect"})


@pytest.mark.parametrize("suite, loads_bell", [("T2_4", False), ("T2_6", True), ("T2_7", True), ("all", True)])
def test_verify_loads_bell_only_for_the_identities_that_call_it(suite, loads_bell):
    """`identities` imports `bell` once per run, and only when T2_6 or T2_7
    is selected."""
    loaded = _fresh(_cli(["verify", "--suite", suite, "--max-n", "1"]))
    assert "prstirling.identities" in loaded
    assert ("prstirling.bell" in loaded) == loads_bell


def test_bare_import_loads_no_submodule():
    loaded = _fresh("import prstirling\n")
    assert "prstirling" in loaded
    assert [m for m in loaded if m.startswith("prstirling.")] == []


# ---- the contract span tracing relies on -----------------------------------


def test_names_resolve_to_the_defining_modules_objects():
    # the child fails its assert, and so this test, if any name resolves elsewhere
    _fresh("""
    import prstirling
    for name in prstirling.__all__:
        obj = getattr(prstirling, name)
        assert obj.__module__.startswith("prstirling."), name
        assert vars(sys.modules[obj.__module__])[name] is obj, name
    """)


@pytest.mark.parametrize("resolved_first", [False, True], ids=["unresolved", "resolved"])
def test_a_rebound_name_is_what_from_import_returns(resolved_first):
    _fresh(f"""
    import prstirling
    if {resolved_first}:
        prstirling.bell_coeffs
    wrapper = object()
    setattr(prstirling, "bell_coeffs", wrapper)
    from prstirling import bell_coeffs
    assert bell_coeffs is wrapper
    """)


def test_star_import_binds_every_public_name():
    _fresh("""
    import prstirling
    namespace = {}
    exec("from prstirling import *", namespace)
    assert [name for name in prstirling.__all__ if name not in namespace] == []
    """)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        prstirling.no_such_name
    with pytest.raises(ImportError):
        from prstirling import no_such_name  # noqa: F401


def test_dir_lists_every_public_name():
    assert set(prstirling.__all__) <= set(dir(prstirling))
    assert "__version__" in dir(prstirling)
