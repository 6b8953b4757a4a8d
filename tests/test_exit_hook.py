"""`cli.main` registers `gc.freeze` with `atexit`, so a `prstirling` process
skips the interpreter's shutdown collections. Each case runs in a fresh
interpreter, since the hook only acts when that interpreter exits.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TABLE = ["table", "--n-max", "4", "--r", "1", "--lambda", "1/3", "--dist", "uniform{0,1,2}"]


def _run(*args: str) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter that finds the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True)


def _case(code: str) -> subprocess.CompletedProcess:
    proc = _run("-c", textwrap.dedent(code))
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


def test_a_callback_registered_before_main_runs_after_the_freeze():
    proc = _case(f"""
    import atexit, contextlib, gc, io
    atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0))
    import prstirling.cli as cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main({TABLE!r}) == 0
    """)
    assert proc.stdout.decode().splitlines()[-1] == "frozen True"


def test_an_in_process_caller_keeps_its_cyclic_gc():
    _case(f"""
    import contextlib, gc, io
    import prstirling.cli as cli
    before = gc.get_freeze_count()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main({TABLE!r}) == 0
    assert gc.get_freeze_count() == before
    assert gc.isenabled()
    """)


def test_main_registers_the_hook_once():
    _case(f"""
    import atexit, contextlib, io
    import prstirling.cli as cli
    before = atexit._ncallbacks()
    with contextlib.redirect_stdout(io.StringIO()):
        for _ in range(3):
            assert cli.main({TABLE!r}) == 0
    assert atexit._ncallbacks() == before + 1
    """)


def test_a_fresh_process_writes_its_output_and_errors_in_full(tmp_path):
    target = tmp_path / "t.json"
    to_stdout = _run("-m", "prstirling.cli", *TABLE)
    to_file = _run("-m", "prstirling.cli", *TABLE, "--out", str(target))
    assert to_stdout.returncode == to_file.returncode == 0
    assert to_stdout.stdout and to_file.stdout == b"" and to_file.stderr == b""
    assert target.read_bytes() == to_stdout.stdout
    failed = _run("-m", "prstirling.cli", "table", "--n-max", "2", "--dist", "nosuch(1)")
    assert failed.returncode == 2 and failed.stdout == b""
    assert failed.stderr.startswith(b"error: ") and failed.stderr.count(b"\n") == 1
