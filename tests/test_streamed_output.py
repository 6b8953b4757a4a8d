"""`table` and `moments` write their rows as text joined by hand, in pieces,
and every JSON record, with or without such pieces, leaves one writer.

The references here are the serializers that text replaces: the whole record
through `json.dumps(record, indent=2)`, and `csv.writer` rows after one
`# key=value` line per context field. Every output must match them byte for
byte, to stdout and through `--out`: the `table` and `moments` grid below, and
`bell` and `verify` summary records built from the public functions. A
`table` must also reach stdout in bounded writes, holding no more than its
columns and one piece of text. The writer of the record text, `cli._json`,
must equal `json.dumps(value, indent=2, allow_nan=False)` on any nesting of
the kinds a record holds.
"""

import csv
import io
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prstirling.bell import bell_coeffs, bell_dobinski, bell_eval
from prstirling import cli
from prstirling.cli import _context_dict, _emit, main
from prstirling.distparse import parse_dist, parse_rational
from prstirling.identities import OPT_IN_IDENTITIES, IdentityId, default_grid, run_suite
from prstirling.kernel import stirling1_signed
from prstirling.stirling import StirlingContext, stirling_triangle

PRESETS = [
    "point(3/2)",
    "bernoulli(1/3)",
    "binomial(4,2/3)",
    "uniform{0,1/2,3}",
    "uniform[1/2,3]",
    "poisson(5/2)",
    "geometric(2/3)",
    "moments[1,1/2,1/3,1/4,1/5,1/6,1/7,1/8,1/9]",  # moments to order 8
]
LAMBDAS = ["0", "1/3", "-3/2", "2", "-1"]


def _grid() -> list[list[str]]:
    """A seeded grid of table and moments requests: every preset in both
    formats, r 0..3, n_max 0..8 (n_max 0 for each preset), every lambda."""
    rng = random.Random(2026)
    grid = []
    for dist in PRESETS:
        for fmt in ("json", "csv"):
            for n_max in (0, rng.randint(1, 8)):
                lam, r = rng.choice(LAMBDAS), rng.randint(0, 3)
                grid.append(["table", "--n-max", str(n_max), "--r", str(r), f"--lambda={lam}", "--dist", dist])
                grid[-1] += ["--format", fmt]
            upto, copies = rng.randint(0, 8), rng.choice([None, 0, 1, 3])
            grid.append(["moments", "--dist", dist, "--upto", str(upto), "--format", fmt])
            if copies is not None:
                grid[-1] += ["--sum", str(copies)]
    return grid


def _option(argv: list[str], name: str, default=None):
    for i, token in enumerate(argv):
        if token == name:
            return argv[i + 1]
        if token.startswith(name + "="):
            return token.split("=", 1)[1]
    return default


def _reference(argv: list[str]) -> str:
    """The request's output as the replaced serializers wrote it."""
    oracle = parse_dist(_option(argv, "--dist"))
    if argv[0] == "table":
        lam, r = parse_rational(_option(argv, "--lambda")), int(_option(argv, "--r"))
        context = _context_dict(oracle, {"lambda": str(lam), "r": r})
        triangle = stirling_triangle(StirlingContext(oracle, lam, r), int(_option(argv, "--n-max")))
        payload = {"rows": [[str(v) for v in row] for row in triangle]}
    else:
        upto, copies = int(_option(argv, "--upto")), _option(argv, "--sum")
        context = _context_dict(oracle, {})
        if copies is None:
            values = [oracle.moment(m) for m in range(upto + 1)]
        else:
            context["sum"] = int(copies)
            values = [oracle.sum_moment(int(copies), m) for m in range(upto + 1)]
        payload = {"rows": [[str(v) for v in values]], "upto": upto}
    if _option(argv, "--format") == "json":
        record = {"schema_version": "1", "command": argv[0], "context": context, "payload": payload}
        return json.dumps(record, indent=2, sort_keys=False, allow_nan=False) + "\n"
    buf = io.StringIO()
    for key, value in context.items():
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf)
    for row in payload["rows"]:
        writer.writerow(row)
    return buf.getvalue()


GRID = _grid()


def test_the_grid_covers_every_case():
    tables = [argv for argv in GRID if argv[0] == "table"]
    assert {_option(argv, "--dist") for argv in GRID} == set(PRESETS)
    assert {_option(argv, "--r") for argv in tables} == {"0", "1", "2", "3"}
    assert {_option(argv, "--lambda") for argv in tables} == set(LAMBDAS)
    assert "0" in {_option(argv, "--n-max") for argv in tables}
    assert any(",-" in _reference(argv) for argv in tables)  # some negative entry


def _check_output(argv: list[str], expected: str, to_file: bool, capsys, tmp_path) -> None:
    """The request writes exactly `expected`, to stdout or through --out."""
    if to_file:
        path = tmp_path / "out"
        assert main(argv + ["--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        with open(path, newline="") as fh:
            assert fh.read() == expected
        assert [p.name for p in tmp_path.iterdir()] == ["out"]  # no temp file left
    else:
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


@pytest.mark.parametrize("index", range(len(GRID)))
def test_output_matches_the_replaced_serializers(index, capsys, tmp_path):
    # every third request through --out
    _check_output(GRID[index], _reference(GRID[index]), index % 3 == 0, capsys, tmp_path)


BELL = ["bell", "--n", "7", "--r", "2", "--lambda=-3/2", "--dist", "uniform[1/2,3]"]
WHOLE_RECORDS = {
    "bell": BELL,
    "bell-x": BELL + ["--x=-5/3"],
    "bell-dobinski": BELL + ["--dobinski", "--x-float", "2.5"],
    "verify-summary": ["verify", "--max-n", "4"],
}


def _whole_reference(argv: list[str]) -> str:
    """The record of a `bell` or `verify` summary request, built from the
    public functions and written by `json.dumps` in one piece."""
    if argv[0] == "verify":
        wanted = [i for i in IdentityId if i not in OPT_IN_IDENTITIES]
        _, summary = run_suite(default_grid(int(_option(argv, "--max-n"))), wanted)
        record = {"schema_version": "1", "command": "verify", "payload": {"summary": summary}}
    else:
        oracle, lam = parse_dist(_option(argv, "--dist")), parse_rational(_option(argv, "--lambda"))
        r, n = int(_option(argv, "--r")), int(_option(argv, "--n"))
        ctx = StirlingContext(oracle, lam, r)
        payload = {"n": n, "coefficients": [str(c) for c in bell_coeffs(ctx, n).coefficients]}
        context = _context_dict(oracle, {"lambda": str(lam), "r": r})
        record = {"schema_version": "1", "command": "bell", "context": context, "payload": payload}
        if _option(argv, "--x") is not None:
            x = parse_rational(_option(argv, "--x"))
            payload["x"], payload["value"] = str(x), str(bell_eval(ctx, n, x))
        if "--dobinski" in argv:
            x_float = float(_option(argv, "--x-float"))
            result = bell_dobinski(ctx, n, x_float, 1e-9)  # the default --tol
            assert result.converged  # so the approximation is a finite float
            record["diagnostics"] = {
                "x_float": x_float,
                "approximation": result.value,
                "terms_used": result.terms_used,
                "last_term": result.last_term,
                "tolerance": result.tolerance,
                "converged": result.converged,
            }
    return json.dumps(record, indent=2) + "\n"


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("name", WHOLE_RECORDS)
def test_a_whole_record_is_the_json_of_the_public_results(name, to_file, capsys, tmp_path):
    argv = WHOLE_RECORDS[name]
    _check_output(argv, _whole_reference(argv), to_file, capsys, tmp_path)


def test_a_list_given_no_items_stays_empty(capsys):
    record = {"schema_version": "1", "command": "verify", "payload": {"summary": {}, "reports": []}}
    _emit(record, None, iter([]))
    assert capsys.readouterr().out == json.dumps(record, indent=2) + "\n"


# ---- `_json` is `json.dumps(value, indent=2, allow_nan=False)` ----------------

# quotes, backslashes, control characters, DEL, and text past ASCII and the BMP
_TEXT = st.text(st.sampled_from('ab "\\/\x00\x1f\t\n\x7f\u00e9\u20ac\u2028\U0001f600') | st.characters(), max_size=8)
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_the_writer_is_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2, allow_nan=False)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_the_writer_rejects_a_non_finite_float(bad):
    for value in (bad, [1, bad], {"a": {"b": bad}}):
        with pytest.raises(ValueError):
            cli._json(value)


class _Recorder:
    """A stdout that keeps only the size of each write."""

    def __init__(self):
        self.sizes: list[int] = []

    def write(self, text: str) -> int:
        self.sizes.append(len(text))
        return len(text)

    def writelines(self, lines) -> None:
        for line in lines:
            self.write(line)

    def flush(self) -> None:
        pass


class _Writes(_Recorder):
    """A stdout that keeps each write."""

    def __init__(self):
        super().__init__()
        self.texts: list[str] = []

    def write(self, text: str) -> int:
        self.texts.append(text)
        return super().write(text)


def test_verify_writes_each_large_batch_unjoined(monkeypatch):
    """`verify --report json` hands `_emit` its reports as batches of JSON
    text; each batch of 64 KiB or more leaves `_write_output` as one write of
    that very string, neither joined to its separator nor copied."""
    batches, emit = [], cli._emit

    def recorded(record, out, items=None):
        batches.extend(items or ())
        emit(record, out, items)

    writes = _Writes()
    monkeypatch.setattr(cli, "_emit", recorded)
    monkeypatch.setattr(sys, "stdout", writes)
    assert main(["verify", "--suite", "all", "--max-n", "7", "--report", "json"]) == 0
    large = [text for text in writes.texts if len(text) >= 65536]
    assert len(large) > 50 and [id(text) for text in large] == [id(b) for b in batches if len(b) >= 65536]


# tracemalloc peaks of one request, its columns included. Writing the whole
# document at once peaked at 2.0 MB (JSON) and 1.9 MB (CSV) at n_max 80, and
# at 3.9 and 3.4 MB at n_max 100; the stream peaks at 0.7 and 1.3 MB.
PEAK_BOUND = {80: 1_200_000, 100: 2_200_000}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("n_max", sorted(PEAK_BOUND))
def test_table_writes_in_bounded_pieces(fmt, n_max, monkeypatch):
    argv = ["table", "--n-max", str(n_max), "--r", "2", "--lambda=1/3", "--dist", "uniform[1/2,3]", "--format", fmt]
    stirling1_signed(n_max, 0)  # the kernel triangle outlives the request
    recorder = _Recorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(recorder.sizes) > 400_000 and len(recorder.sizes) > 5
    assert max(recorder.sizes) <= 128 * 1024  # the whole document was one write
    assert peak < PEAK_BOUND[n_max]
