"""Command-line surface: triangles, Bell polynomials, moments, and the
identity verification suite.

Exact values always serialize as reduced fraction strings ("p" or "p/q");
the only float fields are the Dobinski approximation and its diagnostics,
which carry the tolerance they were computed at. Output is byte-for-byte
deterministic for identical invocations.

`table` and `moments` load only `distparse`, `moments`, `kernel` and
`stirling`; `bell` also loads `bell`, and `verify` also loads `identities`
and the witness routes (`witness`), each imported inside its subcommand
(`identities` loads `bell` once per run, only for T2_7). No request loads
`polynomial`, the `Fraction`-valued polynomial API. `identities` reads the
`--suite` selection and decides which failures set exit code 1. `_parse`
reads the flags from `_COMMANDS`, and `_json` writes every JSON record, so
no request imports `argparse` or `csv`, and only `verify --report json`
imports `json`. `_emit` splices a list written in pieces into a record
(`table` and `moments` rows, `verify` reports); every output leaves
`_write_output` in writes of about 64 KiB (a piece of 64 KiB or more as it
is), and only `--out` imports `tempfile`.

Every value is computed before the first write, so a failure (a bad
command line too) gives one `error:` line and never half a document. A
`verify` summary keeps no report, and `--report json` keeps only the
reports' text: `--suite all` peaks at 16.3 MB RSS at max-n 5, and at
23.7 MB as JSON at max-n 7. Running out of memory is one `error:` line too,
naming the flag that sets the size of the work (exit code 2, no stdout).

`--out` follows a symlink to the file it names. A FIFO or a device there is
written in place; a regular file is replaced through a temp file renamed
over it, keeping its mode, and a new file gets 0666 less the umask.

`main` registers `gc.freeze` with `atexit`, once per process, so a
`prstirling` process exits without the interpreter's shutdown collections
(they run after atexit callbacks and skip frozen objects), about 5 ms of a
70 ms request. Nothing relies on them: every file written is closed before
`main` returns, stdout and stderr are flushed at exit without the GC, and
Python does not promise to finalize objects alive at exit. A caller that
runs `main` in process keeps its cyclic GC until it exits.
"""

from __future__ import annotations

import atexit
import gc
import math
import os
import stat
import sys
from itertools import chain, islice
from types import SimpleNamespace
from typing import Iterable, Iterator, Optional, Sequence

from .distparse import ParseError, parse_dist, parse_rational
from .moments import DistributionError, MomentOracle
from .kernel import _at, _format
from .stirling import StirlingContext, _columns, _triangle_row

SCHEMA_VERSION = "1"


def _record(command: str, context: Optional[dict], payload, diagnostics: Optional[dict] = None) -> dict:
    rec = {"schema_version": SCHEMA_VERSION, "command": command}
    if context is not None:
        rec["context"] = context
    rec["payload"] = payload
    if diagnostics is not None:
        rec["diagnostics"] = diagnostics
    return rec


def _context_dict(oracle: MomentOracle, fields: dict) -> dict:
    """The record context: the distribution, then `fields`."""
    ctx = {"dist": oracle.describe(), **fields}
    if oracle.formal:
        # custom moment sequences are taken at face value; identities hold
        # as formal moment identities
        ctx["formal_moments"] = True
    return ctx


def _json_float(value: float) -> Optional[float]:
    """None (JSON null) for NaN or infinity, which JSON cannot hold; a series
    that did not converge has the value NaN."""
    return value if math.isfinite(value) else None


def _write_output(pieces: Iterable[str], out: Optional[str]) -> None:
    """Write the pieces of one finished output in order, in writes of about
    64 KiB, to stdout or to `out`. A piece of 64 KiB or more is written as it
    is, never joined. `out` is followed through symlinks; a FIFO or a device
    there is written in place, and a regular file (or none) through a temp
    file renamed into place, which keeps the mode of the file it replaces and
    gives a new file 0666 less the umask."""

    def chunks() -> Iterator[str]:
        buf, size = [], 0
        for piece in pieces:
            if len(piece) >= 65536 and buf:  # flush, so the piece goes alone (a join of one is no copy)
                yield "".join(buf)
                buf, size = [], 0
            buf.append(piece)
            size += len(piece)
            if size >= 65536:
                yield "".join(buf)
                buf, size = [], 0
        yield "".join(buf)

    if out is None:
        sys.stdout.writelines(chunks())
        return
    target = os.path.realpath(out)  # a symlink is followed to the file it names
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):  # a FIFO or a device takes the text in place
        with open(target, "w") as fh:
            fh.writelines(chunks())
        return
    import tempfile

    if mode is None:  # a new file gets the mode open() gives it; setting the umask is the only way to read it
        umask = os.umask(0o22)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".prstirling-")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fd, stat.S_IMODE(mode))
            fh.writelines(chunks())
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json(value, indent: str = "\n") -> str:
    """`json.dumps(value, indent=2, allow_nan=False)` for a dict with str keys,
    list, str, int, float, bool or None; `indent` opens a line at its depth.
    A string other than printable ASCII free of quotes and backslashes is
    left to `json`."""
    if isinstance(value, str):
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'
        import json

        return json.dumps(value)
    if value is None or isinstance(value, bool):  # a bool before an int, its base class
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{inner}{_json(key)}: {_json(item, inner)}" for key, item in value.items()]
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    if isinstance(value, list):
        return "[" + ",".join(inner + _json(item, inner) for item in value) + indent + "]" if value else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(record: dict, out: Optional[str], items: Optional[Iterable[str]] = None) -> None:
    """Write `record` as one JSON document, its last "[]" filled with `items`,
    if given, as they come: each the JSON text of its elements, opening on a
    new line at their depth. With no item the list stays "[]"."""
    text = _json(record)
    if items is None:
        return _write_output([text, "\n"], out)
    head, tail = text.rsplit("[]", 1)
    close = "\n" + head[head.rfind("\n") + 1 :].split('"')[0] + "]"  # at the indent of the list's key

    def pieces() -> Iterator[str]:
        sep = head + "["
        for item in items:
            yield sep
            yield item
            sep = ","
        yield (close if sep == "," else head + "[]") + tail + "\n"

    _write_output(pieces(), out)


def _emit_rows(record: dict, rows: Iterable[list[str]], fmt: str, out: Optional[str]) -> None:
    """Write `record` with `rows` as its payload's "rows", which it holds
    empty. No entry (a reduced fraction) needs quoting: JSON gets each row at
    its depth, CSV the context as "# key=value" lines, then a row per line."""
    if fmt == "json":
        _emit(record, out, ('\n      [\n        "' + '",\n        "'.join(row) + '"\n      ]' for row in rows))
    else:
        context = [f"# {key}={value}\n" for key, value in record["context"].items()]
        _write_output(chain(context, (",".join(row) + "\r\n" for row in rows)), out)


# ---- subcommands -----------------------------------------------------------


def cmd_table(args) -> int:
    oracle = parse_dist(args.dist)
    lam = parse_rational(args.lam)
    cols = list(_columns(StirlingContext(oracle, lam, args.r), args.n_max))  # all before the first write
    rows = ([_format(col[n], den) for col, den in cols[: n + 1]] for n in range(args.n_max + 1))
    record = _record("table", _context_dict(oracle, {"lambda": str(lam), "r": args.r}), {"rows": []})
    _emit_rows(record, rows, args.format, args.out)
    return 0


def cmd_bell(args) -> int:
    from .bell import bell_dobinski

    if args.x_float is not None and not (math.isfinite(args.x_float) and args.x_float >= 0):
        raise ValueError(f"--x-float must be a finite x >= 0, got {args.x_float}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol: tolerance must be finite and > 0, got {args.tol}")
    if args.tol < sys.float_info.min:
        raise ValueError(f"--tol: tolerance must be a normal float (>= {sys.float_info.min}), got {args.tol}")
    if args.dobinski != (args.x_float is not None):
        raise ValueError("--dobinski requires --x-float" if args.dobinski else "--x-float requires --dobinski")
    oracle = parse_dist(args.dist)
    lam = parse_rational(args.lam)
    ctx = StirlingContext(oracle, lam, args.r)
    row = _triangle_row(ctx, args.n)
    payload = {"n": args.n, "coefficients": [_format(v, row.den) for v in row.nums]}
    diagnostics = None
    if args.x is not None:
        x = parse_rational(args.x)
        payload["x"], payload["value"] = str(x), _format(*_at(row, x.numerator, x.denominator))
    if args.dobinski:
        result = bell_dobinski(ctx, args.n, args.x_float, args.tol)
        diagnostics = {
            "x_float": args.x_float,
            "approximation": _json_float(result.value),
            "terms_used": result.terms_used,
            "last_term": _json_float(result.last_term),
            "tolerance": result.tolerance,
            "converged": result.converged,
        }
    _emit(_record("bell", _context_dict(oracle, {"lambda": str(lam), "r": args.r}), payload, diagnostics), args.out)
    return 0


def cmd_verify(args) -> int:
    from .identities import _reports, default_grid, gating_failures, parse_suite

    summary: dict = {}
    reports = _reports(default_grid(args.max_n), parse_suite(args.suite), summary)
    if args.report == "json":
        import json

        # 256 reports per encode call (one call per report is slower, one for
        # all holds them all), re-indented to their depth; only text is kept
        encode, batches = json.JSONEncoder(indent=2, allow_nan=False).encode, []
        while batch := [rep.to_dict() for rep in islice(reports, 256)]:
            batches.append(encode(batch)[1:-2].replace("\n", "\n    "))
        _emit(_record("verify", None, {"summary": summary, "reports": []}), args.out, batches)
    else:
        for _ in reports:  # the summary keeps no report
            pass
        _emit(_record("verify", None, {"summary": summary}), args.out)
    return 1 if gating_failures(summary) else 0


def cmd_moments(args) -> int:
    oracle = parse_dist(args.dist)
    if args.sum is not None:
        values = [oracle.sum_moment(args.sum, m) for m in range(args.upto + 1)]
    else:
        values = [oracle.moment(m) for m in range(args.upto + 1)]
    context = _context_dict(oracle, {})
    if args.sum is not None:
        context["sum"] = args.sum
    record = _record("moments", context, {"rows": [], "upto": args.upto})
    _emit_rows(record, [[str(v) for v in values]], args.format, args.out)
    return 0


# ---- the command line ------------------------------------------------------

_R, _LAMBDA = (int, 0, False, "the shift r"), (str, "0", False, "the degeneracy lambda (rational)")
_DIST, _FORMAT = (str, None, True, "the distribution of Y, such as poisson(1)"), (("json", "csv"), "json", False, "")
_TAIL = {"--out": (str, None, False, "write to this file, not stdout"), "--help": (None, None, False, "show this help")}

# command -> (handler, help, flags); a flag is (type, default, required, help),
# its type int (a count >= 0), float, str, a tuple of choices, bool for a
# switch, or None for help
_COMMANDS = {
    "table": (cmd_table, "emit a triangle of Stirling values", {
        "--n-max": (int, None, True, "the last row n"), "--r": _R, "--lambda": _LAMBDA, "--dist": _DIST,
        "--format": _FORMAT, **_TAIL,
    }),
    "bell": (cmd_bell, "Bell polynomial coefficients and evaluation", {
        "--n": (int, None, True, "the degree n"), "--r": _R, "--lambda": _LAMBDA, "--dist": _DIST,
        "--x": (str, None, False, "exact evaluation point (rational)"),
        "--dobinski": (bool, False, False, "also run the truncated series"),
        "--x-float": (float, None, False, "float evaluation point for the series"),
        "--tol": (float, 1e-9, False, "tolerance of the series"), **_TAIL,
    }),
    "verify": (cmd_verify, "run the identity verification suite", {
        "--suite": (str, "all", False, "'all' or comma-separated identity ids"),
        "--max-n": (int, 6, False, "the largest n checked"),
        "--report": (("json", "summary"), "summary", False, "the summary alone, or every report too"), **_TAIL,
    }),
    "moments": (cmd_moments, "raw moments of Y or of an iid sum", {
        "--dist": _DIST, "--upto": (int, None, True, "the last order"),
        "--sum": (int, None, False, "number of iid copies to sum"), "--format": _FORMAT, **_TAIL,
    }),
}


def _help(command: Optional[str]) -> str:
    """The usage text of `prstirling`, or of one command, from `_COMMANDS`."""
    usage, about = "COMMAND", "Exact probabilistic degenerate r-Stirling numbers and r-Bell polynomials."
    rows = [(name, spec[1]) for name, spec in _COMMANDS.items()] + [("-h, --help", _TAIL["--help"][3])]
    if command is not None:
        usage, about, rows = command, _COMMANDS[command][1], []
        for flag, (kind, default, required, text) in _COMMANDS[command][2].items():
            meta = "|".join(kind) if isinstance(kind, tuple) else {int: "N", float: "X", str: "TEXT"}.get(kind, "")
            note = "required" if required else "" if default is None or kind is bool else f"default {default}"
            rows.append((f"{flag} {meta}", f"{text} ({note})" if text and note else text or note))
    return f"usage: prstirling {usage} [--flag VALUE ...]\n\n{about}\n\n" + "".join(f"  {a:<24}{b}\n" for a, b in rows)


def _parse(argv: Sequence[str]) -> SimpleNamespace:
    """The handler (`func`) and flag values (`lam` for --lambda) of a command
    line, or no `func` and the help `text`. A flag is its name or a unique
    prefix of it, its value follows "=" or is the next token unless that
    starts with "--", and the last one given wins. A fault raises ValueError."""
    if argv[:1] == ["-h"] or argv and len(argv[0]) > 2 and "--help".startswith(argv[0]):
        return SimpleNamespace(func=None, text=_help(None), out=None)
    if not argv or argv[0] not in _COMMANDS:
        said = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise ValueError(f"{said}; choose from {', '.join(_COMMANDS)}")
    func, _, flags = _COMMANDS[argv[0]]
    values = {flag: spec[1] for flag, spec in flags.items()}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        names = ["--help"] if name == "-h" else [f for f in flags if len(name) > 2 and f.startswith(name)]
        flag = name if name in names else names[0] if len(names) == 1 else None
        if flag is None:
            raise ValueError(f"ambiguous flag {name}: {', '.join(names)}" if names else f"unknown argument {token!r}")
        kind = flags[flag][0]
        if kind in (bool, None) and eq:
            raise ValueError(f"{flag} takes no value, got {token!r}")
        if kind is None:
            return SimpleNamespace(func=None, text=_help(argv[0]), out=None)
        if kind is not bool and not eq:
            value = next(tokens, "--")
            if value.startswith("--"):
                raise ValueError(f"{flag} expects a value")
        if isinstance(kind, tuple) and value not in kind:
            raise ValueError(f"{flag}: invalid choice {value!r}; choose from {', '.join(kind)}")
        try:
            values[flag] = True if kind is bool else kind(value) if kind in (int, float) else value
        except ValueError:
            raise ValueError(f"{flag}: invalid {kind.__name__} value {value!r}") from None
        if kind is int and values[flag] < 0:
            raise ValueError(f"{flag} must be >= 0, got {values[flag]}")
    if missing := [flag for flag, spec in flags.items() if spec[2] and values[flag] is None]:
        raise ValueError(f"the following flags are required: {', '.join(missing)}")
    return SimpleNamespace(
        func=func, **{f[2:].replace("-", "_").replace("lambda", "lam"): v for f, v in values.items()})


# the flag that sets the size of each command's work
_SIZE_FLAGS = {"table": "--n-max", "bell": "--n", "verify": "--max-n", "moments": "--upto or --sum"}
_exit_hook_registered = False


def main(argv: Optional[Sequence[str]] = None) -> int:
    # Freeze every object at exit, so the interpreter's shutdown collections
    # (run after atexit callbacks) skip the heap. Registered once: unregister
    # leaves its slot behind, and a caller that stays alive keeps its cyclic GC.
    global _exit_hook_registered
    if not _exit_hook_registered:
        atexit.register(gc.freeze)
        _exit_hook_registered = True
    out, argv = None, sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
        out = args.out
        if args.func is None:
            sys.stdout.write(args.text)
            return 0
        return args.func(args)
    except (ParseError, DistributionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: value beyond float range: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write {out or 'stdout'}: {exc.strerror}", file=sys.stderr)
        return 2
    except MemoryError:
        size = _SIZE_FLAGS.get(argv[0] if argv else "", "request")
        print(f"error: out of memory; try a smaller {size}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
