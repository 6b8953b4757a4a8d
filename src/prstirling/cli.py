"""Command-line surface: triangles, Bell polynomials, moments, and the
identity verification suite.

Exact values always serialize as reduced fraction strings ("p" or "p/q");
the only float fields are the Dobinski approximation and its diagnostics,
which carry the tolerance they were computed at. Output is byte-for-byte
deterministic for identical invocations.

`table` and `moments` load only `distparse`, `moments`, `kernel` and
`stirling`; `bell` also loads `bell`, and `verify` also loads `identities`,
each imported inside its subcommand (`identities` loads `bell` once per
run, only for T2_6 and T2_7). JSON output imports `json`, and
no request imports `csv`. `_emit` writes every JSON record, splicing in a
list written in pieces (`table` and `moments` rows, `verify` reports), and
every output leaves `_write_output` in writes of about 64 KiB; a piece of
64 KiB or more, such as a batch of `verify` reports, is written as it is.

Every value is computed before the first write, so a failure gives one
`error:` line and never half a document. A `verify` summary keeps no
report, and `--report json` keeps only the reports' text: `--suite all`
peaks at 16.3 MB RSS at max-n 5, and at 23.7 MB as JSON at max-n 7.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import tempfile
from itertools import chain, islice
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
    64 KiB, to stdout or to `out` through a temp file renamed into place. A
    piece of 64 KiB or more is written as it is, never joined."""

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
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".prstirling-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks())
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(record: dict, out: Optional[str], items: Optional[Iterable[str]] = None) -> None:
    """Write `record` as one JSON document, its last "[]" filled with `items`,
    if given, as they come: each the JSON text of its elements, opening on a
    new line at their depth. With no item the list stays "[]"."""
    import json

    text = json.dumps(record, indent=2, allow_nan=False)
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


def _check_sizes(args, *names: str) -> None:
    """Reject a negative value of each named integer flag, naming the flag,
    before any computation; a flag not given (None) passes."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 0:
            raise ValueError(f"--{name.replace('_', '-')} must be >= 0, got {value}")


def cmd_table(args) -> int:
    _check_sizes(args, "n_max", "r")
    oracle = parse_dist(args.dist)
    lam = parse_rational(args.lam)
    cols = list(_columns(StirlingContext(oracle, lam, args.r), args.n_max))  # all before the first write
    rows = ([_format(col[n], den) for col, den in cols[: n + 1]] for n in range(args.n_max + 1))
    record = _record("table", _context_dict(oracle, {"lambda": str(lam), "r": args.r}), {"rows": []})
    _emit_rows(record, rows, args.format, args.out)
    return 0


def cmd_bell(args) -> int:
    from .bell import bell_dobinski

    _check_sizes(args, "n", "r")
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
    from .identities import OPT_IN_IDENTITIES, IdentityId, _reports, default_grid

    _check_sizes(args, "max_n")
    if args.suite == "all":
        wanted = [i for i in IdentityId if i not in OPT_IN_IDENTITIES]
    else:
        wanted = []
        for name in args.suite.split(","):
            name = name.strip()
            try:
                wanted.append(IdentityId(name))
            except ValueError:
                raise ValueError(f"unknown identity id: {name!r}") from None
    summary: dict = {}
    reports = _reports(default_grid(args.max_n), wanted, summary)
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
    # opt-in identities report findings; only the rest gate the exit status
    gating_failures = sum(s["fail"] for name, s in summary.items() if IdentityId(name) not in OPT_IN_IDENTITIES)
    return 1 if gating_failures else 0


def cmd_moments(args) -> int:
    _check_sizes(args, "upto", "sum")
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


# ---- argument parsing ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prstirling",
        description="Exact probabilistic degenerate r-Stirling numbers and r-Bell polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="emit a triangle of Stirling values")
    p_table.add_argument("--n-max", type=int, required=True)
    p_table.add_argument("--r", type=int, default=0)
    p_table.add_argument("--lambda", dest="lam", default="0")
    p_table.add_argument("--dist", required=True)
    p_table.add_argument("--format", choices=["json", "csv"], default="json")
    p_table.add_argument("--out")
    p_table.set_defaults(func=cmd_table)

    p_bell = sub.add_parser("bell", help="Bell polynomial coefficients and evaluation")
    p_bell.add_argument("--n", type=int, required=True)
    p_bell.add_argument("--r", type=int, default=0)
    p_bell.add_argument("--lambda", dest="lam", default="0")
    p_bell.add_argument("--dist", required=True)
    p_bell.add_argument("--x", help="exact evaluation point (rational)")
    p_bell.add_argument("--dobinski", action="store_true", help="also run the truncated series")
    p_bell.add_argument("--x-float", type=float, help="float evaluation point for the series")
    p_bell.add_argument("--tol", type=float, default=1e-9)
    p_bell.add_argument("--out")
    p_bell.set_defaults(func=cmd_bell)

    p_verify = sub.add_parser("verify", help="run the identity verification suite")
    p_verify.add_argument("--suite", default="all", help="'all' or comma-separated identity ids")
    p_verify.add_argument("--max-n", type=int, default=6)
    p_verify.add_argument("--report", choices=["json", "summary"], default="summary")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify)

    p_moments = sub.add_parser("moments", help="raw moments of Y or of an iid sum")
    p_moments.add_argument("--dist", required=True)
    p_moments.add_argument("--upto", type=int, required=True)
    p_moments.add_argument("--sum", type=int, help="number of iid copies to sum")
    p_moments.add_argument("--format", choices=["json", "csv"], default="json")
    p_moments.add_argument("--out")
    p_moments.set_defaults(func=cmd_moments)

    return parser


def _takes_rational(flag: str) -> bool:
    """--x, --lambda, or an abbreviation of --lambda (at least --l)."""
    return flag == "--x" or (len(flag) >= 3 and "--lambda".startswith(flag))


def _bind_negative_rationals(argv: Sequence[str]) -> list[str]:
    """'--lambda -1/2' -> '--lambda=-1/2', likewise for --x and for
    abbreviations of --lambda: argparse would take the token '-1/2' for an
    option string."""
    out: list[str] = []
    for token in argv:
        if out and _takes_rational(out[-1]) and re.match(r"-\d", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_bind_negative_rationals(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (ParseError, DistributionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: value beyond float range: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write {args.out or 'stdout'}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
