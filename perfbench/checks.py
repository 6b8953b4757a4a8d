"""Output checks. A request counts as failed unless its output passes every check.

Every output must parse strictly: JSON with NaN and infinities rejected, or
CSV of exactly the requested triangle shape, with every exact value a reduced
rational string. Beyond the shape, values are checked against routes that do
not share the production formula:

- closed forms computed here: the diagonal entry of every triangle row and the
  leading Bell coefficient equal E[Y]^n, whatever lambda and r are;
- the witness routes of the library (``prob_r_stirling2_via_shift``,
  ``bell_via_convolution``) on a seeded sample of entries and values;
- the Dobinski approximation must be converged and within ``--tol`` of the
  exact value at the same point;
- a verify summary must list exactly the requested identities, with the
  number of checks the suite grid implies and no failure.

The witness recomputation runs in the benchmark process, after the timed loop.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from fractions import Fraction

from prstirling import (
    StirlingContext,
    bell_via_convolution,
    parse_dist,
    parse_rational,
    prob_r_stirling2_via_shift,
)
from prstirling.identities import default_grid

RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")


class Invalid(Exception):
    """The output is missing, malformed or wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Invalid(message)


def strict_json(out: bytes):
    def reject(constant):
        raise Invalid(f"non-finite JSON constant {constant}")

    try:
        return json.loads(out.decode("utf-8"), parse_constant=reject)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise Invalid(f"invalid JSON: {exc}") from None


def rational(text) -> Fraction:
    expect(isinstance(text, str) and RATIONAL.match(text) is not None, f"not a rational string: {text!r}")
    value = Fraction(text)
    expect(str(value) == text, f"rational not in reduced form: {text!r}")
    return value


def mean_of(dist: str) -> Fraction:
    """E[Y] from the distribution expression, without the library's oracle."""
    name, body = re.fullmatch(r"([a-z]+)(.*)", dist).groups()
    args = [Fraction(a) for a in re.findall(r"-?[0-9]+(?:/[0-9]+)?", body)]
    if name in ("poisson", "bernoulli", "point"):
        return args[0]
    if name == "binomial":
        return args[0] * args[1]
    if name == "geometric":
        return 1 / args[0]
    if name == "uniform":
        return sum(args) / len(args)  # {values...} or [a, b]: both average the listed numbers
    raise ValueError(dist)


def _context(params) -> StirlingContext:
    return StirlingContext(parse_dist(params["dist"]), parse_rational(params["lam"]), params["r"])


def _check_context(ctx: dict, params) -> None:
    expect(ctx.get("dist") == parse_dist(params["dist"]).describe(), f"context dist {ctx.get('dist')!r}")
    expect(ctx.get("lambda") == str(Fraction(params["lam"])), f"context lambda {ctx.get('lambda')!r}")
    expect(str(ctx.get("r")) == str(params["r"]), f"context r {ctx.get('r')!r}")


def _table_rows(params, out: bytes) -> list[list[str]]:
    if params["format"] == "json":
        rec = strict_json(out)
        expect(rec.get("schema_version") == "1" and rec.get("command") == "table", "bad record header")
        _check_context(rec.get("context", {}), params)
        return rec.get("payload", {}).get("rows")
    try:
        text = out.decode("utf-8")
    except UnicodeDecodeError:
        raise Invalid("CSV is not UTF-8") from None
    lines = text.splitlines(keepends=True)
    meta = {}
    while lines and lines[0].startswith("# "):
        key, sep, value = lines.pop(0)[2:].rstrip("\n").partition("=")
        expect(sep == "=", "malformed CSV comment line")
        meta[key] = value
    expect(set(meta) >= {"dist", "lambda", "r"}, "CSV context lines missing")
    _check_context(meta, params)
    try:
        return list(csv.reader(io.StringIO("".join(lines)), strict=True))
    except csv.Error as exc:
        raise Invalid(f"malformed CSV: {exc}") from None


def check_table(params, out: bytes, rng: random.Random) -> None:
    n_max = params["n_max"]
    rows = _table_rows(params, out)
    expect(isinstance(rows, list) and len(rows) == n_max + 1, "wrong number of rows")
    values = []
    for n, row in enumerate(rows):
        expect(isinstance(row, list) and len(row) == n + 1, f"row {n} has the wrong length")
        values.append([rational(v) for v in row])
    mean = mean_of(params["dist"])
    for n in range(n_max + 1):
        expect(values[n][n] == mean ** n, f"diagonal entry ({n}, {n}) is not E[Y]^n")
    ctx = _context(params)
    deep = min(n_max, 20)
    sample = [(n_max, rng.randint(0, 2))] + [(n, rng.randint(0, n)) for n in rng.sample(range(deep + 1), 3)]
    for n, k in sample:
        expect(values[n][k] == prob_r_stirling2_via_shift(ctx, n, k), f"entry ({n}, {k}) differs from the shift route")


def check_series(params, out: bytes, witness: bool) -> float:
    """Returns the relative error of the Dobinski approximation."""
    n, x, tol = params["n"], params["x"], params["tol"]
    rec = strict_json(out)
    expect(rec.get("schema_version") == "1" and rec.get("command") == "bell", "bad record header")
    _check_context(rec.get("context", {}), params)
    payload, diag = rec.get("payload", {}), rec.get("diagnostics")
    coeffs = payload.get("coefficients")
    expect(payload.get("n") == n and isinstance(coeffs, list) and len(coeffs) == n + 1, "wrong coefficient vector")
    coeffs = [rational(c) for c in coeffs]
    expect(coeffs[n] == mean_of(params["dist"]) ** n, "leading coefficient is not E[Y]^n")
    expect(payload.get("x") == str(x), "evaluation point echoed wrongly")
    value = rational(payload.get("value"))
    horner = Fraction(0)
    for c in reversed(coeffs):
        horner = horner * x + c
    expect(value == horner, "value does not match its own coefficients")
    if witness:
        expect(value == bell_via_convolution(_context(params), n, x), "value differs from the convolution route")
    expect(isinstance(diag, dict) and diag.get("converged") is True, "Dobinski series did not converge")
    expect(diag.get("x_float") == float(x) and diag.get("tolerance") == tol, "diagnostics echo wrong inputs")
    approx = diag.get("approximation")
    expect(isinstance(approx, float) and math.isfinite(approx), "approximation is not a finite float")
    exact = float(value)
    rel = abs(approx - exact) / abs(exact) if exact else abs(approx)
    expect(rel <= tol, f"Dobinski relative error {rel:.3g} exceeds tolerance {tol}")
    return rel


def expected_checks(identity: str, max_n: int) -> int:
    """Number of checks run_suite makes for one identity on the default grid."""
    g = default_grid(max_n)
    contexts = len(g.dists) * len(g.lambdas) * len(g.rs)
    rows = max_n + 1
    if identity in ("T2_1_vs_T2_2", "T2_1_vs_T2_3"):
        return contexts * rows * (rows + 1) // 2
    if identity in ("T2_4", "T2_5", "T2_9_corrected"):
        return contexts * rows
    if identity == "T2_6":
        return contexts * rows * len(g.xs)
    if identity == "T2_7":
        return contexts * rows * len(g.dobinski_xs)
    if identity == "T2_8":
        return contexts * rows * (rows + 1) * (rows + 2) // 6
    if identity == "ReductionY1":
        return len(g.lambdas) * len(g.rs) * rows
    if identity == "ClassicalLambda0":
        return len(g.rs) * rows
    raise ValueError(identity)


def check_verify(params, out: bytes) -> None:
    rec = strict_json(out)
    expect(rec.get("schema_version") == "1" and rec.get("command") == "verify", "bad record header")
    summary = rec.get("payload", {}).get("summary")
    expect(isinstance(summary, dict) and set(summary) == set(params["ids"]), "summary lists other identities")
    for ident in params["ids"]:
        total = expected_checks(ident, params["max_n"])
        expect(summary[ident] == {"pass": total, "fail": 0, "total": total},
               f"{ident}: {summary[ident]} (expected {total} passing checks)")


def check_warm_sample(sample: dict) -> None:
    """One value a warm session returned, recomputed through a witness route."""
    ctx = _context(sample)
    value = rational(sample["value"])
    if "k" in sample:
        expected = prob_r_stirling2_via_shift(ctx, sample["n"], sample["k"])
    else:
        expected = bell_via_convolution(ctx, sample["n"], Fraction(sample["x"]))
    expect(value == expected, f"warm value differs from the witness route: {sample}")


def corrupt(out: bytes) -> bytes:
    """Change the last decimal digit of an output (used by the smoke check)."""
    for i in range(len(out) - 1, -1, -1):
        if 48 <= out[i] <= 57:
            return out[:i] + bytes([48 + (out[i] - 47) % 10]) + out[i + 1:]
    return out + b"corrupted"
