"""CLI output compared byte for byte with files captured from an earlier
version of the program, so any change to what the CLI prints shows here.
Each case's file is tests/golden/<name>.out, the exact stdout of
`prstirling ARGV`. The `verify` reports of every identity are pinned the same
way on one small grid, both sides of every check included, since the `verify`
summary golden file holds only counts. The distribution parser is pinned on
every family and every kind of syntax and domain error: what each expression
parses to, or the error it raises with its message and position."""

import json
from pathlib import Path

import pytest

from prstirling.cli import main
from prstirling.distparse import ParseError, parse_dist
from prstirling.identities import IdentityId, SuiteGrid, run_suite
from prstirling.moments import DistributionError

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "table_json": ["table", "--n-max", "5", "--r", "2", "--lambda=-1/2", "--dist", "uniform{0,1,2}"],
    "table_csv": [
        "table", "--n-max", "4", "--r", "1", "--lambda", "1/3", "--dist", "poisson(1/2)", "--format", "csv",
    ],
    "table_deep_uniform_csv": [
        "table", "--n-max", "30", "--r", "3", "--lambda=-3/2", "--dist", "uniform[1/2,3]", "--format", "csv",
    ],
    "table_deep_binomial_json": [
        "table", "--n-max", "30", "--r", "2", "--lambda", "1/3", "--dist", "binomial(300,1/3)",
    ],
    "bell_exact_deep": ["bell", "--n", "60", "--r", "3", "--lambda=-3/2", "--dist", "geometric(2/5)", "--x=-1/2"],
    "bell_dobinski": [
        "bell", "--n", "4", "--r", "1", "--lambda", "1/3", "--dist", "bernoulli(1/2)",
        "--x", "2", "--dobinski", "--x-float", "2",
    ],
    "bell_dobinski_uniform_deep": [
        "bell", "--n", "30", "--r", "1", "--lambda=2", "--dist", "uniform{0,1,4,6}",
        "--x", "5", "--dobinski", "--x-float", "5.0",
    ],
    "bell_dobinski_binomial_deep": [
        "bell", "--n", "28", "--r", "2", "--lambda", "0", "--dist", "binomial(315,1/3)",
        "--x", "41/4", "--dobinski", "--x-float", "10.25",
    ],
    "moments_sum": ["moments", "--dist", "uniform{0,1,2,3,5}", "--sum", "3", "--upto", "6"],
    # custom moment sequences add the formal_moments key to the context
    "table_formal_json": ["table", "--dist", "moments[1,1,2,5,14]", "--n-max", "3", "--r", "1", "--lambda=-1/2"],
    "moments_formal_sum": ["moments", "--dist", "moments[1,1,2,5]", "--sum", "2", "--upto", "3"],
    "verify_summary": ["verify", "--suite", "all", "--max-n", "3"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(capsys, name):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.out").read_bytes()


SMALL_GRID = SuiteGrid(dists=("uniform{0,1,2}", "poisson(1)"), lambdas=("-1/2", "2"), rs=(0, 2), max_n=4)


def _reports_json(ids):
    reports, summary = run_suite(SMALL_GRID, ids)
    return json.dumps({"summary": summary, "reports": [r.to_dict() for r in reports]}, indent=2).encode()


def test_polynomial_identity_reports_match_golden():
    ids = [
        IdentityId.T2_4,
        IdentityId.T2_9_corrected,
        IdentityId.T2_9_paper_form,
        IdentityId.ReductionY1,
        IdentityId.ClassicalLambda0,
    ]
    assert _reports_json(ids) == (GOLDEN / "verify_reports_polynomial.json").read_bytes()


def test_moment_identity_reports_match_golden():
    """The Theorem 2.1 witnesses, the Bell routes and the Dobinski series
    (whose lhs is the repr of the float sum, so its bits are pinned too)."""
    ids = [
        IdentityId.T2_1_vs_T2_2,
        IdentityId.T2_1_vs_T2_3,
        IdentityId.T2_5,
        IdentityId.T2_6,
        IdentityId.T2_7,
        IdentityId.T2_8,
    ]
    assert _reports_json(ids) == (GOLDEN / "verify_reports_moment.json").read_bytes()


PARSE_CASES = (
    # every family, canonical and with whitespace, signs and unreduced rationals
    "point(1)", "point(-3/2)", "point(2/4)", "  point ( 0 )  ", "\tpoisson(\n2)\n",
    "bernoulli(1/2)", "bernoulli(0)", "binomial(3,1/2)", "binomial( +3 , 1/2 )", "binomial(0,1)",
    "uniform{0,1,2}", "uniform{ 1/2 , -3 , 4 }", "uniform{5}", "uniform[0,1]", "uniform [ -1/2 , 2 ]",
    "poisson(1)", "poisson(3/4)", "geometric(1/3)", "geometric(1)",
    "moments[1,1,2,5,14]", "moments[ 1 ]", "moments[1,-1/2,6/4]",
    # syntax errors
    "", "   ", "uniform(0,1)", "bernoulli[1/2]", "uniform", "point", "moments(1)",
    "foo(1)", "  normal(0,1)", "Point(1)", "(1)", "123",
    "point(1", "point()", "point(1,2)", "point(1/0)", "point(1/-2)", "point(1/)", "point(--1)",
    "point(1/2/3)", "point(1) x", "geometric(1/2))",
    "binomial(1/2,1/2)", "binomial(3)", "uniform{}", "uniform{1,}", "uniform{1,2", "uniform[1]",
    "uniform[1,2,3]", "moments[]",
    # domain errors
    "bernoulli(3/2)", "binomial(-1,1/2)", "binomial(3,2)", "uniform[1,1]", "poisson(-1)", "geometric(0)",
    "moments[2,1]",
)


def _parse_record(expr):
    try:
        oracle = parse_dist(expr)
    except ParseError as exc:
        return {"expr": expr, "error": "ParseError", "message": str(exc), "position": exc.position}
    except DistributionError as exc:
        return {"expr": expr, "error": "DistributionError", "message": str(exc)}
    return {
        "expr": expr,
        "describe": oracle.describe(),
        "kind": oracle.kind,
        "params": [str(v) for v in oracle.params],
        "formal": oracle.formal,
    }


def test_parser_matches_golden():
    records = [_parse_record(expr) for expr in PARSE_CASES]
    assert (json.dumps(records, indent=1) + "\n").encode() == (GOLDEN / "parse_dist.json").read_bytes()
