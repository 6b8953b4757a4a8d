"""CLI output compared byte for byte with files captured from an earlier
version of the program, so any change to what the CLI prints shows here.
Each case's file is tests/golden/<name>.out, the exact stdout of
`prstirling ARGV`. The `verify` reports of every identity are pinned the same
way on one small grid, both sides of every check included, since the `verify`
summary golden file holds only counts."""

import json
from pathlib import Path

import pytest

from prstirling.cli import main
from prstirling.identities import IdentityId, SuiteGrid, run_suite

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
