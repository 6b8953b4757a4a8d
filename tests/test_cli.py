import contextlib
import io
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from prstirling.cli import main
from prstirling.distparse import parse_rational
from prstirling.identities import IdentityId, default_grid, run_suite

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_classical(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--n-max", "2", "--r", "0", "--lambda", "0", "--dist", "point(1)"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["schema_version"] == "1"
    assert rec["command"] == "table"
    assert rec["context"] == {"dist": "point(1)", "lambda": "0", "r": 0}
    assert rec["payload"]["rows"] == [["1"], ["0", "1"], ["0", "1", "1"]]


def test_table_shifted_degenerate(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--n-max", "2", "--r", "1", "--lambda", "1/3", "--dist", "point(1)"
    )
    assert code == 0
    rows = json.loads(out)["payload"]["rows"]
    assert rows == [["1"], ["1", "1"], ["2/3", "8/3", "1"]]


def test_table_n_max_zero(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--n-max", "0", "--r", "2", "--lambda", "1", "--dist", "poisson(1)"
    )
    assert code == 0
    assert json.loads(out)["payload"]["rows"] == [["1"]]


def test_table_csv_matches_json(capsys, tmp_path):
    args = ["table", "--n-max", "4", "--r", "1", "--lambda", "1/3", "--dist", "bernoulli(1/2)"]
    code, json_out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    code, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    json_values = [v for row in json.loads(json_out)["payload"]["rows"] for v in row]
    csv_lines = [l for l in csv_out.splitlines() if l and not l.startswith("#")]
    csv_values = [v for line in csv_lines for v in line.split(",")]
    assert sorted(json_values) == sorted(csv_values)
    header = [l for l in csv_out.splitlines() if l.startswith("#")]
    assert "# lambda=1/3" in header
    assert "# dist=bernoulli(1/2)" in header


def test_bell_command(capsys):
    code, out, _ = run_cli(
        capsys, "bell", "--n", "4", "--r", "0", "--lambda", "0", "--dist", "point(1)", "--x", "1"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["payload"]["value"] == "15"


def test_bell_n_zero(capsys):
    code, out, _ = run_cli(capsys, "bell", "--n", "0", "--dist", "poisson(1)")
    assert code == 0
    assert json.loads(out)["payload"]["coefficients"] == ["1"]


def test_bell_dobinski(capsys):
    code, out, _ = run_cli(
        capsys,
        "bell",
        "--n", "4", "--r", "1", "--lambda", "1/3", "--dist", "bernoulli(1/2)",
        "--x", "2", "--dobinski", "--x-float", "2", "--tol", "1e-9",
    )
    assert code == 0
    rec = json.loads(out)
    exact = parse_rational(rec["payload"]["value"])
    diag = rec["diagnostics"]
    assert diag["converged"] is True
    assert abs(diag["approximation"] - float(exact)) <= 1e-9 * abs(float(exact))
    assert diag["tolerance"] == 1e-9


def test_bell_dobinski_rejects_negative_x(capsys):
    code, _, err = run_cli(
        capsys,
        "bell", "--n", "2", "--dist", "point(1)", "--dobinski", "--x-float", "-1",
    )
    assert code == 2
    assert "x >= 0" in err


def test_moments_command(capsys):
    code, out, _ = run_cli(capsys, "moments", "--dist", "poisson(1)", "--upto", "4")
    assert code == 0
    assert json.loads(out)["payload"]["rows"] == [["1", "1", "2", "5", "15"]]


def test_moments_sum(capsys):
    code, out, _ = run_cli(capsys, "moments", "--dist", "point(1)", "--sum", "3", "--upto", "2")
    assert code == 0
    assert json.loads(out)["payload"]["rows"] == [["1", "3", "9"]]


def test_moments_upto_zero(capsys):
    code, out, _ = run_cli(capsys, "moments", "--dist", "geometric(1/2)", "--upto", "0")
    assert code == 0
    assert json.loads(out)["payload"]["rows"] == [["1"]]


def test_moments_formal_flag(capsys):
    code, out, _ = run_cli(capsys, "moments", "--dist", "moments[1,2,9]", "--upto", "2")
    assert code == 0
    assert json.loads(out)["context"]["formal_moments"] is True


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "moments", "--dist", "bernoulli(3/2)", "--upto", "2")
    assert code == 2
    assert "error:" in err


def test_verify_small(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "T2_4,T2_5", "--max-n", "2", "--report", "json"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["payload"]["summary"]["T2_4"]["fail"] == 0
    assert all(r["passed"] for r in rec["payload"]["reports"])


def test_verify_paper_form_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "T2_9_paper_form", "--max-n", "3", "--report", "json"
    )
    assert code == 0  # opt-in findings do not gate the exit status
    rec = json.loads(out)
    assert rec["payload"]["summary"]["T2_9_paper_form"]["fail"] > 0


def reference_verify_json(suite, max_n):
    """The verify JSON record built in one piece from the public run_suite."""
    wanted = [IdentityId(name) for name in suite.split(",")]
    reps, summary = run_suite(default_grid(max_n), wanted)
    record = {
        "schema_version": "1",
        "command": "verify",
        "payload": {"summary": summary, "reports": [r.to_dict() for r in reps]},
    }
    return json.dumps(record, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize(
    "suite,max_n",
    [
        ("ClassicalLambda0", 0),  # 4 reports
        ("T2_5", 1),  # 160 reports, one batch
        ("T2_4,T2_5", 2),  # 480 reports, across a batch boundary
        ("T2_5", 15),  # 1,280 reports, a whole number of batches
        ("T2_7,T2_8,T2_9_paper_form", 2),  # floats, a tolerance, failing reports
    ],
)
def test_verify_json_is_the_record_of_run_suite(capsys, tmp_path, suite, max_n):
    expected = reference_verify_json(suite, max_n)
    argv = ["verify", "--suite", suite, "--max-n", str(max_n), "--report", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected
    out_file = tmp_path / "verify.json"
    assert run_cli(capsys, *argv, "--out", str(out_file)) == (0, "", "")
    assert out_file.read_text() == expected
    assert [p.name for p in tmp_path.iterdir()] == ["verify.json"]


@pytest.mark.parametrize(
    "argv,limit",
    [
        (["verify", "--suite", "all", "--max-n", "5"], 1 << 20),
        (["verify", "--suite", "all", "--max-n", "7", "--report", "json"], 16 << 20),
    ],
    ids=["summary", "json"],
)
def test_verify_keeps_no_report_it_does_not_print(argv, limit):
    """A summary run keeps no report and a JSON run only their text: the
    traced peak of the run, stdout included, stays far below what holding
    the reports takes (13,744 at max-n 5, 23,872 at max-n 7)."""
    import prstirling.bell, prstirling.identities  # noqa: F401  (imports are not the run's)

    with contextlib.redirect_stdout(io.StringIO()):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < limit


def one_error_line(code, out, err):
    return code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_verify_unknown_identity(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "T9_99")
    assert one_error_line(code, out, err)
    assert "T9_99" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--x-float", "inf"], "finite x >= 0"),
        (["--x-float", "nan"], "finite x >= 0"),
        (["--x-float", "1", "--tol", "nan"], "tolerance must be finite and > 0"),
        (["--x-float", "1", "--tol", "inf"], "tolerance must be finite and > 0"),
        (["--x-float", "1", "--tol", "0"], "tolerance must be finite and > 0"),
        ([], "--dobinski requires --x-float"),
    ],
    ids=["x-inf", "x-nan", "tol-nan", "tol-inf", "tol-zero", "no-x-float"],
)
def test_bell_dobinski_bad_inputs_are_one_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, "bell", "--n", "2", "--dist", "poisson(1)", "--dobinski", *argv)
    assert one_error_line(code, out, err)
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--dist", "point(1)", "--upto", "-1"],
        ["moments", "--dist", "point(1)", "--sum", "2", "--upto", "-1"],
        ["verify", "--max-n", "-1"],
    ],
    ids=["moments", "moments-sum", "verify"],
)
def test_negative_sizes_are_one_error_line(capsys, argv):
    assert one_error_line(*run_cli(capsys, *argv))


def test_negative_sum_is_one_error_line(capsys):
    code, out, err = run_cli(capsys, "moments", "--dist", "point(1)", "--sum", "-1", "--upto", "0")
    assert one_error_line(code, out, err)
    assert err == "error: --sum must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "argv,line",
    [
        (["table", "--n-max", "-1", "--dist", "point(1)"], "--n-max must be >= 0, got -1"),
        (["table", "--n-max", "2", "--r", "-1", "--dist", "point(1)"], "--r must be >= 0, got -1"),
        (["bell", "--n", "-1", "--dist", "point(1)"], "--n must be >= 0, got -1"),
        (["bell", "--n", "2", "--r", "-3", "--dist", "point(1)"], "--r must be >= 0, got -3"),
        (["verify", "--max-n", "-2"], "--max-n must be >= 0, got -2"),
        (["bell", "--n", "2", "--dist", "point(1)", "--tol", "-1"],
         "--tol: tolerance must be finite and > 0, got -1.0"),
        (["bell", "--n", "2", "--dist", "point(1)", "--x-float", "-1"],
         "--x-float must be a finite x >= 0, got -1.0"),
        (["bell", "--n", "2", "--dist", "point(1)", "--dobinski", "--x-float", "1", "--tol", "5e-324"],
         "--tol: tolerance must be a normal float (>= 2.2250738585072014e-308), got 5e-324"),
    ],
    ids=[
        "table-n-max", "table-r", "bell-n", "bell-r", "verify-max-n", "bell-tol", "bell-x-float", "bell-tol-subnormal",
    ],
)
def test_flag_domain_error_names_the_flag(capsys, argv, line):
    code, out, err = run_cli(capsys, *argv)
    assert one_error_line(code, out, err)
    assert err == f"error: {line}\n"


def test_out_into_missing_directory_is_one_error_line(capsys, tmp_path):
    target = tmp_path / "missing" / "t.json"
    code, out, err = run_cli(capsys, "table", "--n-max", "2", "--dist", "point(1)", "--out", str(target))
    assert one_error_line(code, out, err)
    assert str(target) in err
    assert not (tmp_path / "missing").exists()


def test_dobinski_term_past_float_range_is_one_error_line(capsys):
    code, out, err = run_cli(capsys, "bell", "--n", "1", "--dist", f"point(1{'0' * 400})", "--dobinski", "--x-float", "1")
    assert one_error_line(code, out, err)
    assert "float range" in err


def test_unconverged_series_is_strict_json(capsys):
    # the minimum index 2 + 20000 is past the term cap
    code, out, _ = run_cli(capsys, "bell", "--n", "2", "--dist", "poisson(1)", "--dobinski", "--x-float", "20000")
    assert code == 0
    diag = json.loads(out, parse_constant=pytest.fail)["diagnostics"]
    assert diag["converged"] is False
    assert diag["approximation"] is None
    assert diag["terms_used"] == 10000


def test_series_at_zero_converges_at_a_tiny_tolerance(capsys):
    # tolerance / 8 is subnormal, yet at x = 0 the series is its first term,
    # E[S_1^2] = 2 for Y = poisson(1)
    argv = ["--n", "2", "--r", "1", "--dist", "poisson(1)", "--dobinski", "--x-float", "0", "--tol", "1e-307"]
    code, out, err = run_cli(capsys, "bell", *argv)
    assert (code, err) == (0, "")
    diag = json.loads(out)["diagnostics"]
    assert diag["converged"] is True
    assert diag["approximation"] == 2.0


@pytest.mark.parametrize("x", ["700", "800"])
def test_series_past_float_range_converges(capsys, x):
    # the plain partial sum overflows at x = 700, and e^(-x) underflows at
    # x = 800; Bel_2(x) = x^2 + x for Y = 1, lam = 0, r = 0
    code, out, _ = run_cli(capsys, "bell", "--n", "2", "--dist", "point(1)", "--dobinski", "--x-float", x)
    assert code == 0
    diag = json.loads(out, parse_constant=pytest.fail)["diagnostics"]
    exact = float(x) ** 2 + float(x)
    assert diag["converged"] is True
    assert abs(diag["approximation"] - exact) <= diag["tolerance"] * exact
    assert diag["terms_used"] < 10000


def test_output_file_deterministic(tmp_path, capsys):
    args = [
        "table", "--n-max", "5", "--r", "2", "--lambda=-1/2", "--dist", "uniform{0,1,2}",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    # no leftover temp files from the atomic write
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]


@pytest.mark.parametrize(
    "joined",
    [
        ["table", "--n-max", "3", "--r", "1", "--lambda=-1/2", "--dist", "bernoulli(1/2)"],
        ["table", "--n-max", "2", "--lambda=-3", "--dist", "point(1)", "--format", "csv"],
        ["bell", "--n", "3", "--r", "1", "--lambda=-2/3", "--dist", "poisson(1)", "--x=-1/2"],
        ["table", "--n-max", "2", "--lam=-1/2", "--dist", "point(1)"],
        ["bell", "--n", "3", "--l=-2/3", "--dist", "poisson(1)", "--x=-1/2"],
    ],
)
def test_negative_rational_as_separate_token(capsys, joined):
    split = [part for arg in joined for part in (arg.split("=", 1) if "=" in arg else [arg])]
    assert len(split) > len(joined)
    code, expected, _ = run_cli(capsys, *joined)
    assert code == 0
    assert run_cli(capsys, *split) == (0, expected, "")


def test_fraction_round_trip_random():
    rng = random.Random(20240817)
    for _ in range(1000):
        v = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert parse_rational(str(v)) == v


def test_table_past_the_given_moments_is_one_error_line(capsys):
    code, out, err = run_cli(capsys, "table", "--n-max", "4", "--dist", "moments[1,2,5,7]")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
