"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import random
import time
from fractions import Fraction

from prstirling.bell import bell_dobinski, bell_eval, bell_via_convolution, bell_coeffs
from prstirling.cli import main
from prstirling.distparse import parse_rational
from prstirling.identities import IdentityId, SuiteGrid, run_suite
from prstirling.kernel import Basis, convert_basis, degenerate_falling_coeffs, shift_argument
from prstirling.moments import MomentOracle
from prstirling.stirling import (
    StirlingContext,
    prob_r_stirling2,
    prob_r_stirling2_via_conv,
    prob_r_stirling2_via_shift,
)

from oracles import bell_number, partition_count

F = Fraction

PRESETS = {
    "point(1)": MomentOracle.point(1),
    "bernoulli(1/2)": MomentOracle.bernoulli(F(1, 2)),
    "uniform{0,1,2}": MomentOracle.uniform_discrete([0, 1, 2]),
    "poisson(1)": MomentOracle.poisson(1),
}
LAMBDAS = [F(-1, 2), F(0), F(1, 3), F(1), F(2)]
RS = [0, 1, 2, 3]
# every context below, at n = 0..8
GRID = SuiteGrid(dists=tuple(PRESETS), lambdas=tuple(map(str, LAMBDAS)), rs=tuple(RS), max_n=8)


def contexts(max_r=3):
    for y in PRESETS.values():
        for lam in LAMBDAS:
            for r in RS[: max_r + 1]:
                yield StirlingContext(y, lam, r)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}{'  ' + detail if detail else ''}")
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_three_formula_agreement():
    start = time.perf_counter()
    mismatches = 0
    for ctx in contexts():
        for n in range(11):
            for k in range(n + 1):
                a = prob_r_stirling2(ctx, n, k)
                if prob_r_stirling2_via_conv(ctx, n, k) != a:
                    mismatches += 1
                if prob_r_stirling2_via_shift(ctx, n, k) != a:
                    mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        "1 three-formula agreement",
        mismatches == 0 and elapsed < 60,
        f"mismatches={mismatches} elapsed={elapsed:.1f}s",
    )


def test_criterion_2_reductions():
    bad = 0
    o = MomentOracle.point(1)
    for lam in LAMBDAS:
        for r in RS:
            ctx = StirlingContext(o, lam, r)
            for n in range(11):
                expansion = convert_basis(
                    shift_argument(degenerate_falling_coeffs(n, lam), r),
                    Basis.FALLING_FACTORIAL,
                )
                expected = list(expansion.coefficients)
                expected += [F(0)] * (n + 1 - len(expected))
                got = [prob_r_stirling2(ctx, n, k) for k in range(n + 1)]
                if got != expected:
                    bad += 1
    ctx0 = StirlingContext(o, F(0), 0)
    for n in range(9):
        for k in range(n + 1):
            if prob_r_stirling2(ctx0, n, k) != partition_count(n, k):
                bad += 1
    spot = prob_r_stirling2(ctx0, 8, 4) == 1701
    report("2 reduction checks", bad == 0 and spot, f"bad={bad} s2(8,4)_ok={spot}")


def test_criterion_3_polynomial_identities():
    reports, _ = run_suite(GRID, [IdentityId.T2_4, IdentityId.T2_9_corrected])
    bad = sum(not rep.passed for rep in reports)
    one = SuiteGrid(dists=("bernoulli(1/2)",), lambdas=("1/3",), rs=(0,), max_n=2)
    witness = run_suite(one, [IdentityId.T2_9_paper_form])[0][-1]  # n = 2
    report(
        "3 polynomial identities",
        bad == 0 and len(reports) == 2 * 80 * 9 and not witness.passed,
        f"bad={bad} checks={len(reports)} paper_form_counterexample={'found' if not witness.passed else 'missing'}",
    )


def test_criterion_4_recurrence():
    reports, _ = run_suite(GRID, [IdentityId.T2_8])
    bad = sum(not rep.passed for rep in reports)
    # (n, m, k) with m + k <= n <= 8: 165 per context
    report("4 recurrence identity", bad == 0 and len(reports) == 80 * 165, f"bad={bad} checks={len(reports)}")


def test_criterion_5_bell_consistency():
    bad = 0
    xs = [F(-1), F(0), F(1, 2), F(1), F(2)]
    for ctx in contexts():
        for n in range(11):
            row = tuple(prob_r_stirling2(ctx, n, k) for k in range(n + 1))
            if bell_coeffs(ctx, n).coefficients != row:
                bad += 1
            for x in xs:
                if bell_via_convolution(ctx, n, x) != bell_eval(ctx, n, x):
                    bad += 1
    ctx0 = StirlingContext(PRESETS["point(1)"], F(0), 0)
    bells_ok = all(bell_eval(ctx0, n, 1) == bell_number(n) for n in range(8))
    expected = [1, 1, 2, 5, 15, 52, 203, 877]
    bells_ok = bells_ok and [bell_eval(ctx0, n, 1) for n in range(8)] == expected
    report("5 Bell consistency", bad == 0 and bells_ok, f"bad={bad} bell_numbers_ok={bells_ok}")


def test_criterion_6_dobinski():
    start = time.perf_counter()
    bad = 0
    max_terms_seen = 0
    tol = 1e-9
    for ctx in contexts():
        for n in range(9):
            for x in (0.5, 1.0, 2.0, 4.0):
                result = bell_dobinski(ctx, n, x, tol)
                exact = float(bell_eval(ctx, n, F(x)))
                max_terms_seen = max(max_terms_seen, result.terms_used)
                if not result.converged or result.terms_used >= 200:
                    bad += 1
                elif exact != 0 and abs(result.value - exact) > tol * abs(exact):
                    bad += 1
                elif exact == 0 and abs(result.value) > tol:
                    bad += 1
    elapsed = time.perf_counter() - start
    report(
        "6 Dobinski convergence",
        bad == 0 and elapsed < 10,
        f"bad={bad} max_terms={max_terms_seen} elapsed={elapsed:.1f}s",
    )


def test_criterion_7_cli(tmp_path, capsys):
    args = ["table", "--n-max", "6", "--r", "2", "--lambda", "1/3", "--dist", "poisson(1)"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()

    rng = random.Random(12345)
    round_trip = True
    for _ in range(1000):
        v = F(rng.randint(-1000, 1000), rng.randint(1, 1000))
        if parse_rational(str(v)) != v:
            round_trip = False

    out_file = tmp_path / "verify.json"
    exit_code = main(["verify", "--suite", "all", "--max-n", "6", "--out", str(out_file)])
    capsys.readouterr()
    summary = json.loads(out_file.read_text())["payload"]["summary"]
    ok = identical and round_trip and exit_code == 0
    report(
        "7 CLI determinism",
        ok,
        f"identical={identical} round_trip={round_trip} verify_exit={exit_code} "
        f"identities={len(summary)}",
    )
