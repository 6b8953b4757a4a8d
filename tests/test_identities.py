from fractions import Fraction

import pytest

from prstirling import identities, stirling
from prstirling.bell import bell_coeffs, bell_dobinski, bell_via_convolution
from prstirling.identities import (
    OPT_IN_IDENTITIES,
    IdentityId,
    SuiteGrid,
    default_grid,
    run_suite,
    verify_classical_limit,
    verify_formula_agreement,
    verify_reduction_point_one,
    verify_thm_2_4,
    verify_thm_2_5,
    verify_thm_2_6,
    verify_thm_2_7,
    verify_thm_2_8,
    verify_thm_2_9,
)
from prstirling.moments import MomentOracle
from prstirling.stirling import (
    StirlingContext,
    prob_r_stirling2,
    prob_r_stirling2_via_conv,
    prob_r_stirling2_via_shift,
)

F = Fraction

BERN = MomentOracle.bernoulli(F(1, 2))
UNIF = MomentOracle.uniform_discrete([0, 1, 2])


def test_thm_2_4_trivial_cases():
    ctx = StirlingContext(BERN, F(1, 3), 2)
    assert verify_thm_2_4(ctx, 0).passed
    ctx0 = StirlingContext(BERN, F(1, 3), 0)
    assert verify_thm_2_4(ctx0, 4).passed


def test_thm_2_4_example():
    assert verify_thm_2_4(StirlingContext(BERN, F(1, 3), 2), 5).passed


def test_thm_2_8_cases():
    ctx = StirlingContext(UNIF, F(1), 1)
    assert verify_thm_2_8(ctx, 4, 0, 0).passed
    assert verify_thm_2_8(ctx, 5, 3, 0).passed
    assert verify_thm_2_8(ctx, 6, 2, 2).passed
    with pytest.raises(ValueError):
        verify_thm_2_8(ctx, 2, 2, 1)


def test_thm_2_9_corrected_passes():
    for r in range(3):
        for n in range(6):
            ctx = StirlingContext(BERN, F(1, 3), r)
            assert verify_thm_2_9(ctx, n, "corrected").passed


def test_thm_2_9_paper_form_counterexample():
    rep = verify_thm_2_9(StirlingContext(BERN, F(1, 3), 0), 2, "paper")
    assert not rep.passed
    # witness data carries both sides
    assert rep.lhs != rep.rhs
    point = dict(rep.point)
    assert point["dist"] == "bernoulli(1/2)"
    assert point["n"] == "2"


def test_thm_2_9_degree_zero_both_forms():
    ctx = StirlingContext(BERN, F(1, 3), 1)
    assert verify_thm_2_9(ctx, 0, "corrected").passed
    assert verify_thm_2_9(ctx, 0, "paper").passed


def test_formula_agreement_checker():
    ctx = StirlingContext(UNIF, F(-1, 2), 2)
    for n in range(5):
        for k in range(n + 1):
            assert verify_formula_agreement(ctx, n, k, IdentityId.T2_1_vs_T2_2).passed
            assert verify_formula_agreement(ctx, n, k, IdentityId.T2_1_vs_T2_3).passed


def test_reduction_and_classical_checkers():
    for r in range(3):
        for n in range(6):
            assert verify_reduction_point_one(F(1, 3), r, n).passed
            assert verify_reduction_point_one(F(-1, 2), r, n).passed
            assert verify_classical_limit(r, n).passed


def test_thm_2_5_and_2_6_checkers():
    ctx = StirlingContext(MomentOracle.poisson(1), F(1, 3), 1)
    for n in range(5):
        assert verify_thm_2_5(ctx, n).passed
        for x in (F(-1), F(1, 2), F(2)):
            assert verify_thm_2_6(ctx, n, x).passed


def test_witnesses_never_reach_the_generating_function(monkeypatch):
    def refuse(ctx, n_max):
        raise AssertionError("generating-function columns built")

    monkeypatch.setattr(stirling, "_columns", refuse)
    ctx = StirlingContext(MomentOracle.uniform_discrete([0, 1, 3]), F(2, 5), 2)
    for n in range(5):
        for k in range(n + 1):
            assert prob_r_stirling2(ctx, n, k) == prob_r_stirling2_via_conv(ctx, n, k)
            assert prob_r_stirling2(ctx, n, k) == prob_r_stirling2_via_shift(ctx, n, k)
        bell_via_convolution(ctx, n, F(1, 2))
        assert bell_dobinski(ctx, n, 1.5, 1e-9).converged
    with pytest.raises(AssertionError, match="generating-function"):
        bell_coeffs(ctx, 3)


def test_a_perturbed_generating_function_fails_its_checks(monkeypatch):
    columns = stirling._columns

    def perturbed(ctx, n_max):
        for k, (col, col_den) in enumerate(columns(ctx, n_max)):
            if k == 1:
                col = col[:-1] + [col[-1] + 1]  # entry (n_max, 1)
            yield col, col_den

    monkeypatch.setattr(stirling, "_columns", perturbed)
    for r in range(3):
        ctx = StirlingContext(MomentOracle.poisson(F(1, 2)), F(1, 3), r)
        assert not verify_thm_2_5(ctx, 3).passed
        assert not verify_thm_2_6(ctx, 3, F(1, 2)).passed
        assert stirling.stirling_triangle(ctx, 3)[3][1] != prob_r_stirling2(ctx, 3, 1)
        assert verify_thm_2_5(ctx, 0).passed  # no column 1 at n_max 0


def test_a_perturbed_entry_fails_the_polynomial_checks(monkeypatch):
    def corrected(ctx, n):
        return verify_thm_2_9(ctx, n, "corrected")

    for r in (1, 2):
        for side in ("shifted", "r = 0"):
            ctx = StirlingContext(MomentOracle.poisson(F(1, 2)), F(1, 3), r)
            target = ctx if side == "shifted" else ctx._r0
            target._entries[(3, 1)] = prob_r_stirling2(target, 3, 1) + 1
            for check in (verify_thm_2_4, corrected):
                assert not check(ctx, 3).passed, (check, r, side)
                assert check(ctx, 2).passed, (check, r, side)

    entry = identities.prob_r_stirling2
    monkeypatch.setattr(
        identities, "prob_r_stirling2", lambda ctx, n, k: entry(ctx, n, k) + ((n, k) == (3, 1))
    )
    for r in range(3):
        for lam in (F(-1, 2), F(1, 3)):
            assert not verify_reduction_point_one(lam, r, 3).passed
            assert verify_reduction_point_one(lam, r, 2).passed
        assert not verify_classical_limit(r, 3).passed
        assert verify_classical_limit(r, 2).passed


def test_thm_2_7_checker():
    ctx = StirlingContext(BERN, F(1, 3), 1)
    rep = verify_thm_2_7(ctx, 4, 2.0, 1e-9)
    assert rep.passed
    assert rep.tolerance == 1e-9


def test_empty_grid():
    reports, summary = run_suite(default_grid(0), [IdentityId.T2_4])
    # max_n 0 still includes n = 0; a genuinely empty run needs no identities
    assert all(r.passed for r in reports)
    reports, summary = run_suite(default_grid(3), [])
    assert reports == [] and summary == {}


def test_suite_default_passes():
    grid = SuiteGrid(max_n=3)
    identities = [i for i in IdentityId if i not in OPT_IN_IDENTITIES]
    reports, summary = run_suite(grid, identities)
    failed = [r for r in reports if not r.passed]
    assert failed == []
    assert set(summary) == {i.value for i in identities}
    for counts in summary.values():
        assert counts["fail"] == 0
        assert counts["pass"] == counts["total"] > 0


def test_suite_paper_form_reports_failures():
    reports, summary = run_suite(SuiteGrid(max_n=3), [IdentityId.T2_9_paper_form])
    assert summary["T2_9_paper_form"]["fail"] > 0
    witness = next(r for r in reports if not r.passed)
    assert witness.lhs != witness.rhs


def test_suite_deterministic():
    grid = SuiteGrid(max_n=2)
    ids = [IdentityId.T2_4, IdentityId.T2_1_vs_T2_3]
    first, _ = run_suite(grid, ids)
    second, _ = run_suite(grid, ids)
    assert first == second


def test_report_serialization():
    rep = verify_thm_2_4(StirlingContext(BERN, F(1, 3), 1), 2)
    d = rep.to_dict()
    assert d["identity"] == "T2_4"
    assert d["passed"] is True
    assert d["point"]["dist"] == "bernoulli(1/2)"
    assert "tolerance" not in d
