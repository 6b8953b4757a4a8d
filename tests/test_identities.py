import sys
from fractions import Fraction

import pytest

from prstirling import identities, moments, stirling, witness
from prstirling.bell import bell_coeffs, bell_dobinski, bell_eval
from prstirling.identities import (
    OPT_IN_IDENTITIES,
    IdentityId,
    SuiteGrid,
    default_grid,
    run_suite,
)
from prstirling.distparse import parse_dist, parse_rational
from prstirling.kernel import Row
from prstirling.moments import MomentOracle
from prstirling.stirling import StirlingContext
from prstirling.witness import (
    bell_via_convolution,
    prob_r_stirling2,
    prob_r_stirling2_via_conv,
    prob_r_stirling2_via_shift,
)

from oracles import row_values

F = Fraction


def check_at(check, ctx, *args):
    """The reports of one row checker at one context instance."""
    items = identities._Items()
    return check(ctx, items.head(ctx), items, *args)


def grid_at(dist, lam, rs, max_n, **rest):
    """The suite grid of one distribution and one lambda."""
    return SuiteGrid(dists=(dist,), lambdas=(lam,), rs=tuple(rs), max_n=max_n, **rest)


def at_n(reports, n):
    """The reports of row n."""
    return [rep for rep in reports if dict(rep.point)["n"] == str(n)]


def test_thm_2_4_trivial_cases():
    reports, _ = run_suite(grid_at("bernoulli(1/2)", "1/3", [2], 0), [IdentityId.T2_4])
    assert [rep.passed for rep in reports] == [True]
    reports, _ = run_suite(grid_at("bernoulli(1/2)", "1/3", [0], 4), [IdentityId.T2_4])
    assert at_n(reports, 4)[0].passed


def test_thm_2_4_example():
    reports, _ = run_suite(grid_at("bernoulli(1/2)", "1/3", [2], 5), [IdentityId.T2_4])
    assert at_n(reports, 5)[0].passed


def test_thm_2_8_cases():
    reports, summary = run_suite(grid_at("uniform{0,1,2}", "1", [1], 6), [IdentityId.T2_8])
    assert summary["T2_8"] == {"pass": 84, "fail": 0, "total": 84}  # (n, m, k) with m + k <= n <= 6
    points = {(p["n"], p["m"], p["k"]) for p in (dict(rep.point) for rep in reports)}
    assert {("4", "0", "0"), ("5", "3", "0"), ("6", "2", "2")} <= points
    assert ("2", "2", "1") not in points


def test_thm_2_9_corrected_passes():
    reports, _ = run_suite(grid_at("bernoulli(1/2)", "1/3", range(3), 5), [IdentityId.T2_9_corrected])
    assert len(reports) == 3 * 6 and all(rep.passed for rep in reports)


def test_thm_2_9_paper_form_counterexample():
    reports, _ = run_suite(grid_at("bernoulli(1/2)", "1/3", [0], 2), [IdentityId.T2_9_paper_form])
    [rep] = at_n(reports, 2)
    assert not rep.passed
    # witness data carries both sides
    assert rep.lhs != rep.rhs
    point = dict(rep.point)
    assert point["dist"] == "bernoulli(1/2)"
    assert point["n"] == "2"


def test_thm_2_9_degree_zero_both_forms():
    both = [IdentityId.T2_9_corrected, IdentityId.T2_9_paper_form]
    reports, _ = run_suite(grid_at("bernoulli(1/2)", "1/3", [1], 0), both)
    assert [rep.passed for rep in reports] == [True, True]


def test_formula_agreement_checker():
    both = [IdentityId.T2_1_vs_T2_2, IdentityId.T2_1_vs_T2_3]
    reports, _ = run_suite(grid_at("uniform{0,1,2}", "-1/2", [2], 4), both)
    assert len(reports) == 2 * 15 and all(rep.passed for rep in reports)  # every (n, k), k <= n <= 4


def test_reduction_and_classical_checkers():
    grid = SuiteGrid(lambdas=("1/3", "-1/2"), rs=(0, 1, 2), max_n=5)
    reports, summary = run_suite(grid, [IdentityId.ReductionY1, IdentityId.ClassicalLambda0])
    assert summary["ReductionY1"]["pass"] == 2 * 3 * 6 and summary["ClassicalLambda0"]["pass"] == 3 * 6
    assert all(rep.passed for rep in reports)


def test_thm_2_5_and_2_6_checkers():
    grid = grid_at("poisson(1)", "1/3", [1], 4, xs=("-1", "1/2", "2"))
    reports, summary = run_suite(grid, [IdentityId.T2_5, IdentityId.T2_6])
    assert summary["T2_5"]["pass"] == 5 and summary["T2_6"]["pass"] == 5 * 3
    assert all(rep.passed for rep in reports)


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
    witnesses = [IdentityId.T2_1_vs_T2_2, IdentityId.T2_1_vs_T2_3, IdentityId.T2_4, IdentityId.T2_8]
    assert all(rep.passed for rep in run_suite(default_grid(3), witnesses)[0])
    with pytest.raises(AssertionError, match="generating-function"):
        bell_coeffs(ctx, 3)


def test_the_production_route_never_reads_integer_moment_numerators(monkeypatch):
    def refuse(self, lam, shift, n, k):
        raise AssertionError("integer moment numerators read")

    monkeypatch.setattr(MomentOracle, "_differences", refuse)
    for r in range(3):
        ctx = StirlingContext(MomentOracle.uniform_discrete([0, 1, 3]), F(2, 5), r)
        rows = stirling.stirling_triangle(ctx, 6)
        assert bell_coeffs(ctx, 6).coefficients == tuple(rows[6])
        assert bell_eval(ctx, 5, F(-1, 2)) == bell_coeffs(ctx, 5)(F(-1, 2))
        filled = StirlingContext(ctx.oracle, ctx.lam, r)
        stirling._triangle_row(filled, 6)
        assert [row_values(filled._rows[n]) for n in range(7)] == rows
    with pytest.raises(AssertionError, match="integer moment numerators"):
        prob_r_stirling2(ctx, 3, 2)


@pytest.mark.parametrize(
    "perturbed,failing",
    [
        ("convolution", {IdentityId.T2_1_vs_T2_2, IdentityId.T2_6}),
        ("raw moments", {IdentityId.T2_1_vs_T2_2}),
        ("lambda moments", {IdentityId.T2_6}),
    ],
    ids=["convolution", "raw-moments", "lambda-moments"],
)
def test_the_shared_convolution_and_each_moment_source_are_evidence(monkeypatch, perturbed, failing):
    """T2_1_vs_T2_2 and T2_6 share `witness._convolution` but not its
    moments: a defect in that step fails every row of both, and a defect in
    one moment source (the raw sum moments at lam = 0, or the lam table)
    fails every row of the identity that reads it and nothing else."""
    lam = F(1, 3)
    if perturbed == "convolution":
        convolution = witness._convolution

        def off(ctx, n, k, moments):
            nums, den = convolution(ctx, n, k, moments)
            return Row([nums[0] + 1, *nums[1:]], den)

        monkeypatch.setattr(witness, "_convolution", off)
    else:
        sum_row, source = MomentOracle._sum_row, F(0) if perturbed == "raw moments" else lam

        def off(self, at, j, n):  # E[(S_j)_{n,at}] off by 1 / D_n
            nums, den = sum_row(self, at, j, n)
            return Row([*nums[:-1], nums[-1] + 1], den) if at == source else Row(nums, den)

        monkeypatch.setattr(MomentOracle, "_sum_row", off)
    rs, max_n = (0, 2), 3
    # run_suite parses its own oracles, so no row kept by another test is read
    grid = grid_at("poisson(1)", str(lam), rs, max_n, xs=("-1", "1/2"))
    reports, _ = run_suite(grid, [IdentityId.T2_1_vs_T2_2, IdentityId.T2_6])
    every_row = {(str(r), str(n)) for r in rs for n in range(max_n + 1)}
    for identity in (IdentityId.T2_1_vs_T2_2, IdentityId.T2_6):
        failed = [dict(rep.point) for rep in reports if rep.identity is identity and not rep.passed]
        assert {(p["r"], p["n"]) for p in failed} == (every_row if identity in failing else set()), identity


def test_a_perturbed_moment_numerator_fails_thm_2_5():
    lam = F(1, 3)
    thm_2_5 = identities._thm_2_5
    for r in range(3):
        # a fresh oracle each, as the Theorem 2.1 rows stay with the oracle
        assert check_at(thm_2_5, StirlingContext(MomentOracle.poisson(F(1, 2)), lam, r), 3)[0].passed
        oracle = MomentOracle.poisson(F(1, 2))
        oracle.degenerate_factorial_moment(2, 3, lam)  # grow row j = 2 to order 3
        oracle._tables[lam.numerator, lam.denominator].rows[2][3] += 1  # E[(S_2)_{3,lam}] off by 1 / D_3
        ctx = StirlingContext(oracle, lam, r)
        assert check_at(thm_2_5, ctx, 2)[0].passed
        assert not check_at(thm_2_5, ctx, 3)[0].passed, r


def test_the_generating_function_never_reads_the_sum_weights():
    oracle, lam = MomentOracle.uniform_discrete([0, 1, 3]), F(2, 5)
    reference = stirling.stirling_triangle(StirlingContext(oracle, lam, 0), 6)
    # the triangle grows only the single-copy row; a Theorem 2.1 entry
    # (6, 1) grows the weights and rows 0 and 1 to order 6. The order-3
    # weight of row j - 1's order-0 entry (which is 1) feeds every
    # E[(S_j)_{3,lam}] with j >= 2, and none of them is built yet
    prob_r_stirling2(StirlingContext(oracle, lam, 0), 6, 1)
    oracle._tables[lam.numerator, lam.denominator].weights[3][0] += 1
    for r in range(3):
        ctx = StirlingContext(oracle, lam, r)
        assert check_at(identities._thm_2_5, ctx, 2)[0].passed, r
        assert not check_at(identities._thm_2_5, ctx, 3)[0].passed, r
    assert stirling.stirling_triangle(StirlingContext(oracle, lam, 0), 6) == reference


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
        assert not check_at(identities._thm_2_5, ctx, 3)[0].passed
        assert not check_at(identities._thm_2_6, ctx, [(F(1, 2), ("x", "1/2"))], 3)[0].passed
        assert stirling.stirling_triangle(ctx, 3)[3][1] != prob_r_stirling2(ctx, 3, 1)
        assert check_at(identities._thm_2_5, ctx, 0)[0].passed  # no column 1 at n_max 0


def plus_one_at_1(row):
    """The integer row with entry 1 raised by 1."""
    nums, den = row
    return type(row)(nums[:1] + (nums[1] + den,) + tuple(nums[2:]), den)


def test_a_perturbed_entry_fails_the_polynomial_checks(monkeypatch):
    for r in (1, 2):
        for shift in (r, 0):
            ctx = StirlingContext(MomentOracle.poisson(F(1, 2)), F(1, 3), r)
            row = stirling._row(ctx, shift, 3)
            store = ctx.oracle._tables[ctx.lam.numerator, ctx.lam.denominator].differences
            store[shift, 3] = plus_one_at_1(row)  # stored entry (3, 1)
            for identity in (IdentityId.T2_4, IdentityId.T2_9_corrected):
                assert not check_at(identities._shifted, ctx, identity, 3)[0].passed, (identity, r, shift)
                assert check_at(identities._shifted, ctx, identity, 2)[0].passed, (identity, r, shift)

    differences = MomentOracle._differences

    def perturbed(self, lam, shift, n, k):
        row = differences(self, lam, shift, n, k)
        return plus_one_at_1(row) if n == 3 and len(row.nums) > 1 else row

    monkeypatch.setattr(MomentOracle, "_differences", perturbed)
    grid = SuiteGrid(lambdas=("-1/2", "1/3"), rs=(0, 1, 2), max_n=3)
    reports, summary = run_suite(grid, [IdentityId.ReductionY1, IdentityId.ClassicalLambda0])
    assert {dict(rep.point)["n"] for rep in reports if not rep.passed} == {"3"}
    assert summary["ReductionY1"]["fail"] == 2 * 3 and summary["ClassicalLambda0"]["fail"] == 3


def test_a_suite_run_imports_bell_once(monkeypatch):
    """The T2_7 checker gets its `bell` witness from one import statement
    per run, not one per row."""
    bell_imports, real_import = [], __import__

    def counted(name, globals=None, locals=None, fromlist=(), level=0):
        if name.rpartition(".")[2] == "bell" or "bell" in (fromlist or ()):
            bell_imports.append(name)
        return real_import(name, globals, locals, fromlist, level)

    monkeypatch.setattr("builtins.__import__", counted)
    run_suite(default_grid(5), [IdentityId.T2_6, IdentityId.T2_7])
    monkeypatch.undo()
    assert len(bell_imports) == 1


def test_thm_2_7_checker():
    grid = grid_at("bernoulli(1/2)", "1/3", [1], 4, dobinski_xs=(2.0,), dobinski_tol=1e-9)
    [rep] = at_n(run_suite(grid, [IdentityId.T2_7])[0], 4)
    assert rep.passed
    assert rep.tolerance == 1e-9


def test_thm_2_8_reads_each_via_shift_row_once_per_context(monkeypatch):
    calls = []
    via_shift = identities._via_shift

    def counted(ctx, n, k):
        assert k == n  # the whole via-shift row l = n
        calls.append((ctx, n))
        return via_shift(ctx, n, k)

    monkeypatch.setattr(identities, "_via_shift", counted)
    run_suite(default_grid(5), [IdentityId.T2_8])
    # 80 contexts; each reads via-shift rows l = 0..5 once, for all its rows n
    assert len(calls) == 80 * 6 == 480
    assert len(set(calls)) == len(calls)


def count_suite_fractions(monkeypatch, identity, max_n=7):
    """The reports and summary of a suite run of one identity, and the
    number of Fractions it built."""
    built, new = [], F.__new__

    def counted(cls, *args, **kwargs):
        built.append(None)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counted)
    reports, summary = run_suite(default_grid(max_n), [identity])
    monkeypatch.undo()
    return reports, summary, len(built)


def test_thm_2_8_builds_fewer_fractions_than_it_makes_checks(monkeypatch):
    """The checks are decided in integers, on rows of integers: the
    Fractions a T2_8 run builds are its inputs (the grid, the raw moments and
    the single-copy entries), not one per Theorem 2.1 entry or check."""
    _, summary, built = count_suite_fractions(monkeypatch, IdentityId.T2_8)
    assert summary["T2_8"] == {"pass": 9600, "fail": 0, "total": 9600}
    assert 0 < built <= 289


@pytest.mark.parametrize(
    "identity,reports,bound",
    [(IdentityId.T2_1_vs_T2_2, 2880, 289), (IdentityId.T2_5, 640, 289), (IdentityId.T2_7, 2560, 289)],
    ids=str,
)
def test_a_suite_run_builds_fractions_only_for_its_inputs(monkeypatch, identity, reports, bound):
    """The rows every checker reads are integers, so a run at max-n 7 builds
    the Fractions of its inputs: the grid, the raw moments and the
    single-copy entries (289). No row reads its sum moments through a new
    zero lambda, and no series start index goes through |lambda| as a
    Fraction."""
    run, summary, built = count_suite_fractions(monkeypatch, identity)
    assert len(run) == summary[identity.value]["pass"] == reports
    assert 0 < built <= bound


@pytest.mark.parametrize("identity", [IdentityId.ReductionY1, IdentityId.ClassicalLambda0])
def test_a_suite_run_builds_one_y1_oracle(monkeypatch, identity):
    """One oracle per grid distribution and one point(1) oracle for every
    Y = 1 check of the run, not one per check."""
    built, init = [], MomentOracle.__init__

    def counted(self, *args):
        init(self, *args)
        built.append((self.kind, self.params))

    monkeypatch.setattr(MomentOracle, "__init__", counted)
    grid = default_grid(7)
    reports, _ = run_suite(grid, [identity])
    assert len(reports) == (5 if identity is IdentityId.ReductionY1 else 1) * 4 * 8
    assert len(built) == len(grid.dists) + 1 == 5
    assert built.count(("point", (F(1),))) == 2  # the grid's point(1) and the Y = 1 oracle


@pytest.mark.parametrize("identity", [IdentityId.T2_4, IdentityId.T2_9_corrected])
def test_thm_2_4_reads_the_stored_rows_without_copying_them(monkeypatch, identity):
    """T2_4 and T2_9_corrected convert each stored Theorem 2.1 row as it is,
    in integers: the Fractions a run builds are its inputs (the grid, the raw
    moments and the single-copy entries); a copy of each row as Fractions
    would add 5,760 more, and its entries and converted polynomials did."""
    reports, _, built = count_suite_fractions(monkeypatch, identity)
    assert len(reports) == 640
    assert 0 < built <= 289


def test_thm_2_6_hashes_no_x_per_check(monkeypatch):
    """Each grid x is paired with its point item once per run: the Fractions
    a T2_6 run hashes are the oracles' parameters and the lambdas, once per
    context for its (dist, lambda, r) items, and neither once per row nor
    the x of each of its 3,200 checks."""
    hashed, fraction_hash = [], F.__hash__

    def counted(self):
        hashed.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(F, "__hash__", counted)
    reports, _ = run_suite(default_grid(7), [IdentityId.T2_6])
    assert len(reports) == 3200
    assert len(hashed) <= 211


def test_a_default_summary_verify_formats_no_exact_check(monkeypatch, capsys):
    """`verify` without --report json never makes the text of an exact side:
    the only Fractions it prints to a string are the grid's parameters, for
    the point items, once per identity and distinct item."""
    from prstirling import cli

    grid, printed = default_grid(4), []
    str_of = F.__str__

    def recorded(self):
        printed.append(self)
        return str_of(self)

    monkeypatch.setattr(F, "__str__", recorded)
    wanted = "T2_1_vs_T2_2,T2_1_vs_T2_3,T2_5,T2_6,T2_7,T2_8"
    assert cli.main(["verify", "--suite", wanted, "--max-n", "4"]) == 0
    assert '"T2_8"' in capsys.readouterr().out
    params = [v for d in grid.dists for v in parse_dist(d).params]
    lambdas, xs = [parse_rational(v) for v in grid.lambdas], [parse_rational(v) for v in grid.xs]
    assert set(printed) <= set(params + lambdas + xs)
    assert len(printed) == 6 * (len(params) + len(lambdas)) + len(xs) == 71


GATING = [i for i in IdentityId if i not in OPT_IN_IDENTITIES]


@pytest.mark.parametrize(
    "wanted,max_n,built",
    [([IdentityId.T2_8], 7, 2880), ([IdentityId.T2_6], 7, 720), (GATING, 6, 2800)],
    ids=["T2_8@7", "T2_6@7", "all@6"],
)
def test_the_suite_builds_each_theorem_2_1_entry_once_per_oracle(monkeypatch, wanted, max_n, built):
    """The four r-contexts on one (Y, lam) share the Theorem 2.1 rows, so
    each entry is built once per (Y, lam, shift, n, k): T2_8 at max-n 7
    builds rows at shifts 0..3 (20 * 4 * 36 entries), T2_6 only shift 0
    (20 * 36), and ReductionY1 adds 560 entries on the run's one point(1)
    oracle (5 lambdas * 4 shifts * 28), whose lambda = 0 rows ClassicalLambda0
    reads. Each kept entry was built once."""
    tables = []

    class Recorded(moments._SumTable):
        def __init__(self, lam):
            super().__init__(lam)
            tables.append(self)

    monkeypatch.setattr(moments, "_SumTable", Recorded)
    run_suite(default_grid(max_n), wanted)
    assert sum(len(row.nums) for table in tables for row in table.differences.values()) == built


def _grown(monkeypatch, grid, wanted):
    """Run the suite, checking that it grows each iid-sum table it reads
    once, and to no row or order past the checks' reads; the summary and
    each table's (lambda, top row). The checks' reads are
    the `MomentOracle._table` calls other than those `_reports` makes
    itself, ahead of the first check."""
    grows, reads = {}, {}
    grow, table = moments._SumTable.grow, MomentOracle._table

    def counted(self, oracle, j, n):
        grows[id(self)] = grows.get(id(self), 0) + 1
        grow(self, oracle, j, n)

    def recorded(self, lam, j, n):
        held = table(self, lam, j, n)
        if sys._getframe(1).f_code.co_name != "_reports":
            _, top_j, top_n = reads.get(id(held), (held, -1, 0))
            reads[id(held)] = held, max(top_j, j), max(top_n, n)
        return held

    monkeypatch.setattr(moments._SumTable, "grow", counted)
    monkeypatch.setattr(MomentOracle, "_table", recorded)
    summary = run_suite(grid, wanted)[1]
    assert grows == dict.fromkeys(reads, 1)  # each table read is grown once, and no other
    for held, j, n in reads.values():  # rows 0..j, the single-copy row and D_k to order n, no further
        assert len(held.single) == len(held.den) == n + 1
        assert [len(row) for row in held.rows] == [n + 1] * (j + 1)
    return summary, sorted((held.lam, len(held.rows) - 1) for held, _, _ in reads.values())


LAMBDAS = sorted(map(F, default_grid().lambdas))


@pytest.mark.parametrize("identity", GATING, ids=[i.value for i in GATING])
def test_a_suite_run_grows_each_table_it_reads_once(monkeypatch, identity):
    """Each table grows once, to the top row its identity reads at order
    max_n: r + max_n for a Theorem 2.1 row at shift r, max(r, max_n) for
    T2_6 and max_n for T2_7, with max r = 3; ReductionY1 reads the five
    lambda tables of one point(1) oracle, ClassicalLambda0 its lambda = 0
    table, and every other identity the 20 (Y, lambda) tables."""
    summary, tables = _grown(monkeypatch, default_grid(5), [identity])
    top = {IdentityId.T2_6: 5, IdentityId.T2_7: 5}.get(identity, 8)
    if identity is IdentityId.ClassicalLambda0:
        assert tables == [(F(0), top)]
    else:
        copies = 1 if identity is IdentityId.ReductionY1 else 4  # oracles per lambda
        assert tables == [(lam, top) for lam in LAMBDAS for _ in range(copies)]
    assert summary[identity.value]["fail"] == 0


def test_t2_1_vs_t2_2_grows_the_raw_sum_table_to_the_top_shift(monkeypatch):
    """Off the grid's lambdas, T2_1_vs_T2_2 still reads the raw sum moments
    E[S_r^m] (`_via_conv`): rows 0..max r of the lambda = 0 table."""
    grid = grid_at("uniform{0,1,2}", "1/3", [0, 2], 4)
    tables = _grown(monkeypatch, grid, [IdentityId.T2_1_vs_T2_2])[1]
    assert tables == [(F(0), 2), (F(1, 3), 6)]


@pytest.mark.parametrize(
    "change, wanted, totals, tables",
    [
        ({"rs": ()}, GATING, {}, []),
        ({"lambdas": ()}, GATING, {"ClassicalLambda0": 24}, [(F(0), 8)]),
        ({"dists": ()}, GATING, {"ClassicalLambda0": 24, "ReductionY1": 120}, [(lam, 8) for lam in LAMBDAS]),
        (
            {"dists": ("poisson(1)",), "lambdas": ("1/3",), "rs": (0, 100000), "max_n": 2, "dobinski_xs": (1.0,)},
            [IdentityId.T2_7],
            {"T2_7": 6},
            [(F(1, 3), 2)],
        ),
    ],
    ids=["no_r", "no_lambda", "no_dist", "r_100000"],
)
def test_a_custom_grid_grows_only_what_it_reads(monkeypatch, change, wanted, totals, tables):
    """An empty rs runs nothing and grows nothing; with no lambda only
    ClassicalLambda0 runs, and with no distribution only the two Y = 1
    identities. T2_7 reads r = 0 rows, so r = 100000 grows no row past
    max_n (its series there stops unconverged at MAX_TERMS)."""
    summary, grown = _grown(monkeypatch, default_grid(5)._replace(**change), wanted)
    assert {name: s["total"] for name, s in summary.items()} == totals
    assert grown == tables


def test_a_one_context_grid_reports_as_the_full_grid_at_that_context():
    """Batching over contexts changes no report: at each sampled (dist,
    lambda, r) of the grid, a one-context run of every gating identity gives
    exactly the full run's reports at that context, in order. The Y = 1
    identities run on point(1), ClassicalLambda0 at lambda 0."""
    grid = default_grid(3)
    full = {identity: run_suite(grid, [identity])[0] for identity in GATING}
    for dist, lam, r in [("bernoulli(1/2)", "-1/2", 3), ("uniform{0,1,2}", "2", 1), ("poisson(1)", "1/3", 0)]:
        one = grid._replace(dists=(dist,), lambdas=(lam,), rs=(r,))
        for identity in GATING:
            y1 = identity in (IdentityId.ReductionY1, IdentityId.ClassicalLambda0)
            lam_at = "0" if identity is IdentityId.ClassicalLambda0 else lam
            head = (("dist", "point(1)" if y1 else dist), ("lambda", lam_at), ("r", str(r)))
            expected = [rep for rep in full[identity] if rep.point[:3] == head]
            assert expected and run_suite(one, [identity])[0] == expected, (dist, lam, r, identity)


@pytest.mark.parametrize("order", [None, 2], ids=["top", "interior"])
def test_the_suite_reads_one_generating_function_build_per_context(monkeypatch, order):
    """T2_5 reads rows 0..max_n of one `_columns(ctx, max_n)` build: a defect
    at any order of that build fails the row of that order, and no other."""
    columns, builds = stirling._columns, []

    def perturbed(ctx, n_max):
        builds.append(n_max)
        at = n_max if order is None else order
        for k, (col, col_den) in enumerate(columns(ctx, n_max)):
            if k == 0:  # entry (at, 0)
                col = col[:at] + [col[at] + 1] + col[at + 1 :]
            yield col, col_den

    monkeypatch.setattr(stirling, "_columns", perturbed)
    reports, summary = run_suite(default_grid(4), [IdentityId.T2_5])
    assert builds == [4] * 80
    assert {dict(rep.point)["n"] for rep in reports if not rep.passed} == {str(4 if order is None else order)}
    assert summary["T2_5"]["fail"] == 80


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


# One instance of every distribution kind, as the CLI parses it: the seven
# preset families and a formal sequence (no random variable has these
# moments) of 90 moments, enough for n 80 at r 3.
EVERY_KIND = {
    "point": "point(3/2)",
    "bernoulli": "bernoulli(1/3)",
    "binomial": "binomial(6,2/3)",
    "uniform{}": "uniform{0,1,2,3,5}",
    "uniform[]": "uniform[1/2,3]",
    "poisson": "poisson(5/2)",
    "geometric": "geometric(3/5)",
    "moments": "moments[" + ",".join(["1"] + [str(F((-1) ** m * (m + 2), 3 * m + 1)) for m in range(1, 90)]) + "]",
}


@pytest.mark.parametrize("kind", EVERY_KIND)
def test_the_witnesses_agree_deep_on_every_kind(kind):
    """The default grid stops at n 6 and has four of the eight kinds; `table`
    and `bell` serve rows far deeper. At n 80 the generating-function row
    equals Theorem 2.1 (T2_5), and Theorem 2.1 the shift route (T2_1_vs_T2_3)."""
    ctx = StirlingContext(parse_dist(EVERY_KIND[kind]), F(-3, 2), 3)
    [report] = check_at(identities._thm_2_5, ctx, 80)
    assert report.passed
    reports = check_at(identities._agreement, ctx, IdentityId.T2_1_vs_T2_3, 80)
    assert len(reports) == 81 and all(rep.passed for rep in reports)


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
    [rep] = at_n(run_suite(grid_at("bernoulli(1/2)", "1/3", [1], 2), [IdentityId.T2_4])[0], 2)
    d = rep.to_dict()
    assert d["identity"] == "T2_4"
    assert d["passed"] is True
    assert d["point"]["dist"] == "bernoulli(1/2)"
    assert "tolerance" not in d
