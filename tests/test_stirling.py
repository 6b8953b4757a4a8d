import functools
import gc
import importlib
import math
import pkgutil
import weakref
from fractions import Fraction

import pytest

import prstirling
from prstirling.bell import _dobinski, bell_coeffs, bell_dobinski, bell_eval
from prstirling import identities
from prstirling.identities import IdentityId
from prstirling.distparse import parse_dist
from prstirling.kernel import Basis, stirling2
from prstirling.moments import DistributionError, MomentOracle
from prstirling.polynomial import convert_basis, degenerate_falling_coeffs, shift_argument
from prstirling.stirling import StirlingContext, _columns, _row, _triangle_row, stirling_triangle
from prstirling.witness import (
    _via_shift,
    bell_via_convolution,
    prob_r_stirling2,
    prob_r_stirling2_via_conv,
    prob_r_stirling2_via_shift,
    prob_stirling2,
)

from oracles import partition_count, row_values, theorem_2_1_entry
from test_identities import EVERY_KIND, check_at
from test_moments import count_fractions

F = Fraction

PRESETS = {
    "point(1)": MomentOracle.point(1),
    "bernoulli(1/2)": MomentOracle.bernoulli(F(1, 2)),
    "uniform{0,1,2}": MomentOracle.uniform_discrete([0, 1, 2]),
    "poisson(1)": MomentOracle.poisson(1),
}
LAMBDAS = [F(-1, 2), F(0), F(1, 3), F(1), F(2)]


def degenerate_r_row(n, lam, r):
    """Oracle: falling-factorial coefficients of the r-shifted degenerate
    falling factorial, via kernel expansion only."""
    p = shift_argument(degenerate_falling_coeffs(n, lam), r)
    coeffs = list(convert_basis(p, Basis.FALLING_FACTORIAL).coefficients)
    return coeffs + [F(0)] * (n + 1 - len(coeffs))


def test_base_cases():
    y = PRESETS["bernoulli(1/2)"]
    assert prob_stirling2(y, F(1, 3), 0, 0) == 1
    assert prob_stirling2(y, F(1, 3), 2, 5) == 0
    ctx = StirlingContext(y, F(1, 3), 2)
    assert prob_r_stirling2(ctx, 0, 0) == 1
    assert prob_r_stirling2(ctx, 1, 4) == 0


def test_point_examples():
    o = MomentOracle.point(1)
    assert prob_stirling2(o, F(1, 3), 2, 1) == F(2, 3)  # 1 - lam
    ctx = StirlingContext(o, F(1, 3), 1)
    assert prob_r_stirling2(ctx, 2, 1) == F(8, 3)
    assert prob_r_stirling2_via_conv(ctx, 2, 1) == F(8, 3)
    assert prob_r_stirling2_via_shift(ctx, 2, 1) == F(8, 3)


def test_bernoulli_examples():
    y = PRESETS["bernoulli(1/2)"]
    assert prob_stirling2(y, F(1, 3), 2, 1) == F(1, 3)
    ctx = StirlingContext(y, F(7, 5), 1)
    assert prob_r_stirling2(ctx, 1, 0) == F(1, 2)  # E[Y]


def test_r_zero_reduces_to_plain():
    for name, y in PRESETS.items():
        for lam in (F(0), F(1, 3)):
            ctx = StirlingContext(y, lam, 0)
            for n in range(6):
                for k in range(n + 1):
                    assert prob_r_stirling2(ctx, n, k) == prob_stirling2(y, lam, n, k)
                    assert prob_r_stirling2_via_conv(ctx, n, k) == prob_stirling2(y, lam, n, k)
                    assert prob_r_stirling2_via_shift(ctx, n, k) == prob_stirling2(y, lam, n, k)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_three_way_agreement_small_grid(name):
    y = PRESETS[name]
    for lam in LAMBDAS:
        for r in range(3):
            ctx = StirlingContext(y, lam, r)
            for n in range(6):
                for k in range(n + 3):  # k > n: all three are zero
                    a = prob_r_stirling2(ctx, n, k)
                    assert prob_r_stirling2_via_conv(ctx, n, k) == a
                    assert prob_r_stirling2_via_shift(ctx, n, k) == a


@pytest.mark.parametrize("route", [prob_r_stirling2, prob_r_stirling2_via_conv, prob_r_stirling2_via_shift])
def test_every_route_reads_nothing_past_the_row(route):
    """An entry past the row is 0 before any read, on every route, even
    where row n would grow r = 200,000 iid-sum rows; bad indices give every
    route the same error."""
    oracle = MomentOracle.poisson(F(5, 2))
    ctx = StirlingContext(oracle, F(1, 3), 200_000)
    assert route(ctx, 3, 4) == 0
    assert oracle._tables == {}
    for n, k in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError) as err:
            route(ctx, n, k)
        assert str(err.value) == f"indices must be >= 0, got ({n}, {k})"


def test_reduction_to_degenerate_r_stirling():
    o = MomentOracle.point(1)
    for lam in LAMBDAS:
        for r in range(4):
            ctx = StirlingContext(o, lam, r)
            for n in range(8):
                expected = degenerate_r_row(n, lam, r)
                got = [prob_r_stirling2(ctx, n, k) for k in range(n + 1)]
                assert got == expected, (lam, r, n)


def test_classical_limit_partition_counts():
    ctx = StirlingContext(MomentOracle.point(1), F(0), 0)
    for n in range(8):
        for k in range(n + 1):
            assert prob_r_stirling2(ctx, n, k) == partition_count(n, k)


def test_diagonal_is_mean_power():
    for name, y in PRESETS.items():
        mean = y.moment(1)
        for lam in (F(-1, 2), F(1, 3), F(2)):
            for r in range(3):
                ctx = StirlingContext(y, lam, r)
                for n in range(11):
                    assert prob_r_stirling2(ctx, n, n) == mean**n, (name, lam, r, n)


# Closed forms of the r = 0 triangle for special Y, computed in the exact
# kernel only, which no moment table reaches (Adell, "Probabilistic Stirling
# numbers of the second kind and applications", J. Theoret. Probab. 2022).
# S_lam(n, j) = degenerate_r_row(n, lam, 0)[j].
CLOSED_FORM_LAMBDAS = [F(-1, 2), F(0), F(1, 3), F(2)]
CLOSED_FORM_N = 9


def bernoulli_closed_form(p, lam, n):
    """E[e_lam^Y(t)] - 1 = p (e_lam(t) - 1), so S^Y_lam(n, k) = p^k S_lam(n, k)."""
    return [p**k * s for k, s in enumerate(degenerate_r_row(n, lam, 0))]


def poisson_closed_form(a, lam, n):
    """A(t) = exp(a (e_lam(t) - 1)) - 1, so S^Y_lam(n, k) = sum_j S(j, k) a^j S_lam(n, j)."""
    s_lam = degenerate_r_row(n, lam, 0)
    return [sum((stirling2(j, k) * a**j * s_lam[j] for j in range(n + 1)), F(0)) for k in range(n + 1)]


def lah_row(n):
    """E[Y^m] = m! at lam = 0: the Lah numbers n!/k! C(n-1, k-1)."""
    if n == 0:
        return [F(1)]
    return [F(0)] + [F(math.factorial(n), math.factorial(k)) * math.comb(n - 1, k - 1) for k in range(1, n + 1)]


CLOSED_FORMS = [
    (lam, MomentOracle.bernoulli(p), lambda n, p=p, lam=lam: bernoulli_closed_form(p, lam, n))
    for p in (F(1, 2), F(2, 7))
    for lam in CLOSED_FORM_LAMBDAS
] + [
    (lam, MomentOracle.poisson(a), lambda n, a=a, lam=lam: poisson_closed_form(a, lam, n))
    for a in (F(1), F(3, 2))
    for lam in CLOSED_FORM_LAMBDAS
]


@pytest.mark.parametrize(
    "lam,oracle,closed_form", CLOSED_FORMS, ids=[f"{o.describe()}-lam={lam}" for lam, o, _ in CLOSED_FORMS]
)
def test_r_zero_entries_match_closed_forms(lam, oracle, closed_form):
    rows = stirling_triangle(StirlingContext(oracle, lam, 0), CLOSED_FORM_N)
    for n in range(CLOSED_FORM_N + 1):
        expected = closed_form(n)
        assert rows[n] == expected, n
        assert [prob_stirling2(oracle, lam, n, k) for k in range(n + 1)] == expected, n


def test_factorial_moments_give_lah_numbers():
    n_max = 10
    oracle = MomentOracle.from_moments([math.factorial(m) for m in range(n_max + 1)])
    rows = stirling_triangle(StirlingContext(oracle, F(0), 0), n_max)
    for n in range(n_max + 1):
        assert rows[n] == lah_row(n), n
        assert [prob_stirling2(oracle, 0, n, k) for k in range(n + 1)] == lah_row(n), n


def test_triangle_shape():
    rows = stirling_triangle(StirlingContext(PRESETS["poisson(1)"], F(1, 3), 2), 5)
    assert [len(row) for row in rows] == [1, 2, 3, 4, 5, 6]


TRIANGLE_ORACLES = {
    "point(3/2)": MomentOracle.point(F(3, 2)),
    "bernoulli(1/3)": MomentOracle.bernoulli(F(1, 3)),
    "binomial(6,2/3)": MomentOracle.binomial_dist(6, F(2, 3)),
    "uniform{0,1,2,3,5}": MomentOracle.uniform_discrete([0, 1, 2, 3, 5]),
    # denominators that are not powers of one prime
    "uniform[1/2,3]": MomentOracle.uniform_continuous(F(1, 2), 3),
    "poisson(1/2)": MomentOracle.poisson(F(1, 2)),
    "geometric(1/3)": MomentOracle.geometric(F(1, 3)),
    # formal: no random variable has these moments
    "moments[...]": MomentOracle.from_moments(
        [1] + [F((-1) ** m * (m + 2), 3 * m + 1) for m in range(1, 13)]
    ),
}
TRIANGLE_LAMBDAS = [F(-3, 2), F(-1, 2), F(0), F(1, 3), F(2)]


@pytest.mark.parametrize("name", sorted(TRIANGLE_ORACLES))
@pytest.mark.parametrize("lam", TRIANGLE_LAMBDAS, ids=str)
def test_triangle_matches_explicit_formula(name, lam):
    """The generating-function triangle against the Theorem 2.1 sum; r = 13
    (binary 1101) takes every square-and-multiply step for column 0."""
    n_max = 12
    for r in (0, 1, 2, 3, 13):
        ctx = StirlingContext(TRIANGLE_ORACLES[name], lam, r)
        rows = stirling_triangle(ctx, n_max)
        assert rows == [[prob_r_stirling2(ctx, n, k) for k in range(n + 1)] for n in range(n_max + 1)], r


@pytest.mark.parametrize("lam", [F(0), F(1, 3), F(-2)], ids=str)
def test_column_zero_at_a_huge_shift(lam):
    """For Y = 1, S_r = r, so entry (n + r, r) is (r)_{n,lam}; about log2 r
    convolutions make it."""
    r, n_max = 5_000_000, 4
    rows = stirling_triangle(StirlingContext(MomentOracle.point(1), lam, r), n_max)
    assert [row[0] for row in rows] == [math.prod([r - i * lam for i in range(n)]) for n in range(n_max + 1)]


@pytest.mark.parametrize("r", [10**5, 5 * 10**6])
@pytest.mark.parametrize("kind", EVERY_KIND)
def test_the_production_row_at_a_huge_shift_is_the_shift_route(kind, r):
    """At such r Theorem 2.1 would grow r + n iid-sum rows; the shift route
    reads only r = 0 rows, so it is the witness there, on every kind."""
    ctx = StirlingContext(parse_dist(EVERY_KIND[kind]), F(-3, 2), r)
    (nums, den), (shifted, shifted_den) = _triangle_row(ctx, 30), _via_shift(ctx, 30, 30)
    assert len(nums) == len(shifted) == 31
    assert all(a * shifted_den == b * den for a, b in zip(nums, shifted))


def test_deep_triangle_reduces_to_degenerate_r_stirling():
    n_max, lam, r = 40, F(-3, 2), 3
    rows = stirling_triangle(StirlingContext(MomentOracle.point(1), lam, r), n_max)
    assert rows == [degenerate_r_row(n, lam, r) for n in range(n_max + 1)]


def test_triangle_past_the_given_moments_raises():
    ctx = StirlingContext(MomentOracle.from_moments([1, 2, 5, 7]), F(1, 3), 1)
    assert len(stirling_triangle(ctx, 3)) == 4
    with pytest.raises(DistributionError, match="requested 4"):
        stirling_triangle(ctx, 4)


def entry_store(oracle, lam):
    """The Theorem 2.1 rows kept in the oracle's lam table."""
    return oracle._tables[lam.numerator, lam.denominator].differences


def test_triangle_leaves_the_entry_cache_alone():
    for r in range(3):
        oracle, lam = MomentOracle.geometric(F(1, 3)), F(-1, 2)
        ctx = StirlingContext(oracle, lam, r)
        stirling_triangle(ctx, 10)
        bell_coeffs(ctx, 10)
        bell_eval(ctx, 8, F(1, 2))
        assert entry_store(oracle, lam) == {}


def test_entries_live_in_their_lam_table():
    """One row-store entry per (shift, n) in the oracle's lam table: the
    prefix k = 0..K of that row. The context keeps none."""
    oracle, lam = MomentOracle.poisson(F(1, 2)), F(1, 3)
    ctx = StirlingContext(oracle, lam, 2)
    value = prob_r_stirling2(ctx, 5, 2)
    store = entry_store(oracle, lam)
    assert set(store) == {(2, 5)}
    assert row_values(store[2, 5]) == [prob_r_stirling2(ctx, 5, k) for k in range(3)]
    assert row_values(store[2, 5])[2] == value
    prob_r_stirling2_via_shift(ctx, 5, 2)
    assert set(store) == {(2, 5), (0, 5)}
    assert len(store[0, 5].nums) == 5  # S^Y(5, k) for k = 0..2 + r
    kept = store[2, 5]
    prob_r_stirling2(ctx, 5, 1)  # already held: the prefix does not shrink
    assert store[2, 5] is kept and len(kept.nums) == 3
    prob_r_stirling2(StirlingContext(oracle, F(1, 2), 2), 5, 2)  # another lam, another table
    assert set(store) == {(2, 5), (0, 5)} and set(entry_store(oracle, F(1, 2))) == {(2, 5)}
    assert set(vars(ctx)) == {"oracle", "lam", "r", "_rows"} and ctx._rows == {}


def test_contexts_share_the_rows(monkeypatch):
    """A Theorem 2.1 row depends on (Y, lam, shift, n), not on r: the r = 0
    context reads the shift-0 row the shift route of an r = 2 context kept.
    It grows no iid-sum row, differences nothing, and builds only the one
    Fraction of each entry it returns."""
    oracle, lam = MomentOracle.poisson(F(1, 2)), F(1, 3)
    prob_r_stirling2_via_shift(StirlingContext(oracle, lam, 2), 5, 2)  # S^Y(5, k) for k = 0..4
    table = oracle._tables[lam.numerator, lam.denominator]
    kept, lengths = table.differences[0, 5], [len(row) for row in table.rows]
    ctx = StirlingContext(oracle, lam, 0)
    counter = count_fractions(monkeypatch)
    entries = [prob_r_stirling2(ctx, 5, k) for k in range(5)]
    assert counter[0] == 5
    monkeypatch.undo()
    assert table.differences[0, 5] is kept and [len(row) for row in table.rows] == lengths
    assert entries == stirling_triangle(StirlingContext(oracle, lam, 0), 5)[5][:5]


@pytest.mark.parametrize("read", [stirling_triangle, bell_coeffs, lambda ctx, n: list(_columns(ctx, n))])
def test_the_generating_function_grows_only_the_single_copy_row(read):
    """The triangle (`stirling_triangle`, `bell`, and the columns `table`
    formats) reads E[(Y)_{n,lam}] alone: its lam table holds no D_k, weight
    or row past order 0."""
    oracle, lam = MomentOracle.poisson(F(1, 2)), F(-1, 3)
    read(StirlingContext(oracle, lam, 2), 6)
    assert list(oracle._tables) == [(lam.numerator, lam.denominator)]
    table = oracle._tables[lam.numerator, lam.denominator]
    assert len(table.single) == 7
    assert table.den == [1] and table.weights == [[1]] and table.rows == [[1]]


@pytest.mark.parametrize("n,k", [(80, 1), (40, 0), (30, 5), (12, 12)])
def test_a_lone_entry_grows_the_table_only_to_its_column(n, k):
    """A fresh read of entry (n, k) holds rows j <= r + k of the iid-sum
    table, not the r + n + 1 rows of the whole Theorem 2.1 row."""
    oracle, lam, r = MomentOracle.uniform_continuous(F(1, 2), 3), F(1, 3), 2
    ctx = StirlingContext(oracle, lam, r)
    value = prob_r_stirling2(ctx, n, k)
    assert len(oracle._tables[lam.numerator, lam.denominator].rows) <= r + k + 1
    assert len(entry_store(oracle, lam)[r, n].nums) == k + 1
    assert value == stirling_triangle(StirlingContext(oracle, lam, r), n)[n][k]


def test_ascending_lone_reads_store_the_row_at_most_twice():
    """Entries k = 0..n read one at a time, in order: the first read keeps
    its prefix and the next the whole row, which serves every later read."""
    oracle, lam, r, n = MomentOracle.poisson(F(1, 2)), F(1, 3), 1, 12
    oracle.degenerate_factorial_moment(1, 0, lam)  # make the lam table
    stores = []

    class Counted(dict):
        def __setitem__(self, key, value):
            stores.append(key)
            super().__setitem__(key, value)

    oracle._tables[lam.numerator, lam.denominator].differences = Counted()
    ctx = StirlingContext(oracle, lam, r)
    entries = [prob_r_stirling2(ctx, n, k) for k in range(n + 1)]
    assert stores == [(r, n), (r, n)]
    assert entries == stirling_triangle(StirlingContext(oracle, lam, r), n)[n]


@pytest.mark.parametrize("name", sorted(TRIANGLE_ORACLES))
def test_theorem_2_1_rows_match_the_alternating_binomial_sum(name):
    """Rows by forward differences against the literal sum over
    `degenerate_factorial_moment` Fractions."""
    oracle = TRIANGLE_ORACLES[name]
    for lam in (F(-3, 2), F(0), F(1, 3), F(2)):
        moment = functools.partial(oracle.degenerate_factorial_moment, lam=lam)
        for r in range(4):
            ctx = StirlingContext(oracle, lam, r)
            for n in range(13):
                for shift in (r, 0):
                    expected = tuple(theorem_2_1_entry(moment, shift, n, k) for k in range(n + 1))
                    assert tuple(row_values(_row(ctx, shift, n))) == expected, (lam, r, n, shift)


@pytest.mark.parametrize("r", range(3))
def test_a_context_holds_no_other_context(r):
    """Every witness and checker reads the r = 0 entries from the context
    itself, so no context keeps another one alive."""
    ctx = StirlingContext(MomentOracle.poisson(F(1, 2)), F(1, 3), r)
    n = 4
    for which in (IdentityId.T2_1_vs_T2_2, IdentityId.T2_1_vs_T2_3):
        check_at(identities._agreement, ctx, which, n)
    for which in (IdentityId.T2_4, IdentityId.T2_9_corrected, IdentityId.T2_9_paper_form):
        check_at(identities._shifted, ctx, which, n)
    check_at(identities._thm_2_5, ctx, n)
    check_at(identities._thm_2_6, ctx, [(F(1, 2), ("x", "1/2"))], n)
    check_at(identities._thm_2_7, ctx, _dobinski, identities.SuiteGrid(dobinski_xs=(1.0,), dobinski_tol=1e-9), n)
    check_at(identities._thm_2_8, ctx, n)
    bell_coeffs(ctx, n)
    bell_via_convolution(ctx, n, F(1, 2))
    bell_dobinski(ctx, n, 1.0, 1e-9)
    stirling_triangle(ctx, n)
    assert entry_store(ctx.oracle, ctx.lam) and ctx._rows
    for table in ctx.oracle._tables.values():  # nor does the oracle keep one
        assert not any(isinstance(row, StirlingContext) for row in table.differences.values())
    for name, value in vars(ctx).items():
        assert not isinstance(value, StirlingContext), name
        if isinstance(value, dict):
            assert not any(isinstance(v, StirlingContext) for v in value.values()), name


def test_an_oracle_dies_with_its_contexts():
    gc.disable()  # by reference counting: no reference cycle may hold it
    try:
        for r in (0, 2):
            oracle = MomentOracle.uniform_discrete([0, 1, 2])
            ctx = StirlingContext(oracle, F(1, 3), r)
            prob_r_stirling2(ctx, 6, 3)
            prob_r_stirling2_via_shift(ctx, 6, 3)
            bell_via_convolution(ctx, 6, F(1, 2))
            assert all(rep.passed for rep in check_at(identities._thm_2_8, ctx, 6))
            prob_stirling2(oracle, F(1, 3), 6, 3)
            alive = weakref.ref(oracle)
            del oracle, ctx
            assert alive() is None, r
    finally:
        gc.enable()


def test_no_module_holds_a_functools_cache():
    for info in pkgutil.iter_modules(prstirling.__path__):
        module = importlib.import_module(f"prstirling.{info.name}")
        cached = [name for name, obj in vars(module).items() if hasattr(obj, "cache_info")]
        assert cached == [], module.__name__


def test_context_validation():
    with pytest.raises(ValueError):
        StirlingContext(MomentOracle.point(1), F(1, 3), -1)


@pytest.mark.parametrize("r", ["1", None, 1.5])
def test_context_rejects_a_non_integer_r(r):
    with pytest.raises(ValueError, match="shift parameter r must be a nonnegative integer"):
        StirlingContext(MomentOracle.point(1), 0, r)
