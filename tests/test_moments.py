from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prstirling import moments
from prstirling.polynomial import degenerate_falling_coeffs
from prstirling.moments import GRAMMAR, DistributionError, MomentOracle

from oracles import (
    bell_number,
    binomial_moments,
    binomial_powers,
    enumerate_sum_moment,
    expand_product,
    geometric_moments,
    poisson_moments,
    row_values,
    uniform_continuous_moments,
    uniform_discrete_moments,
)

F = Fraction


def finite_supports():
    return [
        ("bernoulli(1/2)", MomentOracle.bernoulli(F(1, 2)), [F(0), F(1)], [F(1, 2), F(1, 2)]),
        ("point(1)", MomentOracle.point(1), [F(1)], [F(1)]),
        (
            "uniform{0,1,2}",
            MomentOracle.uniform_discrete([0, 1, 2]),
            [F(0), F(1), F(2)],
            [F(1, 3)] * 3,
        ),
        (
            "binomial(3,1/4)",
            MomentOracle.binomial_dist(3, F(1, 4)),
            [F(0), F(1), F(2), F(3)],
            [F(27, 64), F(27, 64), F(9, 64), F(1, 64)],
        ),
        ("binomial(0,1/2)", MomentOracle.binomial_dist(0, F(1, 2)), [F(0)], [F(1)]),
        ("binomial(5,0)", MomentOracle.binomial_dist(5, 0), [F(0)], [F(1)]),
        ("binomial(5,1)", MomentOracle.binomial_dist(5, 1), [F(5)], [F(1)]),
        (
            "binomial(7,2/3)",
            MomentOracle.binomial_dist(7, F(2, 3)),
            [F(i) for i in range(8)],
            [comb(7, i) * F(2, 3) ** i * F(1, 3) ** (7 - i) for i in range(8)],
        ),
    ]


def test_moment_zero_is_one():
    for oracle in (
        MomentOracle.point(F(7, 3)),
        MomentOracle.poisson(2),
        MomentOracle.geometric(F(1, 3)),
        MomentOracle.uniform_continuous(0, 1),
        MomentOracle.from_moments([1, 5]),
    ):
        assert oracle.moment(0) == 1


def test_bernoulli_powers_collapse():
    y = MomentOracle.bernoulli(F(1, 2))
    assert y.moment(7) == F(1, 2)


def test_poisson_moments_are_bell_numbers():
    y = MomentOracle.poisson(1)
    for m in range(7):
        assert y.moment(m) == bell_number(m)


def test_poisson_touchard_small():
    y = MomentOracle.poisson(1)
    assert y.moment(2) == 2


@pytest.mark.parametrize("name,oracle,support,weights", finite_supports())
def test_finite_support_moments_by_enumeration(name, oracle, support, weights):
    for m in range(7):
        expected = sum(w * v**m for v, w in zip(support, weights))
        assert oracle.moment(m) == expected, name


def test_continuous_uniform_moments():
    y = MomentOracle.uniform_continuous(0, 1)
    for m in range(6):
        assert y.moment(m) == F(1, m + 1)
    z = MomentOracle.uniform_continuous(-1, 1)
    assert z.moment(1) == 0
    assert z.moment(2) == F(1, 3)


def test_geometric_moments():
    # mean 1/p, second moment (2-p)/p^2
    p = F(1, 3)
    y = MomentOracle.geometric(p)
    assert y.moment(1) == 3
    assert y.moment(2) == (2 - p) / p**2


def test_custom_moments():
    y = MomentOracle.from_moments([1, 1, 2, 5])
    assert y.formal
    assert y.moment(3) == 5
    with pytest.raises(DistributionError):
        y.moment(4)


def test_custom_oracle_sums_beyond_given_order():
    y = MomentOracle.from_moments([1, 2])
    # S_0 = 0 needs no moment of Y, whatever the order
    assert y.sum_moment(0, 5) == 0
    assert y.degenerate_factorial_moment(0, 5, F(1, 3)) == 0
    assert y.degenerate_factorial_moment(0, 0, F(1, 3)) == 1
    with pytest.raises(DistributionError):
        y.sum_moment(1, 2)
    with pytest.raises(DistributionError):
        y.degenerate_factorial_moment(2, 3, F(1, 3))
    # a failed request leaves the computed entries usable
    assert y.sum_moment(2, 1) == 4
    assert y.sum_moment(0, 7) == 0


def test_invalid_parameters():
    with pytest.raises(DistributionError):
        MomentOracle.bernoulli(F(3, 2))
    with pytest.raises(DistributionError):
        MomentOracle.uniform_discrete([])
    with pytest.raises(DistributionError):
        MomentOracle.uniform_continuous(1, 1)
    with pytest.raises(DistributionError):
        MomentOracle.geometric(0)
    with pytest.raises(DistributionError):
        MomentOracle.from_moments([2, 1])


def test_an_empty_iterator_support_is_rejected():
    """The emptiness check reads the points, not the input: an empty iterator
    once passed it and built `uniform{}`, whose first moment divided by zero."""
    with pytest.raises(DistributionError, match=r"^discrete uniform requires a nonempty support$"):
        MomentOracle.uniform_discrete(iter([]))
    assert MomentOracle.uniform_discrete(iter([0, 1, 2])).moment(2) == F(5, 3)


@pytest.mark.parametrize("count", [F(3, 2), 2.5, F(3), "3"])
def test_binomial_count_must_be_an_int(count):
    """A non-integer count once described itself as given but took the
    moments of another count (binomial(3/2,1/2) had mean 3/2)."""
    with pytest.raises(DistributionError, match="binomial count must be an integer"):
        MomentOracle.binomial_dist(count, F(1, 2))


def test_sum_moment_base_cases():
    y = MomentOracle.bernoulli(F(1, 2))
    assert y.sum_moment(0, 0) == 1
    assert y.sum_moment(0, 3) == 0
    for m in range(13):
        assert y.sum_moment(1, m) == y.moment(m)


def test_sum_moment_examples():
    assert MomentOracle.bernoulli(F(1, 2)).sum_moment(2, 2) == F(3, 2)
    assert MomentOracle.point(1).sum_moment(3, 2) == 9


@pytest.mark.parametrize("name,oracle,support,weights", finite_supports())
def test_sum_moments_by_enumeration(name, oracle, support, weights):
    for lam in (F(0), F(-1, 2), F(1, 3), F(2)):
        for j in range(4):
            for m in range(7):
                expected = enumerate_sum_moment(support, weights, j, m, lam)
                assert oracle.degenerate_factorial_moment(j, m, lam) == expected, (name, lam, j, m)
                if lam == 0:
                    assert oracle.sum_moment(j, m) == expected, (name, j, m)


def test_mean_additivity():
    for oracle in (MomentOracle.poisson(F(3, 2)), MomentOracle.geometric(F(2, 5))):
        for j in range(9):
            assert oracle.sum_moment(j, 1) == j * oracle.moment(1)


# family -> (Y, j -> the closed-form law of the sum S_j of j iid copies of Y)
SUM_CLOSED = {
    "point": (MomentOracle.point(F(-2, 3)), lambda j: MomentOracle.point(j * F(-2, 3))),
    "bernoulli": (MomentOracle.bernoulli(F(1, 3)), lambda j: MomentOracle.binomial_dist(j, F(1, 3))),
    "binomial": (MomentOracle.binomial_dist(3, F(2, 5)), lambda j: MomentOracle.binomial_dist(3 * j, F(2, 5))),
    "poisson": (MomentOracle.poisson(F(3, 2)), lambda j: MomentOracle.poisson(j * F(3, 2))),
}


@pytest.mark.parametrize("lam", [F(-1, 2), F(0), F(1, 3), F(2)], ids=str)
@pytest.mark.parametrize("family", SUM_CLOSED)
def test_sum_rows_match_the_closed_form_of_the_sum(family, lam):
    """Row j of the iid-sum table, the convolved rows the witnesses read,
    equals row 1 of the family the sum S_j belongs to: point(c) -> point(jc),
    bernoulli(p) -> binomial(j,p), binomial(m,p) -> binomial(jm,p) and
    poisson(a) -> poisson(ja)."""
    y, law = SUM_CLOSED[family]
    for j in range(6):
        s_j = law(j)
        for n in range(8):
            assert y.degenerate_factorial_moment(j, n, lam) == s_j.degenerate_factorial_moment(1, n, lam), (j, n)


def test_degenerate_factorial_moment_examples():
    assert MomentOracle.point(1).degenerate_factorial_moment(2, 2, F(1, 3)) == F(10, 3)
    y = MomentOracle.bernoulli(F(1, 2))
    assert y.degenerate_factorial_moment(1, 2, F(1, 3)) == F(1, 3)
    for j in range(4):
        assert y.degenerate_factorial_moment(j, 0, F(1, 3)) == 1


def test_degenerate_factorial_moment_lambda_zero():
    y = MomentOracle.uniform_discrete([0, 1, 2])
    for j in range(4):
        for n in range(6):
            assert y.degenerate_factorial_moment(j, n, 0) == y.sum_moment(j, n)


def test_oracle_identity():
    a = MomentOracle.bernoulli(F(1, 2))
    b = MomentOracle.bernoulli(F(1, 2))
    assert a == b and hash(a) == hash(b)
    assert a != MomentOracle.bernoulli(F(1, 3))


# one sample oracle per row of the grammar table
GRAMMAR_SAMPLES = {
    "point": MomentOracle.point(F(-3, 2)),
    "bernoulli": MomentOracle.bernoulli(F(1, 2)),
    "binomial": MomentOracle.binomial_dist(4, F(2, 7)),
    "uniform_discrete": MomentOracle.uniform_discrete([0, 1, 2]),
    "uniform_continuous": MomentOracle.uniform_continuous(F(-1, 2), 2),
    "poisson": MomentOracle.poisson(F(3, 4)),
    "geometric": MomentOracle.geometric(F(1, 3)),
    "moments": MomentOracle.from_moments([1, 1, 2]),
}


def test_describe_round_trips_through_grammar():
    from prstirling.distparse import parse_dist

    assert sorted(GRAMMAR_SAMPLES) == sorted(GRAMMAR)
    for kind, family in GRAMMAR.items():
        oracle = GRAMMAR_SAMPLES[kind]
        assert oracle.kind == kind
        text = oracle.describe()
        assert text.startswith(family.name + family.opening) and text.endswith(family.closing)
        assert parse_dist(text) == oracle
        assert oracle.formal == (kind == "moments")


def test_every_public_constructor_has_a_grammar_row():
    """A new family cannot be added without a row, so the parser and
    `describe` know it."""
    constructors = {
        name for name, member in vars(MomentOracle).items()
        if isinstance(member, staticmethod) and not name.startswith("_")
    }
    assert constructors == {family.make.__name__ for family in GRAMMAR.values()}


def test_formal_follows_from_the_kind():
    assert not MomentOracle.point(1).formal
    with pytest.raises(TypeError):
        MomentOracle("point", (F(1),), formal=True)


def single_copy_row(oracle, lam, n):
    """E[(Y)_{k,lam}] for k <= n, expanding y (y - lam) ... (y - (k-1) lam)
    into monomials term by term."""
    return [
        sum(c * oracle.moment(i) for i, c in enumerate(expand_product([q * lam for q in range(k)])))
        for k in range(n + 1)
    ]


def every_kind():
    return [
        ("point(7/3)", lambda: MomentOracle.point(F(7, 3))),
        ("bernoulli(1/3)", lambda: MomentOracle.bernoulli(F(1, 3))),
        ("binomial(7,2/3)", lambda: MomentOracle.binomial_dist(7, F(2, 3))),
        ("uniform{-1,0,2,5/2}", lambda: MomentOracle.uniform_discrete([-1, 0, 2, F(5, 2)])),
        ("uniform[1/2,3]", lambda: MomentOracle.uniform_continuous(F(1, 2), 3)),
        ("poisson(3/2)", lambda: MomentOracle.poisson(F(3, 2))),
        ("geometric(1/3)", lambda: MomentOracle.geometric(F(1, 3))),
        ("formal", lambda: MomentOracle.from_moments([1] + [F((-1) ** k * (k * k + 1), k + 2) for k in range(1, 26)])),
    ]


@pytest.mark.parametrize("lam", [F(-3, 2), F(-1, 2), F(0), F(1, 3), F(2)], ids=str)
@pytest.mark.parametrize("name,make", every_kind(), ids=[name for name, _ in every_kind()])
def test_sum_rows_match_plain_fraction_powers(name, make, lam):
    j_max, n_max = 40, 25
    oracle = make()
    expected = binomial_powers(single_copy_row(make(), lam, n_max), j_max)
    # order by order, so every row grows one entry at a time
    for n in range(n_max + 1):
        for j in range(j_max + 1):
            assert oracle.degenerate_factorial_moment(j, n, lam) == expected[j][n], (j, n)
            if lam == 0:
                assert oracle.sum_moment(j, n) == expected[j][n], (j, n)


def test_deep_sum_row_matches_plain_fraction_powers():
    lam, j, n_max = F(1, 3), 150, 30
    oracle = MomentOracle.uniform_continuous(F(1, 2), 3)
    expected = binomial_powers(single_copy_row(oracle, lam, n_max), j)[j]
    # deepest entry first: the table grows to (150, 30) in one step
    assert [oracle.degenerate_factorial_moment(j, n, lam) for n in range(n_max, -1, -1)] == expected[::-1]


GROWTH_KINDS = {name: make for name, make in every_kind() if name in ("poisson(3/2)", "formal")}
GROWTH_J, GROWTH_N = 6, 8


@lru_cache(maxsize=None)
def growth_expected(name, lam):
    return binomial_powers(single_copy_row(GROWTH_KINDS[name](), lam, GROWTH_N), GROWTH_J)


orders = st.integers(0, GROWTH_N)
summands = st.integers(0, GROWTH_J)
table_reads = st.one_of(
    st.tuples(st.just("differences"), summands, summands, orders),
    st.tuples(st.just("factorial moment"), summands, orders),
    st.tuples(st.just("sum moment"), summands, orders),
)


@settings(deadline=None, max_examples=80)
@given(
    st.sampled_from(sorted(GROWTH_KINDS)),
    st.sampled_from([F(-1, 2), F(0), F(1, 3)]),
    st.lists(table_reads, min_size=1, max_size=12),
)
def test_sum_table_values_do_not_depend_on_growth_order(name, lam, reads):
    # one cold oracle per example; differences at shift 0 read the stored
    # row 0, and a kept row of differences is read again or lengthened
    oracle = GROWTH_KINDS[name]()
    expected = growth_expected(name, lam)
    for read in reads:
        if read[0] == "differences":
            shift, last = sorted(read[1:3])
            n = read[3]
            k = min(last - shift, n)
            newton = [
                sum(comb(i, j) * (-1) ** (i - j) * expected[shift + j][n] for j in range(i + 1)) / factorial(i)
                for i in range(k + 1)
            ]
            assert row_values(oracle._differences(lam, shift, n, k))[: k + 1] == newton, read
        elif read[0] == "factorial moment":
            j, n = read[1:]
            assert oracle.degenerate_factorial_moment(j, n, lam) == expected[j][n], read
        else:
            j, n = read[1:]
            assert oracle.sum_moment(j, n) == growth_expected(name, F(0))[j][n], read


DEEP = 40


def deep_moment_cases():
    """(id, oracle factory, reference factory) for every preset, the
    references computed to order DEEP without the second-kind triangle."""
    cases = [
        ("point(-3/2)", lambda: MomentOracle.point(F(-3, 2)), lambda: [F(-3, 2) ** m for m in range(DEEP + 1)]),
        ("bernoulli(2/7)", lambda: MomentOracle.bernoulli(F(2, 7)), lambda: [F(1)] + [F(2, 7)] * DEEP),
    ]
    for n in (0, 1, 300):
        for p in (F(0), F(1, 3), F(1)):
            cases.append((
                f"binomial({n},{p})",
                lambda n=n, p=p: MomentOracle.binomial_dist(n, p),
                lambda n=n, p=p: binomial_moments(n, p, DEEP),
            ))
    for support in ([F(-5, 2), 0, F(1, 3), 4], [7], [-1, 1]):
        cases.append((
            "uniform{" + ",".join(map(str, support)) + "}",
            lambda support=support: MomentOracle.uniform_discrete(support),
            lambda support=support: uniform_discrete_moments(support, DEEP),
        ))
    for a, b in ((F(-1, 3), F(5, 2)), (0, 1), (F(1, 2), 3)):
        cases.append((
            f"uniform[{a},{b}]",
            lambda a=a, b=b: MomentOracle.uniform_continuous(a, b),
            lambda a=a, b=b: uniform_continuous_moments(a, b, DEEP),
        ))
    for mu in (F(5, 2), F(0), F(3)):
        cases.append((
            f"poisson({mu})", lambda mu=mu: MomentOracle.poisson(mu), lambda mu=mu: poisson_moments(mu, DEEP)
        ))
    for p in (F(2, 5), F(1), F(1, 7)):
        cases.append((
            f"geometric({p})", lambda p=p: MomentOracle.geometric(p), lambda p=p: geometric_moments(p, DEEP)
        ))
    return cases


@pytest.mark.parametrize("name,make,reference", deep_moment_cases(), ids=[c[0] for c in deep_moment_cases()])
def test_deep_raw_moments_match_references(name, make, reference):
    oracle = make()
    assert [oracle.moment(m) for m in range(DEEP + 1)] == reference()


PRESETS = [(name, make) for name, make in every_kind() if name != "formal"]
LAMBDAS = [F(-3, 2), F(-1, 2), F(0), F(1, 3), F(2)]


@lru_cache(maxsize=None)
def falling_coeffs(k, lam):
    return degenerate_falling_coeffs(k, lam).coefficients


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
@pytest.mark.parametrize("name,make", PRESETS, ids=[name for name, _ in PRESETS])
def test_single_copy_entry_matches_falling_coefficients(name, make, lam):
    # lam = 0 puts p = 0 in lam = p/c, where 0**0 = 1 must hold
    oracle, moments = make(), make()
    for k in range(DEEP + 1):
        expected = sum(c * moments.moment(q) for q, c in enumerate(falling_coeffs(k, lam)))
        assert oracle.degenerate_factorial_moment(1, k, lam) == expected, k


def count_fractions(monkeypatch):
    """A one-item list that counts every Fraction built from here on."""
    counter = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        counter[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    if "_from_coprime_ints" in vars(Fraction):  # Python 3.12+: arithmetic results skip __new__
        coprime = Fraction._from_coprime_ints.__func__

        def counting_coprime(cls, numerator, denominator):
            counter[0] += 1
            return coprime(cls, numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    return counter


def test_fraction_counter_sees_arithmetic(monkeypatch):
    counter = count_fractions(monkeypatch)
    total = sum((F(1, k) for k in range(1, 11)), F(0))
    assert total == F(7381, 2520)
    assert counter[0] >= 20  # ten built, ten sums


@pytest.mark.parametrize("name,make", PRESETS, ids=[name for name, _ in PRESETS])
def test_growing_a_table_builds_few_fractions(name, make, monkeypatch):
    """Raw moments, the single-copy entry and the iid-sum rows are integer
    sums: growing the lam = -3/2 table of a fresh oracle to order 40 builds
    at most three Fractions per order."""
    oracle, lam = make(), F(-3, 2)
    counter = count_fractions(monkeypatch)
    oracle.degenerate_factorial_moment(1, DEEP, lam)
    oracle.degenerate_factorial_moment(5, DEEP, lam)
    assert counter[0] <= 3 * (DEEP + 1)


def test_growing_a_table_builds_no_other_table(monkeypatch):
    """The lam table is built once, on the first read; growing it builds none."""
    built = []

    class Counted(moments._SumTable):
        def __init__(self, lam):
            built.append(lam)
            super().__init__(lam)

    monkeypatch.setattr(moments, "_SumTable", Counted)
    oracle, lam = MomentOracle.poisson(F(1, 2)), F(1, 3)
    for j, n in [(1, 2), (1, 6), (4, 6), (7, 9), (2, 12)]:
        oracle.degenerate_factorial_moment(j, n, lam)
    oracle.sum_moment(3, 5)
    assert built == [lam, 0]
