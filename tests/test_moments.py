from fractions import Fraction
from math import comb

import pytest

from prstirling.moments import GRAMMAR, DistributionError, MomentOracle

from oracles import bell_number, binomial_powers, enumerate_sum_moment, expand_product

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
