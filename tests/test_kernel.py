from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prstirling.kernel import Basis, binomial, factorial, stirling1_signed, stirling2
from prstirling.polynomial import Polynomial, convert_basis, degenerate_falling_coeffs, shift_argument

from oracles import (
    evaluate,
    expand_product,
    falling_factorial,
    falling_to_monomial,
    monomial_to_falling,
    partition_count,
    shift_binomial,
    shift_reference,
)

F = Fraction


def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(12) == 479001600


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(7, 0) == 1
    assert binomial(2, 5) == 0


def test_stirling1_values():
    # coefficients of x(x-1)(x-2) and x(x-1)(x-2)(x-3)
    assert stirling1_signed(3, 2) == -3
    assert stirling1_signed(0, 0) == 1
    assert stirling1_signed(4, 2) == 11
    assert stirling1_signed(2, 5) == 0


def test_stirling2_values():
    assert stirling2(3, 2) == 3
    assert stirling2(0, 0) == 1
    assert stirling2(4, 2) == 7


@pytest.mark.parametrize("n", range(9))
def test_stirling2_matches_partition_enumeration(n):
    for k in range(n + 1):
        assert stirling2(n, k) == partition_count(n, k)


@pytest.mark.parametrize("n", range(13))
def test_stirling1_expands_falling_factorial(n):
    # evaluate sum_k s1(n,k) x^k at x = 0..n against the product form
    for x in range(n + 1):
        poly = sum(stirling1_signed(n, k) * F(x) ** k for k in range(n + 1))
        assert poly == falling_factorial(x, n)


def test_inverse_triangle_property():
    for n in range(13):
        for k in range(13):
            acc = sum(stirling1_signed(n, j) * stirling2(j, k) for j in range(13))
            assert acc == (1 if n == k else 0)


def test_degenerate_falling_coeffs_examples():
    assert degenerate_falling_coeffs(0, F(1, 3)).coefficients == (F(1),)
    assert degenerate_falling_coeffs(2, F(1, 3)).coefficients == (F(0), F(-1, 3), F(1))
    assert degenerate_falling_coeffs(3, 1).coefficients == (F(0), F(2), F(-3), F(1))


def test_degenerate_falling_coeffs_lambda_limits():
    for n in range(1, 9):
        # lam = 1: ordinary falling factorial
        classical = expand_product(range(n))
        assert list(degenerate_falling_coeffs(n, 1).coefficients) == classical
        # lam = 0: plain power x^n
        assert degenerate_falling_coeffs(n, 0).coefficients == tuple(
            [F(0)] * n + [F(1)]
        )


def test_degenerate_coefficient_formula():
    lam = F(2, 5)
    for n in range(7):
        p = degenerate_falling_coeffs(n, lam)
        for k, c in enumerate(p.coefficients):
            assert c == stirling1_signed(n, k) * lam ** (n - k)


def test_convert_basis_examples():
    xsq = Polynomial.make(Basis.MONOMIAL, [0, 0, 1])
    assert convert_basis(xsq, Basis.FALLING_FACTORIAL).coefficients == (F(0), F(1), F(1))
    const = Polynomial.make(Basis.MONOMIAL, [1])
    assert convert_basis(const, Basis.FALLING_FACTORIAL).coefficients == (F(1),)
    p = Polynomial.make(Basis.MONOMIAL, [0, 2, -3, 1])
    assert convert_basis(convert_basis(p, Basis.FALLING_FACTORIAL), Basis.MONOMIAL) == p


small_rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


@settings(deadline=None, max_examples=150)
@given(st.lists(small_rationals, min_size=1, max_size=13))
def test_convert_basis_round_trip(coeffs):
    p = Polynomial.make(Basis.MONOMIAL, coeffs)
    there = convert_basis(p, Basis.FALLING_FACTORIAL)
    assert convert_basis(there, Basis.MONOMIAL) == p
    # same polynomial function in both bases, the falling one also summed
    # over the product form of each (x)_k
    for x in (-2, 0, 1, F(1, 2), 3):
        by_products = sum((c * falling_factorial(x, k) for k, c in enumerate(there.coefficients)), F(0))
        assert p(x) == there(x) == by_products


def test_shift_argument_examples():
    x = Polynomial.make(Basis.MONOMIAL, [0, 1])
    assert shift_argument(x, 2).coefficients == (F(2), F(1))
    xsq = Polynomial.make(Basis.MONOMIAL, [0, 0, 1])
    assert shift_argument(xsq, 1).coefficients == (F(1), F(2), F(1))
    p = Polynomial.make(Basis.MONOMIAL, [3, -1, 4])
    assert shift_argument(p, 0) == p


@settings(deadline=None, max_examples=100)
@given(st.lists(small_rationals, min_size=1, max_size=9), st.integers(0, 5))
def test_shift_argument_is_translation(coeffs, r):
    p = Polynomial.make(Basis.MONOMIAL, coeffs)
    q = shift_argument(p, r)
    for x in (-3, 0, F(1, 2), 2):
        assert q(x) == p(x + r)


def test_polynomial_canonical_form():
    p = Polynomial.make(Basis.MONOMIAL, [1, 2, 0, 0])
    assert p.coefficients == (F(1), F(2))
    z = Polynomial.make(Basis.MONOMIAL, [0, 0])
    assert z.coefficients == (F(0),)


def test_shift_rejects_falling_basis():
    p = Polynomial.make(Basis.FALLING_FACTORIAL, [0, 1])
    with pytest.raises(ValueError):
        shift_argument(p, 1)


# Coefficient lists as callers build them directly (as `bell_coeffs` does),
# so trailing zeros are kept and the zero polynomial may have several.
stored_coeffs = st.tuples(
    st.lists(small_rationals, min_size=1, max_size=9), st.integers(0, 3)
).map(lambda t: t[0] + [F(0)] * t[1])

ZERO_LISTS = ([F(0)], [F(0), F(0), F(0)])


def _all_fractions(p):
    return all(type(c) is Fraction for c in p.coefficients)


@settings(deadline=None, max_examples=150)
@given(stored_coeffs, st.sampled_from(Basis))
@example(ZERO_LISTS[0], Basis.MONOMIAL)
@example(ZERO_LISTS[1], Basis.FALLING_FACTORIAL)
@example([F(-1, 2), F(3), F(0), F(0)], Basis.MONOMIAL)
def test_convert_basis_matches_reference(coeffs, source):
    if source is Basis.MONOMIAL:
        target, expected = Basis.FALLING_FACTORIAL, monomial_to_falling(coeffs)
    else:
        target, expected = Basis.MONOMIAL, falling_to_monomial(coeffs)
    got = convert_basis(Polynomial(source, tuple(coeffs)), target)
    assert got == Polynomial.make(target, expected)
    assert _all_fractions(got)


@settings(deadline=None, max_examples=100)
@given(stored_coeffs, st.integers(1, 5))
@example(ZERO_LISTS[1], 2)
@example([F(2, 3), F(0), F(-5, 4), F(0)], 3)
def test_shift_argument_matches_reference(coeffs, r):
    p = Polynomial(Basis.MONOMIAL, tuple(coeffs))
    got = shift_argument(p, r)
    assert got == Polynomial.make(Basis.MONOMIAL, shift_reference(coeffs, r))
    assert got == Polynomial.make(Basis.MONOMIAL, shift_binomial(coeffs, r))
    assert _all_fractions(got)
    assert shift_argument(p, 0) is p


@pytest.mark.parametrize("r", [1, 7, 10**5])
def test_deep_shift_argument_matches_the_binomial_formula(r):
    """The Horner steps against the binomial formula past the degrees the
    property test draws, and at a large r."""
    coeffs = [F((-1) ** n * (n + 1), n % 5 + 1) for n in range(41)]
    got = shift_argument(Polynomial.make(Basis.MONOMIAL, coeffs), r)
    assert got == Polynomial.make(Basis.MONOMIAL, shift_binomial(coeffs, r))


@settings(deadline=None, max_examples=150)
@given(stored_coeffs, small_rationals)
@example(ZERO_LISTS[0], F(-7, 3))
@example(ZERO_LISTS[1], F(5, 2))
@example([F(1, 6), F(-2), F(0), F(0)], F(-3, 4))
@example([F(4, 9), F(1, 2), F(3)], F(0))
def test_monomial_evaluation_matches_reference(coeffs, x):
    value = Polynomial(Basis.MONOMIAL, tuple(coeffs))(x)
    assert type(value) is Fraction
    assert value == evaluate(coeffs, x)
