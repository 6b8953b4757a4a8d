"""The private integer rows against the public Fraction results.

Every row the package keeps or passes between layers is integer numerators
over one positive denominator (`kernel.Row`), and Fractions are built only by
the public functions. Each row below must reduce, entry by entry, to exactly
what the public API returns for the same values, read on a fresh oracle.
"""

from fractions import Fraction

import pytest

from prstirling.bell import _via_convolution, bell_coeffs, bell_eval, bell_via_convolution
from prstirling.kernel import (
    Basis,
    Polynomial,
    _at,
    _convert,
    _degenerate_falling,
    _format,
    _shift,
    convert_basis,
    degenerate_falling_coeffs,
    shift_argument,
)
from prstirling.stirling import (
    StirlingContext,
    _row,
    _triangle_row,
    _via_conv,
    _via_shift,
    prob_r_stirling2,
    prob_r_stirling2_via_conv,
    prob_r_stirling2_via_shift,
    stirling_triangle,
)

from oracles import row_values
from test_moments import every_kind

F = Fraction
N_MAX = 6
KINDS = dict(every_kind())
LAMBDAS = [F(-3, 2), F(0), F(1, 3), F(2)]
XS = [F(-7, 3), F(0), F(1, 2), F(5)]
BASES = (Basis.FALLING_FACTORIAL, Basis.MONOMIAL)


def contexts(name, lam, r):
    """Two contexts on two fresh oracles of one kind: one whose private rows
    are read, and one that only the public functions read."""
    return StirlingContext(KINDS[name](), lam, r), StirlingContext(KINDS[name](), lam, r)


@pytest.mark.parametrize("r", range(4))
@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
@pytest.mark.parametrize("name", sorted(KINDS))
def test_theorem_2_1_and_route_rows_reduce_to_the_public_entries(name, lam, r):
    ctx, public = contexts(name, lam, r)
    shifted = StirlingContext(public.oracle, lam, 0)
    for n in range(N_MAX + 1):
        entries = [prob_r_stirling2(public, n, k) for k in range(n + 1)]
        assert row_values(_row(ctx, r, n)) == entries, n
        assert row_values(_row(ctx, 0, n)) == [prob_r_stirling2(shifted, n, k) for k in range(n + 1)], n
        assert row_values(_via_conv(ctx, n, n)) == [
            prob_r_stirling2_via_conv(public, n, k) for k in range(n + 1)
        ] == entries, n
        assert row_values(_via_shift(ctx, n, n)) == [
            prob_r_stirling2_via_shift(public, n, k) for k in range(n + 1)
        ] == entries, n


@pytest.mark.parametrize("r", range(4))
@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
@pytest.mark.parametrize("name", sorted(KINDS))
def test_generating_function_rows_reduce_to_the_public_results(name, lam, r):
    ctx, public = contexts(name, lam, r)
    triangle = stirling_triangle(public, N_MAX)
    _triangle_row(ctx, N_MAX)
    assert [row_values(ctx._rows[n]) for n in range(N_MAX + 1)] == triangle
    for n in range(N_MAX + 1):
        row = _triangle_row(ctx, n)
        assert row_values(row) == list(bell_coeffs(public, n).coefficients) == triangle[n], n
        assert row_values(row) == [prob_r_stirling2(public, n, k) for k in range(n + 1)], n
        for x in XS:
            assert F(*_at(row, x.numerator, x.denominator)) == bell_eval(public, n, x), (n, x)
        conv = _via_convolution(ctx, n)
        for x in XS:
            num, den = _at(conv, x.numerator, x.denominator)
            assert den > 0 and F(num, den) == bell_via_convolution(public, n, x), (n, x)


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
@pytest.mark.parametrize("name", sorted(KINDS))
def test_sum_rows_reduce_to_the_public_moments(name, lam):
    oracle, public = KINDS[name](), KINDS[name]()
    assert row_values(oracle._single_row(lam, N_MAX)) == [
        public.degenerate_factorial_moment(1, m, lam) for m in range(N_MAX + 1)
    ]
    for j in range(4):
        assert row_values(oracle._sum_row(lam, j, N_MAX)) == [
            public.degenerate_factorial_moment(j, m, lam) for m in range(N_MAX + 1)
        ], j


@pytest.mark.parametrize("r", range(4))
@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
@pytest.mark.parametrize("name", sorted(KINDS))
def test_kernel_integer_forms_reduce_to_the_public_conversions(name, lam, r):
    """`_convert`, `_shift` and `_at` on kept rows against `convert_basis`,
    `shift_argument` and evaluation of the same values as a Polynomial."""
    ctx = StirlingContext(KINDS[name](), lam, r)
    for n in range(N_MAX + 1):
        for row in (_row(ctx, r, n), _triangle_row(ctx, n)):
            values = row_values(row)
            for source, target in zip(BASES, BASES[::-1]):
                expected = convert_basis(Polynomial(source, tuple(values)), target).coefficients
                assert tuple(row_values(_convert(row, target))) == expected, (n, target)
            monomial = Polynomial(Basis.MONOMIAL, tuple(values))
            expected = shift_argument(Polynomial.make(Basis.MONOMIAL, values), r).coefficients
            assert tuple(row_values(_shift(row, r))) == expected, n
            for x in XS:
                assert F(*_at(row, x.numerator, x.denominator)) == monomial(x), (n, x)
        falling = _degenerate_falling(n, lam)
        assert tuple(row_values(falling)) == degenerate_falling_coeffs(n, lam).coefficients, n


@pytest.mark.parametrize("num,den", [(0, 7), (6, 3), (-6, 4), (5, 1), (-3, 9), (10**30 + 1, 10**30)])
def test_format_prints_as_the_fraction_does(num, den):
    assert _format(num, den) == str(F(num, den))
