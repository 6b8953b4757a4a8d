"""Exact polynomials with `Fraction` coefficients, over the kernel's integer rows.

`Polynomial` is a dense coefficient tuple in a declared basis; basis change,
argument shift, evaluation and the degenerate falling factorial bring the
coefficients over their lcm once (`kernel._over_lcm`), run the integer row
kernels (`_convert`, `_shift`, `_at`, `_degenerate_falling`) and build one
Fraction per output value (`_polynomial`). No `table`, `moments` or `bell`
request loads this module: `bell_coeffs` and library callers do.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Iterable

from .kernel import Basis, RationalLike, Row, _at, _convert, _degenerate_falling, _over_lcm, _shift, _trimmed


class Polynomial(namedtuple("Polynomial", "basis coefficients")):
    """Dense exact polynomial in a declared basis: `basis` a `kernel.Basis`,
    `coefficients` a tuple of Fractions.

    coefficients[k] multiplies x^k (monomial basis) or (x)_k (falling-factorial
    basis). `make`, `convert_basis` and `shift_argument` return canonical
    form: no trailing zeros except the zero polynomial, which is the single
    coefficient [0]. Evaluation accepts any coefficient tuple, trailing zeros
    included; equality compares the tuples.
    """

    __slots__ = ()

    @staticmethod
    def make(basis: Basis, coeffs: Iterable[RationalLike]) -> Polynomial:
        return Polynomial(basis, tuple(_trimmed([Fraction(c) for c in coeffs]) or [Fraction(0)]))

    def __call__(self, x: RationalLike) -> Fraction:
        if self.basis is not Basis.MONOMIAL:
            return convert_basis(self, Basis.MONOMIAL)(x)
        x = Fraction(x)
        return Fraction(*_at(_over_lcm(self.coefficients), x.numerator, x.denominator))


def degenerate_falling_coeffs(n: int, lam: RationalLike) -> Polynomial:
    """Monomial coefficients of the degenerate falling factorial of order n.

    The coefficient of x^k is s1(n, k) * lam^(n-k).
    """
    if n < 0:
        raise ValueError(f"degenerate_falling_coeffs requires n >= 0, got {n}")
    return _polynomial(Basis.MONOMIAL, _degenerate_falling(n, Fraction(lam)))


def convert_basis(p: Polynomial, target: Basis) -> Polynomial:
    """Express the same polynomial in the target basis.

    Monomial -> falling uses the second-kind triangle; falling -> monomial uses
    the signed first-kind triangle. Exact inverse operations.
    """
    return p if p.basis is target else _polynomial(target, _convert(_over_lcm(p.coefficients), target))


def shift_argument(p: Polynomial, r: int) -> Polynomial:
    """q(x) = p(x + r) for a monomial-basis polynomial, by a Taylor shift."""
    if p.basis is not Basis.MONOMIAL:
        raise ValueError("shift_argument requires a monomial-basis polynomial")
    if r < 0:
        raise ValueError(f"shift_argument requires r >= 0, got {r}")
    return _polynomial(Basis.MONOMIAL, _shift(_over_lcm(p.coefficients), r)) if r else p


def _polynomial(basis: Basis, row: Row) -> Polynomial:
    """The row as a polynomial, one reduced Fraction per coefficient."""
    return Polynomial(basis, tuple([Fraction(v, row.den) for v in row.nums]) or (Fraction(0),))
