"""Exact arithmetic kernel: combinatorial triangles and polynomial basis changes.

The integer-valued helpers (`factorial`, `binomial`, the Stirling numbers)
return `int`; s1 is signed: (x)_n = sum_k s1(n,k) x^k. Every row the package
keeps is a `Row`, ints over one denominator, and `_convert`, `_shift` and `_at`
are `convert_basis`, `shift_argument` and evaluation of Rows; the public
functions bring Fractions over their lcm once (`_over_lcm`) and build one
Fraction per output value. `_format` prints a value with one gcd.
The Stirling triangles are the only process-global state: they grow to the
largest n requested, under one lock and only by full rows, so threads growing
them at once read the same rows a single thread would.
"""

from __future__ import annotations

import math
import threading
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence, Union

RationalLike = Union[Fraction, int]


def factorial(n: int) -> int:
    """n!."""
    if n < 0:
        raise ValueError(f"factorial requires n >= 0, got {n}")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """C(n, k); zero when k > n."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial requires n, k >= 0, got ({n}, {k})")
    return math.comb(n, k)


# Row i of each cache is the full triangle row [T(i, 0), ..., T(i, i)].
_S1_ROWS: list[list[int]] = [[1]]
_S2_ROWS: list[list[int]] = [[1]]
_GROWTH_LOCK = threading.Lock()


def _grow(rows: list[list[int]], n: int, weight: Callable[[int, int], int]) -> None:
    """Append rows until rows[n] exists, by T(i,k) = weight(i,k) T(i-1,k) + T(i-1,k-1)."""
    with _GROWTH_LOCK:
        while len(rows) <= n:
            i = len(rows)
            prev = rows[i - 1]
            rows.append(
                [(weight(i, k) * prev[k] if k < i else 0) + (prev[k - 1] if k else 0) for k in range(i + 1)]
            )


def stirling1_signed(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k)."""
    if n < 0 or k < 0:
        raise ValueError(f"stirling1_signed requires n, k >= 0, got ({n}, {k})")
    if k > n:
        return 0
    if n >= len(_S1_ROWS):
        _grow(_S1_ROWS, n, lambda i, k: 1 - i)
    return _S1_ROWS[n][k]


def stirling2(n: int, k: int) -> int:
    """Classical Stirling number of the second kind S(n, k)."""
    if n < 0 or k < 0:
        raise ValueError(f"stirling2 requires n, k >= 0, got ({n}, {k})")
    if k > n:
        return 0
    if n >= len(_S2_ROWS):
        _grow(_S2_ROWS, n, lambda i, k: k)
    return _S2_ROWS[n][k]


class Basis(Enum):
    MONOMIAL = "monomial"
    FALLING_FACTORIAL = "falling"


class Row(NamedTuple):
    """Exact values nums[k] / den over one denominator den > 0, not reduced."""

    nums: Sequence[int]
    den: int


class Polynomial(NamedTuple):
    """Dense exact polynomial in a declared basis.

    coefficients[k] multiplies x^k (monomial basis) or (x)_k (falling-factorial
    basis). `make`, `convert_basis` and `shift_argument` return canonical
    form: no trailing zeros except the zero polynomial, which is the single
    coefficient [0]. Evaluation accepts any coefficient tuple, trailing zeros
    included; equality compares the tuples.
    """

    basis: Basis
    coefficients: tuple[Fraction, ...]

    @staticmethod
    def make(basis: Basis, coeffs: Iterable[RationalLike]) -> "Polynomial":
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
    """q(x) = p(x + r) for a monomial-basis polynomial, by binomial expansion."""
    if p.basis is not Basis.MONOMIAL:
        raise ValueError("shift_argument requires a monomial-basis polynomial")
    if r < 0:
        raise ValueError(f"shift_argument requires r >= 0, got {r}")
    return _polynomial(Basis.MONOMIAL, _shift(_over_lcm(p.coefficients), r)) if r else p


# ---- integer rows. Tuples are built from lists, not generators: a tuple
# filled from a generator is over-allocated and resized, which measurably
# raised peak memory in `verify`.


def _over_lcm(coeffs: Sequence[RationalLike]) -> Row:
    """Integer numerators of coeffs over the lcm of their denominators."""
    den = math.lcm(*[c.denominator for c in coeffs])
    return Row([c.numerator * (den // c.denominator) for c in coeffs], den)


def _polynomial(basis: Basis, row: Row) -> Polynomial:
    """The row as a polynomial, one reduced Fraction per coefficient."""
    return Polynomial(basis, tuple([Fraction(v, row.den) for v in row.nums]) or (Fraction(0),))


def _degenerate_falling(n: int, lam: Fraction) -> Row:
    """`degenerate_falling_coeffs`, lam = p/c, over c^n: the product of (c x - i p), i < n."""
    p, c = lam.numerator, lam.denominator
    nums = [1]
    for i in range(n):
        nums = [c * a - i * p * b for a, b in zip([0] + nums, nums + [0])]
    return Row(nums, c**n)


def _convert(row: Row, target: Basis) -> Row:
    """`convert_basis` of a row, into target from the other basis."""
    tri, rows = (stirling2, _S2_ROWS) if target is Basis.FALLING_FACTORIAL else (stirling1_signed, _S1_ROWS)
    tri(max(len(row.nums) - 1, 0), 0)  # grow the triangle to the top row
    return _linear(row, rows)


def _shift(row: Row, r: int) -> Row:
    """`shift_argument` of a row: (x + r)^n = sum_k C(n,k) r^(n-k) x^k."""
    return _linear(row, [[math.comb(n, k) * r ** (n - k) for k in range(n + 1)] for n in range(len(row.nums))])


def _linear(row: Row, images: Sequence[Sequence[int]]) -> Row:
    """sum_n nums[n] images[n] over the row's denominator, trailing zeros trimmed."""
    out = [0] * len(row.nums)
    for n, c in enumerate(row.nums):
        if c:
            for k, t in enumerate(images[n]):
                out[k] += c * t
    return Row(_trimmed(out), row.den)


def _at(row: Row, p: int, q: int) -> tuple[int, int]:
    """A monomial row's value at x = p/q, q > 0, over den q^d, d = len(nums) - 1."""
    return _homogeneous(row.nums, p, q), row.den * q ** max(len(row.nums) - 1, 0)


def _homogeneous(coeffs: Sequence[int], a: int, b: int) -> int:
    """sum_j coeffs[j] a^j b^(d-j), d = len(coeffs) - 1, by Horner in ints
    (so 0^0 = 1)."""
    acc, b_power = 0, 1
    for c in reversed(coeffs):
        acc = acc * a + c * b_power
        b_power *= b
    return acc


def _trimmed(nums: list) -> list:
    while len(nums) > 1 and nums[-1] == 0:
        nums.pop()
    return nums


def _format(num: int, den: int) -> str:
    """num / den, den > 0, as reduced text "p" or "p/q", by one gcd."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"
