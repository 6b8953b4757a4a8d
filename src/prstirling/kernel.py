"""Exact arithmetic kernel: combinatorial triangles and polynomial basis changes.

The integer-valued helpers (`factorial`, `binomial`, the Stirling numbers)
return `int`, all else `Fraction`; s1 is signed: (x)_n = sum_k s1(n,k) x^k.
`convert_basis`, `shift_argument` and evaluation (a falling-basis polynomial
through `convert_basis`) bring the coefficients over their lcm once, work in
ints and build one Fraction per output coefficient or value.
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
        cs = [Fraction(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        return Polynomial(basis, tuple(cs))

    def __call__(self, x: RationalLike) -> Fraction:
        if self.basis is not Basis.MONOMIAL:
            return convert_basis(self, Basis.MONOMIAL)(x)
        # at x = p/q: sum_i c_i p^i q^(d-i) over den q^d, d = len - 1
        x = Fraction(x)
        nums, den = _over_lcm(self.coefficients)
        q = x.denominator
        return Fraction(_homogeneous(nums, x.numerator, q) * q, den * q ** len(nums))


def degenerate_falling_coeffs(n: int, lam: RationalLike) -> Polynomial:
    """Monomial coefficients of the degenerate falling factorial of order n.

    The coefficient of x^k is s1(n, k) * lam^(n-k).
    """
    if n < 0:
        raise ValueError(f"degenerate_falling_coeffs requires n >= 0, got {n}")
    lam = Fraction(lam)
    coeffs = [Fraction(1)]
    for i in range(n):
        shift = i * lam
        # multiply by (x - i*lam)
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] -= c * shift
        coeffs = nxt
    return Polynomial.make(Basis.MONOMIAL, coeffs)


def convert_basis(p: Polynomial, target: Basis) -> Polynomial:
    """Express the same polynomial in the target basis.

    Monomial -> falling uses the second-kind triangle; falling -> monomial uses
    the signed first-kind triangle. Exact inverse operations.
    """
    if p.basis is target:
        return p
    nums, den = _over_lcm(p.coefficients)
    tri, rows = (stirling2, _S2_ROWS) if target is Basis.FALLING_FACTORIAL else (stirling1_signed, _S1_ROWS)
    tri(max(len(nums) - 1, 0), 0)  # grow the triangle to the top row
    out = [0] * len(nums)
    for n, c in enumerate(nums):
        if c:
            for k, t in enumerate(rows[n]):
                out[k] += c * t
    return _from_ints(target, out, den)


def shift_argument(p: Polynomial, r: int) -> Polynomial:
    """q(x) = p(x + r) for a monomial-basis polynomial, by binomial expansion."""
    if p.basis is not Basis.MONOMIAL:
        raise ValueError("shift_argument requires a monomial-basis polynomial")
    if r < 0:
        raise ValueError(f"shift_argument requires r >= 0, got {r}")
    if r == 0:
        return p
    nums, den = _over_lcm(p.coefficients)
    powers = [r**i for i in range(len(nums))]
    out = [0] * len(nums)
    for n, c in enumerate(nums):
        if c:
            # (x + r)^n = sum_k C(n,k) r^(n-k) x^k
            for k in range(n + 1):
                out[k] += c * math.comb(n, k) * powers[n - k]
    return _from_ints(Basis.MONOMIAL, out, den)


# The two helpers below build tuples from lists, not generators: a tuple
# filled from a generator is over-allocated and resized, which measurably
# raised peak memory in `verify`.


def _over_lcm(coeffs: Sequence[RationalLike]) -> tuple[list[int], int]:
    """Integer numerators of coeffs over the lcm of their denominators, and that lcm."""
    den = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _homogeneous(coeffs: Sequence[int], a: int, b: int) -> int:
    """sum_j coeffs[j] a^j b^(d-j), d = len(coeffs) - 1, by Horner in ints
    (so 0^0 = 1)."""
    acc, b_power = 0, 1
    for c in reversed(coeffs):
        acc = acc * a + c * b_power
        b_power *= b
    return acc


def _from_ints(basis: Basis, nums: list[int], den: int) -> Polynomial:
    """The canonical polynomial with coefficients nums[k] / den, one reduced
    Fraction each."""
    while len(nums) > 1 and nums[-1] == 0:
        nums.pop()
    return Polynomial(basis, tuple([Fraction(v, den) for v in nums]) or (Fraction(0),))
