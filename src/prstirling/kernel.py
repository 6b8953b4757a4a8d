"""Exact arithmetic kernel: combinatorial triangles and integer polynomial rows.

The integer-valued helpers (`factorial`, `binomial`, the Stirling numbers)
return `int`; s1 is signed: (x)_n = sum_k s1(n,k) x^k. Every row the package
keeps is a `Row`, ints over one denominator, and `_convert`, `_shift`, `_at`
and `_degenerate_falling` are basis change, argument shift, evaluation and
the degenerate falling factorial on Rows; `polynomial` lays its `Fraction`
API over them, `_over_lcm` bringing Fractions over their lcm once.
`_format` prints a value with one gcd. The Stirling triangles are the only
process-global state: they grow to the largest n requested, under one lock
and only by full rows, so threads growing them at once read the same rows a
single thread would.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence, Union

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


Row = namedtuple("Row", "nums den")
Row.__doc__ = """Exact values nums[k] / den over one denominator den > 0, not reduced:
nums a sequence of ints, den an int."""


# ---- integer rows. Tuples are built from lists, not generators: a tuple
# filled from a generator is over-allocated and resized, which measurably
# raised peak memory in `verify`.


def _over_lcm(coeffs: Sequence[RationalLike]) -> Row:
    """Integer numerators of coeffs over the lcm of their denominators."""
    den = math.lcm(*[c.denominator for c in coeffs])
    return Row([c.numerator * (den // c.denominator) for c in coeffs], den)


def _degenerate_falling(n: int, lam: Fraction) -> Row:
    """`polynomial.degenerate_falling_coeffs`, lam = p/c, over c^n: the
    product of (c x - i p), i < n."""
    p, c = lam.numerator, lam.denominator
    nums = [1]
    for i in range(n):
        nums = [c * a - i * p * b for a, b in zip([0] + nums, nums + [0])]
    return Row(nums, c**n)


def _convert(row: Row, target: Basis) -> Row:
    """`polynomial.convert_basis` of a row, into target from the other basis."""
    tri, rows = (stirling2, _S2_ROWS) if target is Basis.FALLING_FACTORIAL else (stirling1_signed, _S1_ROWS)
    tri(max(len(row.nums) - 1, 0), 0)  # grow the triangle to the top row
    return _linear(row, rows)


def _shift(row: Row, r: int) -> Row:
    """`polynomial.shift_argument` of a row, by Horner steps (Taylor shift):
    d(d+1)/2 multiply-adds for degree d, trailing zeros trimmed."""
    nums = list(row.nums)
    for i in range(len(nums) - 1):
        for j in range(len(nums) - 2, i - 1, -1):
            nums[j] += r * nums[j + 1]
    return Row(_trimmed(nums), row.den)


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
