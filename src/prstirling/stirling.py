"""Probabilistic degenerate (r-)Stirling numbers of the second kind.

The generating function is the production route: with
A(t) = E[e_lam^Y(t)] - 1, column k of the triangle is
sum_n S(n+r, k+r) t^n / n! = (1/k!) A(t)^k (A(t) + 1)^r, so column 0 is the
r-fold binomial convolution of the single-copy row and column k is column
k - 1 convolved with A, divided by k. `_columns` builds the columns in exact
integers over one denominator per column, reading only the single-copy
moments E[(Y)_{n,lam}]. `stirling_triangle` (the `table` command) makes every
row from them; `_triangle_row` (`bell`) makes one row and keeps it.

`prob_r_stirling2` / `prob_stirling2` (the explicit alternating sum of
Theorem 2.1 over degenerate factorial moments of iid sums, summed in integers
over the order's moment denominator D_n and made one Fraction) and the
`_via_conv` and `_via_shift` routes (plain Fraction arithmetic) are
witnesses: `identities` checks them against the generating function and
against each other, and none of them reaches `_columns`. The oracle owns its
moment tables; the context owns its generating-function rows and Theorem 2.1
entries (an r > 0 context reads r = 0 ones through the r = 0 sibling it
keeps; an r = 0 context is its own and does not keep itself), and each dies
with its owner by reference counting. The only process-global state is the
kernel triangles, which grow only to the largest n requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .kernel import RationalLike, _over_lcm, binomial, factorial, stirling1_signed
from .moments import MomentOracle


@dataclass(frozen=True)
class StirlingContext:
    """The parameter triple (Y, lam, r) every triangle is indexed by."""

    oracle: MomentOracle
    lam: Fraction
    r: int
    # row n of the generating-function triangle, filled by `_triangle_row`
    _rows: dict[int, tuple[Fraction, ...]] = field(default_factory=dict, init=False, compare=False, repr=False)
    # Theorem 2.1 entry (n, k), filled by `prob_r_stirling2`
    _entries: dict[tuple[int, int], Fraction] = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        if not isinstance(self.r, int) or self.r < 0:
            raise ValueError(f"shift parameter r must be a nonnegative integer, got {self.r!r}")

    @property
    def _r0(self) -> "StirlingContext":
        """The r = 0 context of (Y, lam) the witnesses read. An r = 0 context
        is its own and is not stored, so no context refers to itself and each
        dies by reference counting."""
        return self if self.r == 0 else self._sibling

    @cached_property
    def _sibling(self) -> "StirlingContext":
        return StirlingContext(self.oracle, self.lam, 0)


def prob_stirling2(oracle: MomentOracle, lam: RationalLike, n: int, k: int) -> Fraction:
    """The r = 0 entry of `prob_r_stirling2`, on a context dropped after the call."""
    return prob_r_stirling2(StirlingContext(oracle, lam, 0), n, k)


def prob_r_stirling2(ctx: StirlingContext, n: int, k: int) -> Fraction:
    """The (n+r, k+r) entry of the probabilistic degenerate r-Stirling triangle.

    (1/k!) sum_j C(k,j) (-1)^(k-j) E[(S_{j+r})_{n,lam}], kept in the context. Zero for k > n.
    """
    if n < 0 or k < 0:
        raise ValueError(f"indices must be >= 0, got ({n}, {k})")
    if k > n:
        return Fraction(0)
    entry = ctx._entries.get((n, k))
    if entry is None:
        moments, den = ctx.oracle._numerators(ctx.lam, ctx.r, ctx.r + k, n)
        total = sum((-1) ** (k - j) * math.comb(k, j) * v for j, v in enumerate(moments))
        entry = ctx._entries.setdefault((n, k), Fraction(total, den * factorial(k)))
    return entry


def prob_r_stirling2_via_conv(ctx: StirlingContext, n: int, k: int) -> Fraction:
    """Same value by the double-sum route through first-kind numbers and raw
    moments of S_r:

    sum_{l=k}^{n} sum_{m=0}^{n-l} C(n,l) lam^(n-m-l) s1(n-l,m) S^Y(l,k) E[S_r^m]
    """
    if n < 0 or k < 0:
        raise ValueError(f"indices must be >= 0, got ({n}, {k})")
    if k > n:
        return Fraction(0)
    lam = ctx.lam
    total = Fraction(0)
    for l in range(k, n + 1):
        s2y = prob_r_stirling2(ctx._r0, l, k)
        if s2y == 0:
            continue
        cnl = binomial(n, l)
        for m in range(n - l + 1):
            s1 = stirling1_signed(n - l, m)
            if s1 == 0:
                continue
            total += cnl * lam ** (n - m - l) * s1 * s2y * ctx.oracle.sum_moment(ctx.r, m)
    return total


def prob_r_stirling2_via_shift(ctx: StirlingContext, n: int, k: int) -> Fraction:
    """Same value by shifting the column of the r = 0 triangle:

    sum_{m=0}^{min(n-k, r)} C(m+k,m) C(r,m) m! S^Y(n, m+k)
    """
    if n < 0 or k < 0:
        raise ValueError(f"indices must be >= 0, got ({n}, {k})")
    if k > n:
        return Fraction(0)
    total = Fraction(0)
    for m in range(min(n - k, ctx.r) + 1):
        total += (
            binomial(m + k, m)
            * binomial(ctx.r, m)
            * factorial(m)
            * prob_r_stirling2(ctx._r0, n, m + k)
        )
    return total


def _columns(ctx: StirlingContext, n_max: int) -> Iterator[tuple[list[int], int]]:
    """Columns k = 0..n_max of the triangle from the generating function,
    each as integer numerators of orders 0..n_max over one denominator."""
    a, den = _over_lcm([ctx.oracle.degenerate_factorial_moment(1, n, ctx.lam) for n in range(n_max + 1)])
    # weighted[n][q] = C(n, q) a[q], where a[q] / den = E[(Y)_{q,lam}]
    weighted = [[math.comb(n, q) * a[q] for q in range(n + 1)] for n in range(n_max + 1)]

    def convolve(col: list[int], first: int, low: int) -> list[int]:
        """(a * col)[n] = sum_q C(n, q) a[q] col[n - q] over q >= first
        (first = 1 drops a[0], giving A) and n - q >= low (col is zero
        below order low)."""
        return [sum(w[q] * col[n - q] for q in range(first, n - low + 1)) for n, w in enumerate(weighted)]

    col, col_den = [1] + [0] * n_max, 1
    for _ in range(ctx.r):  # column 0 = (A + 1)^r, the r-fold convolution of e_0 with the single row
        col, col_den = convolve(col, 0, 0), col_den * den
    for k in range(n_max + 1):
        if k:  # column k = A * column (k - 1) / k, A the single row without its constant term
            col, col_den = convolve(col, 1, k - 1), col_den * den * k
        g = math.gcd(col_den, *col)
        col, col_den = [v // g for v in col], col_den // g
        yield col, col_den


def stirling_triangle(ctx: StirlingContext, n_max: int) -> list[list[Fraction]]:
    """Rows n = 0..n_max of the triangle, row n having entries k = 0..n."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    rows: list[list[Fraction]] = [[] for _ in range(n_max + 1)]
    for k, (col, col_den) in enumerate(_columns(ctx, n_max)):
        for n in range(k, n_max + 1):
            rows[n].append(Fraction(col[n], col_den))
    return rows


def _triangle_row(ctx: StirlingContext, n: int) -> tuple[Fraction, ...]:
    """Row n of the generating-function triangle, entries k = 0..n, kept in
    the context. Threads may share a context: two that miss at once build
    equal rows, and the first one stored is the one both return."""
    row = ctx._rows.get(n)
    if row is None:
        row = ctx._rows.setdefault(n, tuple(Fraction(col[n], col_den) for col, col_den in _columns(ctx, n)))
    return row
