"""Probabilistic degenerate (r-)Stirling numbers of the second kind.

The generating function is the production route: with
A(t) = E[e_lam^Y(t)] - 1, column k of the triangle is
sum_n S(n+r, k+r) t^n / n! = (1/k!) A(t)^k (A(t) + 1)^r. `_columns` builds
the columns in exact integers over one denominator per column, reading only
the single-copy moments E[(Y)_{n,lam}]; `stirling_triangle` (`table`) makes
every row from them and `_triangle_row` (`bell`) one row, kept in the context.

Theorem 2.1 (`prob_r_stirling2`, `_theorem_2_1`) and the `_via_conv` and
`_via_shift` routes are witnesses, each an integer sum made one Fraction:
`identities` checks them against the generating function and each other, and
none reaches `_columns`. Theorem 2.1 at shift s reads the same iid-sum table
for every s, so one context serves both its r-shifted entries and the r = 0
entries S^Y(n, k) the witnesses read. The oracle owns its moment tables and
the context its rows and entries; the only process-global state is the
kernel triangles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from .kernel import RationalLike, _over_lcm, binomial, factorial, stirling1_signed
from .moments import MomentOracle


class StirlingContext:
    """The parameter triple (Y, lam, r) every triangle is indexed by.

    Instances compare and hash by (oracle, lam, r); the generating-function
    rows and Theorem 2.1 entries are derived data kept for the life of the
    context.
    """

    def __init__(self, oracle: MomentOracle, lam: RationalLike, r: int):
        self.oracle = oracle
        self.lam = Fraction(lam)
        if not isinstance(r, int) or r < 0:
            raise ValueError(f"shift parameter r must be a nonnegative integer, got {r!r}")
        self.r = r
        # row n of the generating-function triangle, filled by `_triangle_row`
        self._rows: dict[int, tuple[Fraction, ...]] = {}
        # Theorem 2.1 entry (shift, n, k) with shift r or 0, filled by `_theorem_2_1`
        self._entries: dict[tuple[int, int, int], Fraction] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StirlingContext):
            return NotImplemented
        return (self.oracle, self.lam, self.r) == (other.oracle, other.lam, other.r)

    def __hash__(self) -> int:
        return hash((self.oracle, self.lam, self.r))

    def __repr__(self) -> str:
        return f"StirlingContext(oracle={self.oracle!r}, lam={self.lam!r}, r={self.r!r})"


def prob_stirling2(oracle: MomentOracle, lam: RationalLike, n: int, k: int) -> Fraction:
    """The r = 0 entry of `prob_r_stirling2`, on a context dropped after the call."""
    return prob_r_stirling2(StirlingContext(oracle, lam, 0), n, k)


def prob_r_stirling2(ctx: StirlingContext, n: int, k: int) -> Fraction:
    """The (n+r, k+r) entry of the probabilistic degenerate r-Stirling triangle
    by Theorem 2.1, kept in the context. Zero for k > n."""
    return _theorem_2_1(ctx, ctx.r, n, k)


def _theorem_2_1(ctx: StirlingContext, shift: int, n: int, k: int) -> Fraction:
    """S^(shift,Y)(n+shift, k+shift) = (1/k!) sum_j C(k,j) (-1)^(k-j) E[(S_{j+shift})_{n,lam}]
    for shift r or 0, kept in the context. Zero for k > n, without growing the
    table. Threads sharing a context all return the first entry stored."""
    if n < 0 or k < 0:
        raise ValueError(f"indices must be >= 0, got ({n}, {k})")
    if k > n:
        return Fraction(0)
    entry = ctx._entries.get((shift, n, k))
    if entry is None:
        moments, den = ctx.oracle._numerators(ctx.lam, shift, shift + k, n)
        total = sum((-1) ** (k - j) * math.comb(k, j) * v for j, v in enumerate(moments))
        entry = ctx._entries.setdefault((shift, n, k), Fraction(total, den * factorial(k)))
    return entry


def _row(ctx: StirlingContext, shift: int, n: int) -> tuple[Fraction, ...]:
    """Row n of the Theorem 2.1 triangle at the given shift, entries k = 0..n."""
    return tuple([_theorem_2_1(ctx, shift, n, k) for k in range(n + 1)])


def prob_r_stirling2_via_conv(ctx: StirlingContext, n: int, k: int) -> Fraction:
    """Same value by the double-sum route through first-kind numbers and raw
    moments of S_r:

    sum_{l=k}^{n} sum_{m=0}^{n-l} C(n,l) lam^(n-m-l) s1(n-l,m) S^Y(l,k) E[S_r^m]

    summed in integers: with lam = p/c, S^Y(l,k) over the lcm D of its
    denominators and E[S_r^m] over theirs, E, the sum over c^(n-k) D E.
    """
    if n < 0 or k < 0:
        raise ValueError(f"indices must be >= 0, got ({n}, {k})")
    if k > n:
        return Fraction(0)
    p, c = ctx.lam.numerator, ctx.lam.denominator
    s2y, s2y_den = _over_lcm([_theorem_2_1(ctx, 0, l, k) for l in range(k, n + 1)])
    sums, sums_den = _over_lcm([ctx.oracle.sum_moment(ctx.r, m) for m in range(n - k + 1)])
    total = 0
    for l, s in enumerate(s2y, k):
        if s == 0:
            continue
        # c^(n-k) lam^(n-m-l) = p^(n-m-l) c^(m+l-k)
        total += binomial(n, l) * s * sum(
            stirling1_signed(n - l, m) * p ** (n - m - l) * c ** (m + l - k) * sums[m] for m in range(n - l + 1)
        )
    return Fraction(total, c ** (n - k) * s2y_den * sums_den)


def prob_r_stirling2_via_shift(ctx: StirlingContext, n: int, k: int) -> Fraction:
    """Same value by shifting the column of the r = 0 triangle:

    sum_{m=0}^{min(n-k, r)} C(m+k,m) C(r,m) m! S^Y(n, m+k)

    summed in integers over the lcm of the S^Y(n, m+k) denominators.
    """
    if n < 0 or k < 0:
        raise ValueError(f"indices must be >= 0, got ({n}, {k})")
    s2y, den = _over_lcm([_theorem_2_1(ctx, 0, n, m + k) for m in range(min(n - k, ctx.r) + 1)])
    total = sum(binomial(m + k, m) * binomial(ctx.r, m) * factorial(m) * s for m, s in enumerate(s2y))
    return Fraction(total, den)


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

    def reduced(col: list[int], col_den: int) -> tuple[list[int], int]:
        g = math.gcd(col_den, *col)
        return [v // g for v in col], col_den // g

    # column 0 = (A + 1)^r, the r-th convolution power of the single row, by
    # square and multiply over the bits of r: about log2 r convolutions
    col, col_den = ([1] + [0] * n_max, 1) if ctx.r == 0 else (a, den)
    for bit in f"{ctx.r:b}"[1:]:
        square = [sum(math.comb(n, q) * col[q] * col[n - q] for q in range(n + 1)) for n in range(n_max + 1)]
        col, col_den = reduced(square, col_den**2)
        if bit == "1":
            col, col_den = reduced(convolve(col, 0, 0), col_den * den)
    for k in range(n_max + 1):
        if k:  # column k = A * column (k - 1) / k, A the single row without its constant term
            col, col_den = convolve(col, 1, k - 1), col_den * den * k
        col, col_den = reduced(col, col_den)
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
