"""Probabilistic degenerate (r-)Stirling numbers of the second kind.

The generating function is the production route: with
A(t) = E[e_lam^Y(t)] - 1, column k of the triangle is
sum_n S(n+r, k+r) t^n / n! = (1/k!) A(t)^k (A(t) + 1)^r. `_columns` builds
the columns in exact integers over one denominator per column, reading only
the single-copy moments E[(Y)_{n,lam}]. The `table` command and
`stirling_triangle` take each entry straight from its column; `_triangle_row`
keeps rows 0..n of one build, each over its columns' lcm (`bell`, `verify`).

Theorem 2.1 (`prob_r_stirling2`) and the `_via_conv` and `_via_shift` routes
are witnesses, none reaching `_columns`: each row form gives entries 0..k of
row n as a `kernel.Row`, and its public entry reads it through
`_route_entry`, the one place indices are checked: an entry past the row is
0 before any read. `_via_conv` and the Bell convolution share one binomial
convolution with the r = 0 rows (`_convolution`), each with moments of its
own. A Theorem 2.1 row depends on (Y, lam, shift, n) only, so the oracle
keeps it (`MomentOracle._differences`) for every context on that lam. The
only process-global state is the kernel triangles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Callable, Iterator

from .kernel import RationalLike, Row, _homogeneous, stirling1_signed
from .moments import MomentOracle

_ZERO = Fraction(0)  # the lam key of the raw sum moments


class StirlingContext:
    """The parameter triple (Y, lam, r) every triangle is indexed by.

    Instances compare and hash by (oracle, lam, r); the generating-function
    rows are derived data kept for the life of the context.
    """

    def __init__(self, oracle: MomentOracle, lam: RationalLike, r: int):
        self.oracle = oracle
        self.lam = Fraction(lam)
        if not isinstance(r, int) or r < 0:
            raise ValueError(f"shift parameter r must be a nonnegative integer, got {r!r}")
        self.r = r
        # row n of the generating-function triangle, filled by `_triangle_row`
        self._rows: dict[int, Row] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StirlingContext):
            return NotImplemented
        return (self.oracle, self.lam, self.r) == (other.oracle, other.lam, other.r)

    def __hash__(self) -> int:
        return hash((self.oracle, self.lam, self.r))

    def __repr__(self) -> str:
        return f"StirlingContext(oracle={self.oracle!r}, lam={self.lam!r}, r={self.r!r})"


def prob_stirling2(oracle: MomentOracle, lam: RationalLike, n: int, k: int) -> Fraction:
    """The r = 0 entry of `prob_r_stirling2`. Its row stays with the oracle."""
    return prob_r_stirling2(StirlingContext(oracle, lam, 0), n, k)


def prob_r_stirling2(ctx: StirlingContext, n: int, k: int) -> Fraction:
    """The (n+r, k+r) entry of the probabilistic degenerate r-Stirling triangle
    by Theorem 2.1, kept with the oracle. Zero for k > n."""
    return _route_entry(_explicit, ctx, n, k)


def _route_entry(row_form: Callable[..., Row], ctx: StirlingContext, n: int, k: int) -> Fraction:
    """Entry k of row n by a route's row form, which gets only 0 <= k <= n."""
    if n < 0 or k < 0:
        raise ValueError(f"indices must be >= 0, got ({n}, {k})")
    if k > n:
        return Fraction(0)
    nums, den = row_form(ctx, n, k)
    return Fraction(nums[k], den)


def _explicit(ctx: StirlingContext, n: int, k: int) -> Row:
    """Entries 0..k, at least, of row n by Theorem 2.1 at shift r."""
    return ctx.oracle._differences(ctx.lam, ctx.r, n, k)


def _row(ctx: StirlingContext, shift: int, n: int) -> Row:
    """Row n of the Theorem 2.1 triangle at the given shift, entries k = 0..n."""
    return ctx.oracle._differences(ctx.lam, shift, n, n)


def prob_r_stirling2_via_conv(ctx: StirlingContext, n: int, k: int) -> Fraction:
    """The same entry by the double-sum route (`_via_conv`)."""
    return _route_entry(_via_conv, ctx, n, k)


def _via_conv(ctx: StirlingContext, n: int, k: int) -> Row:
    """Entries (n+r, i+r), i = 0..k, 0 <= k <= n, by `_convolution` with
    E[(S_r)_{d,lam}] = sum_m lam^(d-m) s1(d,m) E[S_r^m]: for lam = p/c and
    E[S_r^m] over one denominator E, each is one integer over c^n E."""
    p, c = ctx.lam.numerator, ctx.lam.denominator
    raw, raw_den = ctx.oracle._sum_row(_ZERO, ctx.r, n)
    moments = [_homogeneous([stirling1_signed(d, m) * raw[m] for m in range(d + 1)], c, p) for d in range(n + 1)]
    return _convolution(ctx, n, k, Row([c ** (n - d) * v for d, v in enumerate(moments)], c**n * raw_den))


def _convolution(ctx: StirlingContext, n: int, k: int, moments: Row) -> Row:
    """Entries 0..k of sum_{m=0}^{n} C(n,m) E[(S_r)_{m,lam}] S^Y(n-m, .), from
    the given moment row: one integer per entry over moments.den S, S the lcm
    of the r = 0 rows' denominators. `_via_conv` and `bell._via_convolution` read it."""
    rows = {m: ctx.oracle._differences(ctx.lam, 0, n - m, k) for m, v in enumerate(moments.nums) if v}
    den = math.lcm(*[d for _, d in rows.values()])
    out = [0] * (k + 1)
    for m, (row, d) in rows.items():
        weight = math.comb(n, m) * moments.nums[m] * (den // d)
        for i, s in enumerate(row[: k + 1]):
            out[i] += weight * s
    return Row(out, moments.den * den)


def prob_r_stirling2_via_shift(ctx: StirlingContext, n: int, k: int) -> Fraction:
    """The same entry by the shift route (`_via_shift`)."""
    return _route_entry(_via_shift, ctx, n, k)


def _via_shift(ctx: StirlingContext, n: int, k: int) -> Row:
    """Entries (n+r, i+r), i = 0..k, 0 <= k <= n, over the denominator of r = 0 row n, by

    sum_{m=0}^{min(n-i, r)} C(m+i,m) C(r,m) m! S^Y(n, m+i)"""
    r, (s2y, den) = ctx.r, ctx.oracle._differences(ctx.lam, 0, n, k + ctx.r)
    return Row(
        [
            sum([math.comb(m + i, m) * math.perm(r, m) * s2y[m + i] for m in range(min(n - i, r) + 1)])
            for i in range(k + 1)
        ],
        den,
    )


def _columns(ctx: StirlingContext, n_max: int) -> Iterator[tuple[list[int], int]]:
    """Columns k = 0..n_max of the triangle from the generating function,
    each as integer numerators of orders 0..n_max over one denominator."""
    a, den = ctx.oracle._single_row(ctx.lam, n_max)
    # backward[n][i] = C(n, q) a[q] for q = n - i, where a[q] / den = E[(Y)_{q,lam}]
    backward = [[math.comb(n, q) * a[q] for q in range(n, -1, -1)] for n in range(n_max + 1)]

    def convolve(col: list[int], first: int, low: int) -> list[int]:
        """(a * col)[n] = sum_q C(n, q) a[q] col[n - q] over q >= first
        (first = 1 drops a[0], giving A) and n - q >= low (col is zero
        below order low), so zero below order low + first."""
        tail, zeros = col[low:], [0] * (low + first)
        return zeros + [sum(map(mul, backward[n][low : n - first + 1], tail)) for n in range(low + first, n_max + 1)]

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
    cols = list(_columns(ctx, n_max))
    return [[Fraction(col[n], den) for col, den in cols[: n + 1]] for n in range(n_max + 1)]


def _triangle_row(ctx: StirlingContext, n: int) -> Row:
    """Row n of the generating-function triangle, over the lcm of its
    columns' denominators, kept in the context; a miss keeps rows 0..n of
    one `_columns` build. Of equal rows that threads build at once, the
    first stored is the one all return."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if n not in ctx._rows:
        cols, den = list(_columns(ctx, n)), 1
        for i, (_, d) in enumerate(cols):
            den = math.lcm(den, d)  # row i is over the lcm of columns 0..i
            ctx._rows.setdefault(i, Row(tuple([c[i] * (den // e) for c, e in cols[: i + 1]]), den))
    return ctx._rows[n]
