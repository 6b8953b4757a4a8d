"""Probabilistic degenerate (r-)Stirling numbers of the second kind.

The generating function is the production route: with
A(t) = E[e_lam^Y(t)] - 1, column k of the triangle is
sum_n S(n+r, k+r) t^n / n! = (1/k!) A(t)^k (A(t) + 1)^r. `_columns` builds
the columns in exact integers over one denominator per column, reading only
the single-copy moments E[(Y)_{n,lam}]. The `table` command and
`stirling_triangle` take each entry straight from its column; `_triangle_row`
keeps rows 0..n of one build, each over its columns' lcm (`bell`, `verify`).

`StirlingContext` is the one name the witness routes (`witness`) take from
this module, so none of them reaches `_columns`. `_row` reads a Theorem 2.1
row from the oracle (`MomentOracle._differences`), where it is kept for
every context on that lam; the Dobinski series and `verify` read it. The
only process-global state is the kernel triangles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterator

from .kernel import RationalLike, Row
from .moments import MomentOracle


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


def _row(ctx: StirlingContext, shift: int, n: int) -> Row:
    """Row n of the Theorem 2.1 triangle at the given shift, entries k = 0..n."""
    return ctx.oracle._differences(ctx.lam, shift, n, n)


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
