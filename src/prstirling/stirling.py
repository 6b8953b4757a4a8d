"""Probabilistic degenerate (r-)Stirling numbers of the second kind.

The generating function is the production route: with
A(t) = E[e_lam^Y(t)] - 1, column k of the triangle is
sum_n S(n+r, k+r) t^n / n! = (1/k!) A(t)^k (A(t) + 1)^r. `_columns` builds
the columns in exact integers over one denominator per column, reading only
the single-copy moments E[(Y)_{n,lam}]; `_gf_rows` makes rows of one build
for `stirling_triangle` (`table`) and `_triangle_row` (`bell`; rows 0..max_n
for `verify`).

Theorem 2.1 (`prob_r_stirling2`) and the `_via_conv` and `_via_shift` routes
are witnesses, integer sums a row n at a time: `identities` checks them
against the generating function and each other, and none reaches `_columns`.
A Theorem 2.1 row depends on (Y, lam, shift, n) only, so the oracle keeps it
(`MomentOracle._differences`) for every context on that lam. The only process-global state is the kernel triangles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

from .kernel import RationalLike, _homogeneous, _over_lcm, stirling1_signed
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
        self._rows: dict[int, tuple[Fraction, ...]] = {}

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
    if n < 0 or k < 0:
        raise ValueError(f"indices must be >= 0, got ({n}, {k})")
    return ctx.oracle._differences(ctx.lam, ctx.r, n, k)[k] if k <= n else Fraction(0)


def _row(ctx: StirlingContext, shift: int, n: int) -> tuple[Fraction, ...]:
    """Row n of the Theorem 2.1 triangle at the given shift, entries k = 0..n."""
    return ctx.oracle._differences(ctx.lam, shift, n, n)


def prob_r_stirling2_via_conv(ctx: StirlingContext, n: int, k: int) -> Fraction:
    """The same entry by the double-sum route (`_via_conv`)."""
    return Fraction(*_via_conv(ctx, n, [k])[0])


def _via_conv(ctx: StirlingContext, n: int, ks: Sequence[int]) -> list[tuple[int, int]]:
    """Entries (n+r, k+r), k in ks, as (numerator, denominator) pairs, by

    sum_{l=k}^{n} C(n,l) S^Y(l,k) sum_{m=0}^{n-l} lam^(n-m-l) s1(n-l,m) E[S_r^m]

    with lam = p/c and E[S_r^m] over one denominator E, the inner sum times
    c^(n-l) E is one integer per n - l, and column k of S^Y over its lcm D
    makes entry k one integer over c^(n-k) D E; r = 0 rows are read once."""
    k0 = min(ks)
    if n < 0 or k0 < 0:
        raise ValueError(f"indices must be >= 0, got ({n}, {k0})")
    p, c = ctx.lam.numerator, ctx.lam.denominator
    sums, sums_den = ctx.oracle._sum_row(Fraction(0), ctx.r, max(n - k0, 0))
    inner = [_homogeneous([stirling1_signed(d, m) * sums[m] for m in range(d + 1)], c, p) for d in range(len(sums))]
    rows = [ctx.oracle._differences(ctx.lam, 0, l, max(ks)) for l in range(k0, n + 1)]
    out = []
    for k in ks:
        s2y, s2y_den = _over_lcm([row[k] for row in rows[k - k0 :]])
        total = sum([math.comb(n, l) * s * c ** (l - k) * inner[n - l] for l, s in enumerate(s2y, k)])
        out.append((total, c ** max(n - k, 0) * s2y_den * sums_den))
    return out


def prob_r_stirling2_via_shift(ctx: StirlingContext, n: int, k: int) -> Fraction:
    """The same entry by the shift route (`_via_shift`)."""
    return Fraction(*_via_shift(ctx, n, [k])[0])


def _via_shift(ctx: StirlingContext, n: int, ks: Sequence[int]) -> list[tuple[int, int]]:
    """Entries (n+r, k+r), k in ks, as int pairs over the lcm of r = 0 row n, by

    sum_{m=0}^{min(n-k, r)} C(m+k,m) C(r,m) m! S^Y(n, m+k)"""
    if n < 0 or min(ks) < 0:
        raise ValueError(f"indices must be >= 0, got ({n}, {min(ks)})")
    r = ctx.r
    s2y, den = _over_lcm(ctx.oracle._differences(ctx.lam, 0, n, max(ks) + r))
    return [
        (sum([math.comb(m + k, m) * math.perm(r, m) * s2y[m + k] for m in range(min(n - k, r) + 1)]), den) for k in ks
    ]


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
    return _gf_rows(ctx, n_max, 0)


def _gf_rows(ctx: StirlingContext, n_max: int, low: int) -> list[list[Fraction]]:
    """Rows n = low..n_max of the triangle, from one `_columns` build."""
    rows: list[list[Fraction]] = [[] for _ in range(low, n_max + 1)]
    for k, (col, col_den) in enumerate(_columns(ctx, n_max)):
        for n in range(max(k, low), n_max + 1):
            rows[n - low].append(Fraction(col[n], col_den))
    return rows


def _triangle_row(ctx: StirlingContext, n: int, fill: bool = False) -> tuple[Fraction, ...]:
    """Row n of the generating-function triangle, kept in the context; a miss
    keeps row n, or with fill rows 0..n, of one build. Of equal rows that
    threads build at once, the first stored is the one all return."""
    if n not in ctx._rows:
        low = 0 if fill else n
        for i, row in enumerate(_gf_rows(ctx, n, low), low):
            ctx._rows.setdefault(i, tuple(row))
    return ctx._rows[n]
