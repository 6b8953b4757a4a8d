"""The witness routes of the r-Stirling triangle and the r-Bell polynomials.

Theorem 2.1 (`prob_r_stirling2`), the double-sum route (`_via_conv`, Theorem
2.2), the shift route (`_via_shift`, Theorem 2.3) and the binomial
convolution of the Bell polynomials (`_via_convolution`, Theorem 2.6) are
what `verify` checks the production route against. They import
`StirlingContext` from `stirling` and nothing else of it, so none reaches the
generating-function triangle (`stirling._columns`): the module boundary is
the independence boundary. No `table`, `moments` or `bell` request loads this
module; `identities` and the library's public names do.

Each row form gives entries 0..k of row n as a `kernel.Row`, and its public
entry reads it through `_route_entry`, the one place indices are checked: an
entry past the row is 0 before any read. `_via_conv` and the Bell
convolution share one binomial convolution with the r = 0 rows
(`_convolution`), each with moments of its own. A Theorem 2.1 row depends on
(Y, lam, shift, n) only, so the oracle keeps it (`MomentOracle._differences`)
for every context on that lam.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from .kernel import RationalLike, Row, _at, _homogeneous, stirling1_signed
from .moments import MomentOracle
from .stirling import StirlingContext

_ZERO = Fraction(0)  # the lam key of the raw sum moments


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
    of the r = 0 rows' denominators. `_via_conv` and `_via_convolution` read it."""
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


def bell_via_convolution(ctx: StirlingContext, n: int, x: RationalLike) -> Fraction:
    """The r-Bell polynomial of degree n at rational x through the binomial
    convolution with the r = 0 polynomials,
    sum_{m=0}^{n} C(n,m) E[(S_r)_{m,lam}] Bel^Y_{n-m}(x)."""
    x = Fraction(x)
    return Fraction(*_at(_via_convolution(ctx, n), x.numerator, x.denominator))


def _via_convolution(ctx: StirlingContext, n: int) -> Row:
    """The monomial coefficients of `bell_via_convolution`: the moments
    E[(S_r)_{m,lam}] from the lam table, convolved with the r = 0 rows by
    `_convolution`, one integer per x^i over one denominator."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    return _convolution(ctx, n, n, ctx.oracle._sum_row(ctx.lam, ctx.r, n))
