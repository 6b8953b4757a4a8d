"""Probabilistic degenerate (r-)Stirling numbers of the second kind.

`prob_r_stirling2` is the production formula (single alternating sum over
degenerate factorial moments). The `_via_conv` and `_via_shift` variants are
independent routes used for cross-checking; their exact agreement is the core
correctness evidence for the whole library.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .kernel import RationalLike, binomial, factorial, stirling1_signed
from .moments import MomentOracle


@dataclass(frozen=True)
class StirlingContext:
    """The parameter triple (Y, lam, r) every triangle is indexed by."""

    oracle: MomentOracle
    lam: Fraction
    r: int

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        if self.r < 0 or not isinstance(self.r, int):
            raise ValueError(f"shift parameter r must be a nonnegative integer, got {self.r}")


@lru_cache(maxsize=None)
def _prob_r_stirling2(oracle: MomentOracle, lam: Fraction, r: int, n: int, k: int) -> Fraction:
    total = Fraction(0)
    for j in range(k + 1):
        sign = -1 if (k - j) % 2 else 1
        total += sign * binomial(k, j) * oracle.degenerate_factorial_moment(j + r, n, lam)
    return total / factorial(k)


def prob_stirling2(oracle: MomentOracle, lam: RationalLike, n: int, k: int) -> Fraction:
    """Probabilistic degenerate Stirling number of the second kind (r = 0).

    (1/k!) sum_j C(k,j) (-1)^(k-j) E[(S_j)_{n,lam}]. Zero for k > n.
    """
    if n < 0 or k < 0:
        raise ValueError(f"indices must be >= 0, got ({n}, {k})")
    if k > n:
        return Fraction(0)
    return _prob_r_stirling2(oracle, Fraction(lam), 0, n, k)


def prob_r_stirling2(ctx: StirlingContext, n: int, k: int) -> Fraction:
    """The (n+r, k+r) entry of the probabilistic degenerate r-Stirling triangle.

    (1/k!) sum_j C(k,j) (-1)^(k-j) E[(S_{j+r})_{n,lam}]. Zero for k > n.
    """
    if n < 0 or k < 0:
        raise ValueError(f"indices must be >= 0, got ({n}, {k})")
    if k > n:
        return Fraction(0)
    return _prob_r_stirling2(ctx.oracle, ctx.lam, ctx.r, n, k)


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
        s2y = prob_stirling2(ctx.oracle, lam, l, k)
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
            * prob_stirling2(ctx.oracle, ctx.lam, n, m + k)
        )
    return total


def stirling_triangle(ctx: StirlingContext, n_max: int) -> list[list[Fraction]]:
    """Rows n = 0..n_max of the triangle, row n having entries k = 0..n."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    return [[prob_r_stirling2(ctx, n, k) for k in range(n + 1)] for n in range(n_max + 1)]
