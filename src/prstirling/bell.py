"""Probabilistic degenerate r-Bell polynomials.

`bell_coeffs` returns row n of the generating-function triangle that
`stirling_triangle` builds (kept per context, see `stirling`) as a monomial
`kernel.Polynomial`, and evaluation calls it (Horner in ints, one Fraction
per value). The convolution form over the r = 0 Theorem 2.1 rows of the same
context (an integer sum, one Fraction per value) and the truncated
Dobinski-style series are witnesses that share no code with it above the
kernel. The series is the only floating-point
computation in the package and always reports its own convergence
diagnostics; each term divides an integer moment numerator by its denominator
D_n, which rounds once, exactly as converting the reduced Fraction would.
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction
from typing import NamedTuple, Optional

from .kernel import Basis, Polynomial, RationalLike, _over_lcm, binomial
from .stirling import StirlingContext, _row, _triangle_row

DEFAULT_MAX_TERMS = 10000
MAX_TERMS_ENV = "PRSTIRLING_MAX_TERMS"


def bell_coeffs(ctx: StirlingContext, n: int) -> Polynomial:
    """Exact coefficients (length n + 1) as a monomial polynomial: coefficient
    k is the (n+r, k+r) Stirling entry, and the constant term is the
    degenerate factorial moment E[(S_r)_{n,lam}]."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    return Polynomial(Basis.MONOMIAL, _triangle_row(ctx, n))


def bell_eval(ctx: StirlingContext, n: int, x: RationalLike) -> Fraction:
    """Exact value at rational x, by evaluating bell_coeffs."""
    return bell_coeffs(ctx, n)(x)


def bell_via_convolution(ctx: StirlingContext, n: int, x: RationalLike) -> Fraction:
    """Same value through the binomial convolution with the r = 0 polynomials:

    sum_{m=0}^{n} C(n,m) E[(S_r)_{m,lam}] Bel^Y_{n-m}(x)

    summed in integers: with x = p/q, the moments over the lcm F of their
    denominators and the coefficients of every Bel^Y_{n-m} used over theirs,
    S, the sum over F S q^n.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    x = Fraction(x)
    moments, moments_den = _over_lcm(
        [ctx.oracle.degenerate_factorial_moment(ctx.r, m, ctx.lam) for m in range(n + 1)]
    )
    rows = {m: _row(ctx, 0, n - m) for m, v in enumerate(moments) if v}
    s_den = math.lcm(*[s.denominator for row in rows.values() for s in row])
    # x^i q^n = p^i q^(n-i)
    powers = [x.numerator**i * x.denominator ** (n - i) for i in range(n + 1)]
    total = 0
    for m, row in rows.items():
        value = sum(s.numerator * (s_den // s.denominator) * w for s, w in zip(row, powers))
        total += binomial(n, m) * moments[m] * value
    return Fraction(total, moments_den * s_den * x.denominator**n)


class DobinskiResult(NamedTuple):
    """Outcome of the truncated series evaluation."""

    value: float
    terms_used: int
    last_term: float
    tolerance: float
    converged: bool


def bell_dobinski(
    ctx: StirlingContext,
    n: int,
    x: float,
    tolerance: float,
    max_terms: Optional[int] = None,
) -> DobinskiResult:
    """Float approximation via the series e^(-x) sum_k x^k E[(S_{k+r})_{n,lam}] / k!.

    Stopping rule: truncate at the smallest K > n * (1 + ceil(|lam|)) + r +
    ceil(x) such that the last three consecutive terms each have magnitude
    below tolerance * e^(-x) / 8. The factorial moments grow only polynomially
    in k for every supported preset, so terms decay super-geometrically once k
    dominates x; the three-term window guards against alternating near-zeros
    for negative lam, and the lam factor in the minimum index skips the
    leading window where the degenerate product still has roots (at
    0, lam, ..., (n-1) lam) and terms are spuriously tiny. Accumulation is
    compensated (Kahan); each exact moment is converted to float
    independently. The weights are x^k / k! by running product and the sum is
    scaled by e^(-x) at the end, except where e^(-x) is not a normal float
    (x past about 708) or that partial sum leaves float range: there the
    series runs with e^(-x) folded into each weight in log space,
    exp(k ln x - lgamma(k+1) - x), and each term compared with tolerance / 8.
    It stops unconverged, with a NaN value, only if even that partial sum
    leaves float range.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if not (math.isfinite(x) and x >= 0):
        raise ValueError(f"series evaluation requires a finite x >= 0, got {x}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")
    if max_terms is None:
        raw = os.environ.get(MAX_TERMS_ENV, str(DEFAULT_MAX_TERMS))
        try:
            max_terms = int(raw)
        except ValueError:
            raise ValueError(f"{MAX_TERMS_ENV} must be an integer, got {raw!r}") from None
    if max_terms < 1:
        raise ValueError(f"max_terms ({MAX_TERMS_ENV}) must be >= 1, got {max_terms}")

    plain = math.exp(-x) >= sys.float_info.min
    result = _series(ctx, n, x, tolerance, max_terms, folded=False) if plain else None
    if result is None:
        result = _series(ctx, n, x, tolerance, max_terms, folded=True)
    return result


def _series(
    ctx: StirlingContext, n: int, x: float, tolerance: float, max_terms: int, folded: bool
) -> Optional[DobinskiResult]:
    """The partial sums of `bell_dobinski`, with e^(-x) folded into each
    weight or applied to the sum; None if the unfolded sum leaves float range."""
    scale = 1.0 if folded else math.exp(-x)
    log_x = math.log(x) if folded else 0.0
    threshold = tolerance * scale / 8.0
    min_k = n * (1 + math.ceil(abs(ctx.lam))) + ctx.r + math.ceil(x)

    total = 0.0
    comp = 0.0  # Kahan compensation
    weight = 1.0  # x^k / k!, or e^(-x) x^k / k! when folded
    small_streak = 0
    term = 0.0
    for k in range(max_terms):
        if folded:
            weight = math.exp(k * log_x - math.lgamma(k + 1) - x)
        (moment,), den = ctx.oracle._numerators(ctx.lam, k + ctx.r, k + ctx.r, n)
        term = weight * (moment / den)  # int / int rounds once, as float(Fraction) does
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if not math.isfinite(total):  # the partial sum left float range
            return DobinskiResult(math.nan, k + 1, term * scale, tolerance, False) if folded else None
        if abs(term) < threshold:
            small_streak += 1
        else:
            small_streak = 0
        if k > min_k and small_streak >= 3:
            return DobinskiResult(total * scale, k + 1, term * scale, tolerance, True)
        weight *= x / (k + 1)
    return DobinskiResult(math.nan, max_terms, term * scale, tolerance, False)
