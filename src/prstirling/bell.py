"""Probabilistic degenerate r-Bell polynomials.

`bell_coeffs` returns row n of the generating-function triangle (kept per
context, see `stirling`) as a monomial `kernel.Polynomial`, and evaluation
calls it (Horner in ints, one Fraction per value). The convolution form over
the r = 0 Theorem 2.1 rows and the truncated Dobinski-style series are
witnesses that share no code with it above the kernel. Each reads row n's
inputs once for any number of points x (`_via_convolution`, `_dobinski`);
the public functions are the one-point case. The series is the only float
computation in the package and reports its own convergence diagnostics; each
term divides an integer moment numerator by its denominator D_n, which rounds
once, exactly as converting the reduced Fraction would.
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .kernel import Basis, Polynomial, RationalLike, _homogeneous, _over_lcm, binomial
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
    """Same value through the binomial convolution with the r = 0 polynomials,
    sum_{m=0}^{n} C(n,m) E[(S_r)_{m,lam}] Bel^Y_{n-m}(x)."""
    return _via_convolution(ctx, n, [x])[0]


def _via_convolution(ctx: StirlingContext, n: int, xs: Sequence[RationalLike]) -> list[Fraction]:
    """`bell_via_convolution` at each x, summed in integers: the moments over
    the lcm F of their denominators and the coefficients of every Bel^Y_{n-m}
    used over theirs, S, make one integer c[i] per power x^i, so that with
    x = p/q the value is sum_i c[i] p^i q^(n-i) over F S q^n."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    moments, moments_den = _over_lcm(
        [ctx.oracle.degenerate_factorial_moment(ctx.r, m, ctx.lam) for m in range(n + 1)]
    )
    rows = {m: _row(ctx, 0, n - m) for m, v in enumerate(moments) if v}
    s_den = math.lcm(*[s.denominator for row in rows.values() for s in row])
    coeffs = [0] * (n + 1)
    for m, row in rows.items():
        weight = binomial(n, m) * moments[m]
        for i, s in enumerate(row):
            coeffs[i] += weight * s.numerator * (s_den // s.denominator)
    return [
        Fraction(_homogeneous(coeffs, x.numerator, x.denominator), moments_den * s_den * x.denominator**n)
        for x in map(Fraction, xs)
    ]


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

    Stopping rule: stop at the smallest K > n * (1 + ceil(|lam|)) + r +
    ceil(x) at which the last three terms are each below tolerance * e^(-x) / 8.
    The moments grow only polynomially in k for every preset, so terms decay
    super-geometrically once k dominates x; the three-term window guards
    against alternating near-zeros for negative lam, and the lam factor in the
    minimum index skips the window where the degenerate product still has
    roots (0, lam, ..., (n-1) lam). The sum is compensated (Kahan), each
    moment converted to float on its own. The weights x^k / k! run by product
    and e^(-x) scales the sum at the end, except where e^(-x) or the threshold
    is not a normal float (x past about 708, or a tiny tolerance) or that sum
    leaves float range: there e^(-x) is folded into each weight in log space,
    exp(k ln x - lgamma(k+1) - x), and terms are compared with tolerance / 8.
    The result is unconverged, with a NaN value, only if even that sum leaves
    float range.
    """
    return _dobinski(ctx, n, [x], tolerance, max_terms)[0]


def _dobinski(
    ctx: StirlingContext, n: int, xs: Sequence[float], tolerance: float, max_terms: Optional[int] = None
) -> list[DobinskiResult]:
    """`bell_dobinski` at each x, all reading one list of float moments."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    for x in xs:
        if not (math.isfinite(x) and x >= 0):
            raise ValueError(f"series evaluation requires a finite x >= 0, got {x}")
    if not (math.isfinite(tolerance) and tolerance >= sys.float_info.min):
        raise ValueError(f"tolerance must be finite and a normal float > 0, got {tolerance}")
    if max_terms is None:
        raw = os.environ.get(MAX_TERMS_ENV, str(DEFAULT_MAX_TERMS))
        try:
            max_terms = int(raw)
        except ValueError:
            raise ValueError(f"{MAX_TERMS_ENV} must be an integer, got {raw!r}") from None
    if max_terms < 1:
        raise ValueError(f"max_terms ({MAX_TERMS_ENV}) must be >= 1, got {max_terms}")

    # no series stops before term min_k + 1: read those terms at once
    base = n * (1 + math.ceil(abs(ctx.lam))) + ctx.r
    last = min(base + math.ceil(max(xs)) + 1, max_terms - 1)
    nums, den = ctx.oracle._numerators(ctx.lam, ctx.r, last + ctx.r, n)
    moments = [v / den for v in nums]  # int / int rounds once, as float(Fraction) does
    results = []
    for x in xs:
        args = (ctx, n, x, tolerance, max_terms, base + math.ceil(x), moments)
        results.append(_series(*args, folded=False) or _series(*args, folded=True))
    return results


def _series(
    ctx: StirlingContext, n: int, x: float, tolerance: float, max_terms: int, min_k: int, moments: list, folded: bool
) -> Optional[DobinskiResult]:
    """The partial sums of `bell_dobinski`, e^(-x) folded into each weight or
    applied to the sum; None if the unfolded sum cannot run. moments[k] is
    E[(S_{k+r})_{n,lam}] as a float, extended a term at a time."""
    scale = 1.0 if folded else math.exp(-x)
    log_x = math.log(x) if folded else 0.0
    threshold = tolerance * scale / 8.0
    if not folded and min(scale, threshold) < sys.float_info.min:
        return None

    total = 0.0
    comp = 0.0  # Kahan compensation
    weight = 1.0  # x^k / k!, or e^(-x) x^k / k! when folded
    small_streak = 0
    term = 0.0
    for k in range(max_terms):
        if folded:
            weight = math.exp(k * log_x - math.lgamma(k + 1) - x)
        if k == len(moments):
            (moment,), den = ctx.oracle._numerators(ctx.lam, k + ctx.r, k + ctx.r, n)
            moments.append(moment / den)
        term = weight * moments[k]
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
