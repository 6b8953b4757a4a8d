"""Probabilistic degenerate r-Bell polynomials.

Exact coefficients are row n of the generating-function triangle that
`stirling_triangle` builds (kept per context, see `stirling`), and
evaluation is that row as a monomial `kernel.Polynomial`. The convolution
form over the Theorem 2.1 entries and the truncated Dobinski-style series
are witnesses that share no code with it above the kernel. The series is the
only floating-point computation in the package and always reports its own
convergence diagnostics.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .kernel import Basis, Polynomial, RationalLike, binomial
from .stirling import StirlingContext, _triangle_row, prob_r_stirling2

DEFAULT_MAX_TERMS = 10000
MAX_TERMS_ENV = "PRSTIRLING_MAX_TERMS"


@dataclass(frozen=True)
class BellPolynomial:
    """Coefficient vector of the degree-n Bell polynomial for one context.

    coefficients[k] is the (n+r, k+r) Stirling entry; the constant term is the
    degenerate factorial moment E[(S_r)_{n,lam}].
    """

    context: StirlingContext
    n: int
    coefficients: tuple[Fraction, ...]

    def __call__(self, x: RationalLike) -> Fraction:
        return Polynomial(Basis.MONOMIAL, self.coefficients)(x)


def bell_coeffs(ctx: StirlingContext, n: int) -> BellPolynomial:
    """Exact coefficient vector (length n + 1)."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    return BellPolynomial(ctx, n, _triangle_row(ctx, n))


def bell_eval(ctx: StirlingContext, n: int, x: RationalLike) -> Fraction:
    """Exact value at rational x, by evaluating bell_coeffs."""
    return bell_coeffs(ctx, n)(x)


def bell_via_convolution(ctx: StirlingContext, n: int, x: RationalLike) -> Fraction:
    """Same value through the binomial convolution with the r = 0 polynomials:

    sum_{m=0}^{n} C(n,m) E[(S_r)_{m,lam}] Bel^Y_{n-m}(x)
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    total = Fraction(0)
    for m in range(n + 1):
        fm = ctx.oracle.degenerate_factorial_moment(ctx.r, m, ctx.lam)
        if fm == 0:
            continue
        row = tuple(prob_r_stirling2(ctx._r0, n - m, k) for k in range(n - m + 1))
        total += binomial(n, m) * fm * Polynomial(Basis.MONOMIAL, row)(x)
    return total


@dataclass(frozen=True)
class DobinskiResult:
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
    independently. The series stops unconverged, with a NaN value, as soon as
    the partial sum leaves float range, and before the first term when
    e^(-x) underflows to 0.
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

    scale = math.exp(-x)
    if scale == 0:  # e^(-x) underflows, so no term can reach the threshold
        return DobinskiResult(math.nan, 0, math.nan, tolerance, False)
    threshold = tolerance * scale / 8.0
    min_k = n * (1 + math.ceil(abs(ctx.lam))) + ctx.r + math.ceil(x)

    total = 0.0
    comp = 0.0  # Kahan compensation
    weight = 1.0  # x^k / k!
    small_streak = 0
    term = 0.0
    k = 0
    while k < max_terms:
        term = weight * float(ctx.oracle.degenerate_factorial_moment(k + ctx.r, n, ctx.lam))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if not math.isfinite(total):  # the partial sum left float range
            return DobinskiResult(math.nan, k + 1, term * scale, tolerance, False)
        if abs(term) < threshold:
            small_streak += 1
        else:
            small_streak = 0
        if k > min_k and small_streak >= 3:
            return DobinskiResult(total * scale, k + 1, term * scale, tolerance, True)
        k += 1
        weight *= x / k
    return DobinskiResult(math.nan, max_terms, term * scale, tolerance, False)
