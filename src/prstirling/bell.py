"""Probabilistic degenerate r-Bell polynomials.

`bell_coeffs` returns row n of the generating-function triangle (a
`kernel.Row` kept per context, see `stirling`) as a monomial
`kernel.Polynomial`, and `bell_eval` evaluates that row by Horner in ints,
one Fraction per value. The convolution form over the r = 0 Theorem 2.1 rows
(`_via_convolution`, a coefficient row by `stirling._convolution`) and the
truncated Dobinski-style series are witnesses that share no code with it
above the kernel. `_dobinski` reads row n's inputs once for any number of
points x. The series is the only float computation in the package and
reports its own convergence diagnostics. Its moments E[(S_{k+r})_{n,lam}] are
one polynomial in k + r, read once from the r = 0 Theorem 2.1 row n, so the
iid-sum table stays at rows 0..n whatever x is.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .kernel import Basis, Polynomial, RationalLike, Row, _at, _convert, _homogeneous, _polynomial
from .stirling import StirlingContext, _convolution, _row, _triangle_row

MAX_TERMS = 10000  # the series stops here, unconverged, whatever the stopping rule


def bell_coeffs(ctx: StirlingContext, n: int) -> Polynomial:
    """Exact coefficients (length n + 1) as a monomial polynomial: coefficient
    k is the (n+r, k+r) Stirling entry, and the constant term is the
    degenerate factorial moment E[(S_r)_{n,lam}]."""
    return _polynomial(Basis.MONOMIAL, _triangle_row(ctx, n))


def bell_eval(ctx: StirlingContext, n: int, x: RationalLike) -> Fraction:
    """Exact value at rational x, by evaluating the coefficients."""
    x = Fraction(x)
    return Fraction(*_at(_triangle_row(ctx, n), x.numerator, x.denominator))


def bell_via_convolution(ctx: StirlingContext, n: int, x: RationalLike) -> Fraction:
    """Same value through the binomial convolution with the r = 0 polynomials,
    sum_{m=0}^{n} C(n,m) E[(S_r)_{m,lam}] Bel^Y_{n-m}(x)."""
    x = Fraction(x)
    return Fraction(*_at(_via_convolution(ctx, n), x.numerator, x.denominator))


def _via_convolution(ctx: StirlingContext, n: int) -> Row:
    """The monomial coefficients of `bell_via_convolution`: the moments
    E[(S_r)_{m,lam}] from the lam table, convolved with the r = 0 rows by
    `stirling._convolution`, one integer per x^i over one denominator."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    return _convolution(ctx, n, n, ctx.oracle._sum_row(ctx.lam, ctx.r, n))


class DobinskiResult(NamedTuple):
    """Outcome of the truncated series evaluation."""

    value: float
    terms_used: int
    last_term: float
    tolerance: float
    converged: bool


def bell_dobinski(ctx: StirlingContext, n: int, x: float, tolerance: float) -> DobinskiResult:
    """Float approximation via the series e^(-x) sum_k x^k E[(S_{k+r})_{n,lam}] / k!.

    Stopping rule: stop at the smallest K > n * (1 + ceil(|lam|)) + r +
    ceil(x) at which the last three terms are each below tolerance * e^(-x) / 8.
    The moments grow only polynomially in k for every preset, so terms decay
    super-geometrically once k dominates x; the three-term window guards
    against alternating near-zeros for negative lam, and the lam factor in the
    minimum index skips the window where the degenerate product still has
    roots (0, lam, ..., (n-1) lam). The sum is compensated (Kahan), each
    moment a float on its own or, past float range, exact, its term then the
    exact product rounded once. The weights x^k / k! run by product
    and e^(-x) scales the sum at the end, except where e^(-x) or the threshold
    is not a normal float (x past about 708, or a tiny tolerance) or that sum
    leaves float range: there e^(-x) is folded into each weight in log space,
    exp(k ln x - lgamma(k+1) - x), and terms are compared with tolerance / 8.
    At x = 0 every term past the first is 0, so the plain sum runs at any
    tolerance and converges to its first term, E[(S_r)_{n,lam}]. The result
    is unconverged, with a NaN value, if even that sum leaves float range or
    MAX_TERMS terms do not meet the rule.
    """
    return _dobinski(ctx, n, [x], tolerance)[0]


def _dobinski(ctx: StirlingContext, n: int, xs: Sequence[float], tolerance: float) -> list[DobinskiResult]:
    """`bell_dobinski` at each x, all reading one moment polynomial."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    for x in xs:
        if not (math.isfinite(x) and x >= 0):
            raise ValueError(f"series evaluation requires a finite x >= 0, got {x}")
    if not (math.isfinite(tolerance) and tolerance >= sys.float_info.min):
        raise ValueError(f"tolerance must be finite and a normal float > 0, got {tolerance}")

    # E[(S_j)_{n,lam}] = sum_i (j)_i S^Y(n,i), as (x)_{n,lam} is of binomial
    # type: a polynomial in j whose falling-basis coefficients are r = 0 row n
    nums, den = _convert(_row(ctx, 0, n), Basis.MONOMIAL)

    moments: list[float] = []  # shared by every x and both series

    def moment(k: int) -> float:
        """E[(S_{k+r})_{n,lam}]: int / int rounds once, as float(Fraction) does."""
        if k == len(moments):
            num = _homogeneous(nums, k + ctx.r, 1)
            try:
                moments.append(num / den)
            except OverflowError:
                moments.append(Fraction(num, den))
        return moments[k]

    base = n * (1 - (-abs(ctx.lam.numerator) // ctx.lam.denominator)) + ctx.r  # 1 + ceil(|lam|)
    results = []
    for x in xs:
        args = (x, tolerance, base + math.ceil(x), moment)
        results.append(_series(*args, folded=False) or _series(*args, folded=True))
    return results


def _series(
    x: float, tolerance: float, min_k: int, moment: Callable[[int], float], folded: bool
) -> Optional[DobinskiResult]:
    """The partial sums of `bell_dobinski`, e^(-x) folded into each weight or
    applied to the sum; None if the unfolded sum cannot run. moment(k) is
    E[(S_{k+r})_{n,lam}], a float or (past float range) a Fraction."""
    scale = 1.0 if folded else math.exp(-x)
    log_x = math.log(x) if folded else 0.0
    threshold = tolerance * scale / 8.0
    if not folded and x and min(scale, threshold) < sys.float_info.min:  # at x = 0 each later term is 0
        return None

    total = 0.0
    comp = 0.0  # Kahan compensation
    weight = 1.0  # x^k / k!, or e^(-x) x^k / k! when folded
    small_streak = 0
    term = 0.0
    for k in range(MAX_TERMS):
        if folded:
            weight = math.exp(k * log_x - math.lgamma(k + 1) - x)
        m = moment(k)
        term = weight * m if type(m) is float else float(Fraction(weight) * m)
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
    return DobinskiResult(math.nan, MAX_TERMS, term * scale, tolerance, False)
