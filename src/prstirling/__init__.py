"""Exact computation of probabilistic degenerate r-Stirling numbers and r-Bell polynomials.

Everything is arbitrary-precision rational arithmetic (`fractions.Fraction`)
except the truncated Dobinski-style series, which is the single float surface
and carries its own diagnostics.
"""

from .kernel import (
    Basis,
    Polynomial,
    binomial,
    convert_basis,
    degenerate_falling_coeffs,
    factorial,
    shift_argument,
    stirling1_signed,
    stirling2,
)
from .moments import DistributionError, MomentOracle
from .stirling import (
    StirlingContext,
    prob_r_stirling2,
    prob_r_stirling2_via_conv,
    prob_r_stirling2_via_shift,
    prob_stirling2,
    stirling_triangle,
)
from .bell import DobinskiResult, bell_coeffs, bell_dobinski, bell_eval, bell_via_convolution
from .distparse import ParseError, parse_dist, parse_rational
from .identities import IdentityId, VerificationReport, run_suite

__all__ = [
    "Basis",
    "Polynomial",
    "binomial",
    "convert_basis",
    "degenerate_falling_coeffs",
    "factorial",
    "shift_argument",
    "stirling1_signed",
    "stirling2",
    "DistributionError",
    "MomentOracle",
    "StirlingContext",
    "prob_stirling2",
    "prob_r_stirling2",
    "prob_r_stirling2_via_conv",
    "prob_r_stirling2_via_shift",
    "stirling_triangle",
    "DobinskiResult",
    "bell_coeffs",
    "bell_dobinski",
    "bell_eval",
    "bell_via_convolution",
    "ParseError",
    "parse_dist",
    "parse_rational",
    "IdentityId",
    "VerificationReport",
    "run_suite",
]

__version__ = "0.1.0"
