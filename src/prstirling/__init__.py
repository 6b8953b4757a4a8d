"""Exact computation of probabilistic degenerate r-Stirling numbers and r-Bell polynomials.

Everything is arbitrary-precision rational arithmetic (`fractions.Fraction`)
except the truncated Dobinski-style series, which is the single float surface
and carries its own diagnostics.

Importing the package loads none of its modules: each public name is
imported from its defining module on first use (PEP 562) and kept here, so
a caller pays only for the modules it reaches.
"""

import importlib

# public name -> defining module
_EXPORTS = {
    "Basis": "kernel",
    "Polynomial": "kernel",
    "binomial": "kernel",
    "convert_basis": "kernel",
    "degenerate_falling_coeffs": "kernel",
    "factorial": "kernel",
    "shift_argument": "kernel",
    "stirling1_signed": "kernel",
    "stirling2": "kernel",
    "DistributionError": "moments",
    "MomentOracle": "moments",
    "StirlingContext": "stirling",
    "prob_stirling2": "stirling",
    "prob_r_stirling2": "stirling",
    "prob_r_stirling2_via_conv": "stirling",
    "prob_r_stirling2_via_shift": "stirling",
    "stirling_triangle": "stirling",
    "DobinskiResult": "bell",
    "bell_coeffs": "bell",
    "bell_dobinski": "bell",
    "bell_eval": "bell",
    "bell_via_convolution": "bell",
    "ParseError": "distparse",
    "parse_dist": "distparse",
    "parse_rational": "distparse",
    "IdentityId": "identities",
    "VerificationReport": "identities",
    "run_suite": "identities",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
