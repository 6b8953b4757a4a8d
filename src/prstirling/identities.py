"""Mechanical verification of the library's defining identities.

Each checker computes both sides of one identity through independent code
paths (disjoint above the exact kernel), so agreement is evidence rather than
tautology. The production route of `table` and `bell` (the generating-function
triangle) enters through `bell_coeffs` and `bell_eval`: T2_5 checks it against
Theorem 2.1, T2_6 against the binomial-convolution form and T2_7 against the
Dobinski series. Every other identity checks witnesses against each other.
Failures are data: reports carry both sides and the full parameter point as
witnesses.

Identities of one shape share one checker built on the kernel's basis
changes. T2_4 and T2_9_corrected are one polynomial identity summed in two
orders, so both compare the shifted triangle row in the falling basis with
the r = 0 row's polynomial at x + r (`_shifted`; the paper form of T2_9 gives
the printed double sum instead). ReductionY1 and ClassicalLambda0 both take
Y = 1 and compare the row with the falling-basis coefficients of a power
(degenerate, then ordinary) at x + r (`_expansion`).

A suite run leaves behind only the kernel Stirling triangles (process-global,
grown to the largest n requested): its oracles own their moment tables and its
contexts their triangle rows and Theorem 2.1 entries, so those die with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .bell import bell_coeffs, bell_dobinski, bell_eval, bell_via_convolution
from .kernel import (
    Basis,
    Polynomial,
    RationalLike,
    binomial,
    convert_basis,
    degenerate_falling_coeffs,
    shift_argument,
    stirling1_signed,
)
from .distparse import parse_dist, parse_rational
from .moments import MomentOracle
from .stirling import (
    StirlingContext,
    prob_r_stirling2,
    prob_r_stirling2_via_conv,
    prob_r_stirling2_via_shift,
)


class IdentityId(str, Enum):
    T2_1_vs_T2_2 = "T2_1_vs_T2_2"
    T2_1_vs_T2_3 = "T2_1_vs_T2_3"
    T2_4 = "T2_4"
    T2_5 = "T2_5"
    T2_6 = "T2_6"
    T2_7 = "T2_7"
    T2_8 = "T2_8"
    T2_9_corrected = "T2_9_corrected"
    T2_9_paper_form = "T2_9_paper_form"
    ReductionY1 = "ReductionY1"
    ClassicalLambda0 = "ClassicalLambda0"


# The printed form of the last finite-sum identity disagrees with its own
# derivation (an index slip); it is kept as an opt-in check so the
# discrepancy stays documented instead of silently repaired.
OPT_IN_IDENTITIES = frozenset({IdentityId.T2_9_paper_form})


@dataclass(frozen=True)
class VerificationReport:
    identity: IdentityId
    point: tuple[tuple[str, str], ...]
    passed: bool
    lhs: str
    rhs: str
    tolerance: Optional[float] = None

    def to_dict(self) -> dict:
        d = {
            "identity": self.identity.value,
            "point": dict(self.point),
            "passed": self.passed,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }
        if self.tolerance is not None:
            d["tolerance"] = self.tolerance
        return d


def _vec(coeffs: Sequence[Fraction]) -> str:
    return "[" + ", ".join(str(c) for c in coeffs) + "]"


def _point(ctx: StirlingContext, **extra) -> tuple[tuple[str, str], ...]:
    items = [("dist", ctx.oracle.describe()), ("lambda", str(ctx.lam)), ("r", str(ctx.r))]
    return tuple(items + [(k, str(v)) for k, v in extra.items()])


def _exact_report(identity, point, lhs, rhs, vector=False) -> VerificationReport:
    if vector:
        return VerificationReport(identity, point, list(lhs) == list(rhs), _vec(lhs), _vec(rhs))
    return VerificationReport(identity, point, lhs == rhs, str(lhs), str(rhs))


def _row(ctx: StirlingContext, n: int) -> list[Fraction]:
    """Row n of the Theorem 2.1 triangle."""
    return [prob_r_stirling2(ctx, n, k) for k in range(n + 1)]


def _falling(row: Sequence[Fraction]) -> Polynomial:
    """sum_k row[k] (x)_k in the monomial basis."""
    return convert_basis(Polynomial.make(Basis.FALLING_FACTORIAL, row), Basis.MONOMIAL)


def _shifted(identity: IdentityId, ctx: StirlingContext, n: int, y: Polynomial) -> VerificationReport:
    """sum_k S^(r,Y)(n+r,k+r) (x)_k against y(x + r), as monomial coefficient vectors."""
    lhs = _falling(_row(ctx, n))
    rhs = shift_argument(y, ctx.r)
    return _exact_report(identity, _point(ctx, n=n), lhs.coefficients, rhs.coefficients, vector=True)


def _expansion(
    identity: IdentityId, lam: RationalLike, r: int, n: int, power: Polynomial
) -> VerificationReport:
    """For Y fixed at 1, the triangle row against the falling-factorial
    coefficients of power(x + r), computed purely in the exact kernel."""
    ctx = StirlingContext(MomentOracle.point(1), lam, r)
    expansion = convert_basis(shift_argument(power, r), Basis.FALLING_FACTORIAL).coefficients
    rhs = list(expansion) + [Fraction(0)] * (n + 1 - len(expansion))
    return _exact_report(identity, _point(ctx, n=n), _row(ctx, n), rhs, vector=True)


# ---- individual checkers ---------------------------------------------------


def verify_formula_agreement(ctx: StirlingContext, n: int, k: int, which: IdentityId) -> VerificationReport:
    """Production formula vs. one of the two independent routes."""
    lhs = prob_r_stirling2(ctx, n, k)
    if which is IdentityId.T2_1_vs_T2_2:
        rhs = prob_r_stirling2_via_conv(ctx, n, k)
    elif which is IdentityId.T2_1_vs_T2_3:
        rhs = prob_r_stirling2_via_shift(ctx, n, k)
    else:
        raise ValueError(f"not a formula-agreement identity: {which}")
    return _exact_report(which, _point(ctx, n=n, k=k), lhs, rhs)


def verify_thm_2_4(ctx: StirlingContext, n: int) -> VerificationReport:
    """sum_k S^(r,Y)(n+r,k+r) (x)_k == sum_k S^Y(n,k) (x+r)_k, as monomial
    coefficient vectors."""
    return _shifted(IdentityId.T2_4, ctx, n, _falling(_row(ctx._r0, n)))


def verify_thm_2_5(ctx: StirlingContext, n: int) -> VerificationReport:
    """Bell coefficient vector (the generating-function triangle row) equals
    the Theorem 2.1 row entrywise."""
    lhs = bell_coeffs(ctx, n).coefficients
    return _exact_report(IdentityId.T2_5, _point(ctx, n=n), lhs, _row(ctx, n), vector=True)


def verify_thm_2_6(ctx: StirlingContext, n: int, x: RationalLike) -> VerificationReport:
    """Direct evaluation vs. the binomial-convolution form."""
    lhs = bell_eval(ctx, n, x)
    rhs = bell_via_convolution(ctx, n, x)
    return _exact_report(IdentityId.T2_6, _point(ctx, n=n, x=Fraction(x)), lhs, rhs)


def verify_thm_2_7(ctx: StirlingContext, n: int, x: float, tolerance: float) -> VerificationReport:
    """Truncated series vs. exact evaluation, within relative tolerance."""
    exact = float(bell_eval(ctx, n, Fraction(x)))
    result = bell_dobinski(ctx, n, x, tolerance)
    if not result.converged:
        passed = False
    elif exact != 0:
        passed = abs(result.value - exact) <= tolerance * abs(exact)
    else:
        passed = abs(result.value) <= tolerance
    return VerificationReport(
        IdentityId.T2_7,
        _point(ctx, n=n, x=x, terms=result.terms_used),
        passed,
        repr(result.value),
        repr(exact),
        tolerance=tolerance,
    )


def verify_thm_2_8(ctx: StirlingContext, n: int, m: int, k: int) -> VerificationReport:
    """C(m+k,m) S^(r,Y)(n+r,m+k+r) == sum_{l=m}^{n-k} C(n,l) S^(r,Y)(l+r,m+r) S^Y(n-l,k)."""
    if n < m + k:
        raise ValueError(f"requires n >= m + k, got n={n}, m={m}, k={k}")
    lhs = binomial(m + k, m) * prob_r_stirling2(ctx, n, m + k)
    rhs = Fraction(0)
    for l in range(m, n - k + 1):
        rhs += (
            binomial(n, l)
            * prob_r_stirling2_via_shift(ctx, l, m)
            * prob_r_stirling2(ctx._r0, n - l, k)
        )
    return _exact_report(IdentityId.T2_8, _point(ctx, n=n, m=m, k=k), lhs, rhs)


def verify_thm_2_9(ctx: StirlingContext, n: int, form: str = "corrected") -> VerificationReport:
    """Falling-factorial expansion of the r-shifted triangle row vs. the
    double sum over first-kind numbers and the r = 0 triangle.

    form='corrected' pairs s1(j,i) with the column-j entry (as the derivation
    does), which is Theorem 2.4's right-hand side summed in the other order;
    form='paper' uses the column-i entry as printed.
    """
    if form not in ("corrected", "paper"):
        raise ValueError(f"form must be 'corrected' or 'paper', got {form!r}")
    row0 = _row(ctx._r0, n)
    if form == "corrected":
        return _shifted(IdentityId.T2_9_corrected, ctx, n, _falling(row0))
    printed = [s2 * sum(stirling1_signed(j, i) for j in range(i, n + 1)) for i, s2 in enumerate(row0)]
    return _shifted(IdentityId.T2_9_paper_form, ctx, n, Polynomial.make(Basis.MONOMIAL, printed))


def verify_reduction_point_one(lam: RationalLike, r: int, n: int) -> VerificationReport:
    """For Y fixed at 1, the triangle row must match the coefficients of the
    r-shifted degenerate falling factorial in the falling-factorial basis."""
    return _expansion(IdentityId.ReductionY1, lam, r, n, degenerate_falling_coeffs(n, lam))


def verify_classical_limit(r: int, n: int) -> VerificationReport:
    """lam = 0, Y = 1: the triangle row must match the falling-factorial
    expansion of the plain shifted power (x+r)^n."""
    return _expansion(IdentityId.ClassicalLambda0, 0, r, n, Polynomial.make(Basis.MONOMIAL, [0] * n + [1]))


# ---- suite -----------------------------------------------------------------


@dataclass(frozen=True)
class SuiteGrid:
    """Deterministic parameter grid the suite runs over."""

    dists: tuple[str, ...] = ("point(1)", "bernoulli(1/2)", "uniform{0,1,2}", "poisson(1)")
    lambdas: tuple[str, ...] = ("-1/2", "0", "1/3", "1", "2")
    rs: tuple[int, ...] = (0, 1, 2, 3)
    max_n: int = 6
    xs: tuple[str, ...] = ("-1", "0", "1/2", "1", "2")
    dobinski_xs: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    dobinski_tol: float = 1e-9


def default_grid(max_n: int = 6) -> SuiteGrid:
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    return SuiteGrid(max_n=max_n)


def run_suite(
    grid: SuiteGrid,
    identities: Iterable[IdentityId],
) -> tuple[list[VerificationReport], dict[str, dict[str, int]]]:
    """Run the selected identity checks over the grid.

    Returns the report list in canonical order (identity, then nested
    parameter order) plus per-identity pass/fail/total counts. Individual
    failures are data, not errors.
    """
    wanted = sorted(set(identities), key=lambda i: i.value)
    lambdas = [parse_rational(s) for s in grid.lambdas]
    xs = [parse_rational(s) for s in grid.xs]
    ns = range(grid.max_n + 1)
    oracles = [parse_dist(d) for d in grid.dists]
    contexts = [StirlingContext(o, lam, r) for o in oracles for lam in lambdas for r in grid.rs]
    rows = [(ctx, n) for ctx in contexts for n in ns]

    # identity -> (checker, argument tuples in report order); generators, so
    # only the selected identities build their points
    suite = {
        IdentityId.ClassicalLambda0: (verify_classical_limit, ((r, n) for r in grid.rs for n in ns)),
        IdentityId.ReductionY1: (
            verify_reduction_point_one,
            ((lam, r, n) for lam in lambdas for r in grid.rs for n in ns),
        ),
        IdentityId.T2_1_vs_T2_2: (
            verify_formula_agreement,
            ((c, n, k, IdentityId.T2_1_vs_T2_2) for c, n in rows for k in range(n + 1)),
        ),
        IdentityId.T2_1_vs_T2_3: (
            verify_formula_agreement,
            ((c, n, k, IdentityId.T2_1_vs_T2_3) for c, n in rows for k in range(n + 1)),
        ),
        IdentityId.T2_4: (verify_thm_2_4, rows),
        IdentityId.T2_5: (verify_thm_2_5, rows),
        IdentityId.T2_6: (verify_thm_2_6, ((c, n, x) for c, n in rows for x in xs)),
        IdentityId.T2_7: (
            verify_thm_2_7,
            ((c, n, x, grid.dobinski_tol) for c, n in rows for x in grid.dobinski_xs),
        ),
        IdentityId.T2_8: (
            verify_thm_2_8,
            ((c, n, m, k) for c, n in rows for m in range(n + 1) for k in range(n - m + 1)),
        ),
        IdentityId.T2_9_corrected: (verify_thm_2_9, ((c, n, "corrected") for c, n in rows)),
        IdentityId.T2_9_paper_form: (verify_thm_2_9, ((c, n, "paper") for c, n in rows)),
    }
    reports: list[VerificationReport] = []
    for identity in wanted:
        checker, points = suite[identity]
        reports.extend(checker(*point) for point in points)

    summary: dict[str, dict[str, int]] = {}
    for rep in reports:
        s = summary.setdefault(rep.identity.value, {"pass": 0, "fail": 0, "total": 0})
        s["pass" if rep.passed else "fail"] += 1
        s["total"] += 1
    return reports, summary
