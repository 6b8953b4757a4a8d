"""Mechanical verification of the library's defining identities.

Each checker computes both sides of one identity through independent code
paths (disjoint above the exact kernel), so agreement is evidence rather than
tautology. The production route of `table` and `bell` (the generating-function
triangle) enters through `bell_coeffs`: T2_5 checks it against Theorem 2.1,
T2_6 against the binomial-convolution form and T2_7 against the Dobinski
series. Every other identity checks witnesses against each other. Failures
are data: reports carry both sides and the full parameter point.

T2_1_vs_T2_2/3, T2_6, T2_7 and T2_8 hold for one row n at many points;
`run_suite` runs each through a row checker (`_agreement`, `_thm_2_6/7/8`)
that reads the row's shared inputs once, so a point costs only its own
work, and keeps each context's generating-function rows from one build. The
public `verify_*` functions are the one-point case.

Identities of one shape share one checker: T2_4 and T2_9_corrected are one
polynomial identity summed in two orders (`_shifted`; the paper form of T2_9
gives the printed double sum instead), and ReductionY1 and ClassicalLambda0
take Y = 1 and compare the row with the falling-basis coefficients of a
power at x + r (`_expansion`). A suite run leaves behind only the kernel
Stirling triangles.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .bell import _dobinski, _via_convolution, bell_coeffs
from .kernel import (
    Basis,
    Polynomial,
    RationalLike,
    _over_lcm,
    binomial,
    convert_basis,
    degenerate_falling_coeffs,
    shift_argument,
    stirling1_signed,
)
from .distparse import parse_dist, parse_rational
from .moments import MomentOracle
from .stirling import StirlingContext, _row, _triangle_row, _via_conv, _via_shift


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


class VerificationReport(NamedTuple):
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


def _falling(row: Sequence[Fraction]) -> Polynomial:
    """sum_k row[k] (x)_k in the monomial basis."""
    return convert_basis(Polynomial.make(Basis.FALLING_FACTORIAL, row), Basis.MONOMIAL)


def _shifted(identity: IdentityId, ctx: StirlingContext, n: int, y: Polynomial) -> VerificationReport:
    """sum_k S^(r,Y)(n+r,k+r) (x)_k against y(x + r), as monomial coefficient vectors."""
    lhs = _falling(_row(ctx, ctx.r, n))
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
    return _exact_report(identity, _point(ctx, n=n), _row(ctx, r, n), rhs, vector=True)


# ---- individual checkers ---------------------------------------------------


def verify_formula_agreement(ctx: StirlingContext, n: int, k: int, which: IdentityId) -> VerificationReport:
    """Production formula vs. one of the two independent routes."""
    return _agreement(ctx, n, [k], which)[0]


def _agreement(ctx: StirlingContext, n: int, ks: Sequence[int], which: IdentityId) -> list[VerificationReport]:
    """`verify_formula_agreement` at each k of row n, in one route call."""
    route = {IdentityId.T2_1_vs_T2_2: _via_conv, IdentityId.T2_1_vs_T2_3: _via_shift}.get(which)
    if route is None:
        raise ValueError(f"not a formula-agreement identity: {which}")
    rhs, row, head = route(ctx, n, ks), ctx.oracle._differences(ctx.lam, ctx.r, n, max(ks)), _point(ctx, n=n)
    return [
        _exact_report(which, head + (("k", str(k)),), row[k] if k <= n else Fraction(0), v)
        for k, v in zip(ks, rhs)
    ]


def verify_thm_2_4(ctx: StirlingContext, n: int) -> VerificationReport:
    """sum_k S^(r,Y)(n+r,k+r) (x)_k == sum_k S^Y(n,k) (x+r)_k, as monomial
    coefficient vectors."""
    return _shifted(IdentityId.T2_4, ctx, n, _falling(_row(ctx, 0, n)))


def verify_thm_2_5(ctx: StirlingContext, n: int) -> VerificationReport:
    """Bell coefficient vector (the generating-function triangle row) equals
    the Theorem 2.1 row entrywise."""
    lhs = bell_coeffs(ctx, n).coefficients
    return _exact_report(IdentityId.T2_5, _point(ctx, n=n), lhs, _row(ctx, ctx.r, n), vector=True)


def verify_thm_2_6(ctx: StirlingContext, n: int, x: RationalLike) -> VerificationReport:
    """Direct evaluation vs. the binomial-convolution form."""
    return _thm_2_6(ctx, n, [x])[0]


def _thm_2_6(ctx: StirlingContext, n: int, xs: Sequence[RationalLike]) -> list[VerificationReport]:
    """T2_6 at each x of row n, reading the row's inputs once."""
    poly, head = bell_coeffs(ctx, n), _point(ctx, n=n)
    xs = [Fraction(x) for x in xs]
    return [
        _exact_report(IdentityId.T2_6, head + (("x", str(x)),), poly(x), rhs)
        for x, rhs in zip(xs, _via_convolution(ctx, n, xs))
    ]


def verify_thm_2_7(ctx: StirlingContext, n: int, x: float, tolerance: float) -> VerificationReport:
    """Truncated series vs. exact evaluation, within relative tolerance."""
    return _thm_2_7(ctx, n, [x], tolerance)[0]


def _thm_2_7(ctx: StirlingContext, n: int, xs: Sequence[float], tolerance: float) -> list[VerificationReport]:
    """T2_7 at each x of row n, reading the row's inputs once."""
    poly, head = bell_coeffs(ctx, n), _point(ctx, n=n)
    reports = []
    for x, result in zip(xs, _dobinski(ctx, n, xs, tolerance)):
        exact = float(poly(Fraction(x)))
        passed = result.converged and abs(result.value - exact) <= tolerance * (abs(exact) or 1.0)
        point = head + (("x", str(x)), ("terms", str(result.terms_used)))
        reports.append(
            VerificationReport(IdentityId.T2_7, point, passed, repr(result.value), repr(exact), tolerance=tolerance)
        )
    return reports


def verify_thm_2_8(ctx: StirlingContext, n: int, m: int, k: int) -> VerificationReport:
    """C(m+k,m) S^(r,Y)(n+r,m+k+r) == sum_{l=m}^{n-k} C(n,l) S^(r,Y)(l+r,m+r) S^Y(n-l,k)."""
    if n < m + k:
        raise ValueError(f"requires n >= m + k, got n={n}, m={m}, k={k}")
    return _thm_2_8(ctx, n, [m], [k])[0]


def _thm_2_8(ctx: StirlingContext, n: int, ms: Sequence[int], ks: Sequence[int]) -> list[VerificationReport]:
    """T2_8 at each (m, k) of row n with m + k <= n, in integers: each
    via-shift row is read once, and each column of them and of S^Y is put
    over its lcm once."""
    m0, k0 = min(ms), min(ks)
    shifted = {l: _via_shift(ctx, l, range(l + 1)) for l in range(m0, n - k0 + 1)}
    s2y = {k: _over_lcm([_row(ctx, 0, j)[k] for j in range(k, n - m0 + 1)]) for k in ks}
    row, head, reports = _row(ctx, ctx.r, n), _point(ctx, n=n), []
    for m in ms:
        a, a_den = _over_lcm([shifted[l][m] for l in range(m, n - k0 + 1)])
        weighted = [binomial(n, l) * v for l, v in enumerate(a, m)]
        for k in ks:
            if m + k <= n:  # S^Y(n - l, k) for l = m..n - k
                b, b_den = s2y[k]
                rhs = Fraction(sum([x * y for x, y in zip(weighted, b[n - m - k :: -1])]), a_den * b_den)
                point = head + (("m", str(m)), ("k", str(k)))
                reports.append(_exact_report(IdentityId.T2_8, point, binomial(m + k, m) * row[m + k], rhs))
    return reports


def verify_thm_2_9(ctx: StirlingContext, n: int, form: str = "corrected") -> VerificationReport:
    """Falling-factorial expansion of the r-shifted triangle row vs. the
    double sum over first-kind numbers and the r = 0 triangle.

    form='corrected' pairs s1(j,i) with the column-j entry (as the derivation
    does), which is Theorem 2.4's right-hand side summed in the other order;
    form='paper' uses the column-i entry as printed.
    """
    if form not in ("corrected", "paper"):
        raise ValueError(f"form must be 'corrected' or 'paper', got {form!r}")
    row0 = _row(ctx, 0, n)
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


class SuiteGrid(NamedTuple):
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

    # identity -> its reports in order; generators, so only the selected
    # identities run, and T2_6, T2_7 and T2_8 check one row per call
    suite = {
        IdentityId.ClassicalLambda0: (verify_classical_limit(r, n) for r in grid.rs for n in ns),
        IdentityId.ReductionY1: (
            verify_reduction_point_one(lam, r, n) for lam in lambdas for r in grid.rs for n in ns
        ),
        IdentityId.T2_1_vs_T2_2: (
            rep for c, n in rows for rep in _agreement(c, n, range(n + 1), IdentityId.T2_1_vs_T2_2)
        ),
        IdentityId.T2_1_vs_T2_3: (
            rep for c, n in rows for rep in _agreement(c, n, range(n + 1), IdentityId.T2_1_vs_T2_3)
        ),
        IdentityId.T2_4: (verify_thm_2_4(c, n) for c, n in rows),
        IdentityId.T2_5: (verify_thm_2_5(c, n) for c, n in rows),
        IdentityId.T2_6: (rep for c, n in rows for rep in _thm_2_6(c, n, xs)),
        IdentityId.T2_7: (rep for c, n in rows for rep in _thm_2_7(c, n, grid.dobinski_xs, grid.dobinski_tol)),
        IdentityId.T2_8: (rep for c, n in rows for rep in _thm_2_8(c, n, range(n + 1), range(n + 1))),
        IdentityId.T2_9_corrected: (verify_thm_2_9(c, n, "corrected") for c, n in rows),
        IdentityId.T2_9_paper_form: (verify_thm_2_9(c, n, "paper") for c, n in rows),
    }
    if {IdentityId.T2_5, IdentityId.T2_6, IdentityId.T2_7} & set(wanted):
        for ctx in contexts:  # the rows bell_coeffs reads, from one build per context
            _triangle_row(ctx, grid.max_n, fill=True)
    reports: list[VerificationReport] = []
    for identity in wanted:
        reports.extend(suite[identity])

    summary: dict[str, dict[str, int]] = {}
    for rep in reports:
        s = summary.setdefault(rep.identity.value, {"pass": 0, "fail": 0, "total": 0})
        s["pass" if rep.passed else "fail"] += 1
        s["total"] += 1
    return reports, summary
