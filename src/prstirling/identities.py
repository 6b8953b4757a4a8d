"""Mechanical verification of the library's defining identities.

Each checker computes both sides of one identity through independent code
paths (disjoint above the exact kernel), so agreement is evidence rather than
tautology. The production route of `table` and `bell` (the generating-function
triangle) enters through `bell_coeffs`: T2_5 checks it against Theorem 2.1,
T2_6 against the binomial-convolution form and T2_7 against the Dobinski
series. Every other identity checks witnesses against each other. Failures
are data: reports carry both sides and the full parameter point.

T2_1_vs_T2_2/3, T2_6, T2_7 and T2_8 hold for one row n at many points;
`run_suite` runs each through a row checker (`_agreement`, `_thm_2_6/7`)
that reads the row's shared inputs once, so a point costs only its own
work, and keeps each context's generating-function rows from one build.
T2_8 is checked a context at a time (`_thm_2_8`): each via-shift row and
each column is read and put over its lcm once for all rows n. The public
`verify_*` functions are the one-point case.

Each exact check of those five is decided in integers: the production row
over its lcm once per row, each side one integer over one denominator, and
`passed` by cross-multiplication, with no Fraction or string per check (the
T2_7 exact side is that integer quotient, which rounds once). A report keeps
its sides as held and makes `lhs` and `rhs` only when read, so a summary
run formats no side at all; a side in a fresh container (the T2_4 and T2_9
vectors, the kernel expansions of ReductionY1 and ClassicalLambda0) is
formatted at once instead, so that the container can die. The point items,
such as ("k", "3"), are tuples shared by every check of one identity in a
run, T2_6's x items made once per run.

Identities of one shape share one checker: T2_4 and T2_9_corrected are one
polynomial identity summed in two orders (`_shifted`, whose paper form of
T2_9 takes the printed double sum), and ClassicalLambda0 is ReductionY1 at
lam = 0 (`_expansion`). `run_suite` builds each input once, such as the one
point(1) oracle whose Y = 1 rows both read. A suite run leaves behind only
the kernel Stirling triangles.

The suite is one stream of reports in canonical order (`_reports`), which
tallies each identity's counts as its reports pass. `run_suite` lists it;
the CLI's `verify` reads it a report at a time, so a summary run keeps no
report, and a JSON run keeps only the reports' final text.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .bell import _dobinski, _via_convolution, bell_coeffs
from .kernel import (
    Basis,
    Polynomial,
    RationalLike,
    _homogeneous,
    _over_lcm,
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
    """One check: the identity, its parameter point, the verdict and both
    sides. `lhs` and `rhs` are the sides' exact text, made when read. A side
    is held as it was decided: text, a float, a Fraction, a row of Fractions
    kept elsewhere anyway (a Theorem 2.1 or generating-function row), or an
    integer `left`/`right` over `left_den`/`right_den`. Reports compare and
    hash by that text, not by the held form."""

    identity: IdentityId
    point: tuple[tuple[str, str], ...]
    passed: bool
    left: object
    right: object
    tolerance: Optional[float] = None
    left_den: Optional[int] = None
    right_den: Optional[int] = None

    @property
    def lhs(self) -> str:
        return _text(self.left, self.left_den)

    @property
    def rhs(self) -> str:
        return _text(self.right, self.right_den)

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

    def _key(self) -> tuple:
        return self.identity, self.point, self.passed, self.lhs, self.rhs, self.tolerance

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if isinstance(other, VerificationReport) else NotImplemented

    def __ne__(self, other: object) -> bool:
        return self._key() != other._key() if isinstance(other, VerificationReport) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


def _text(side, den: Optional[int]) -> str:
    if den is not None:
        return str(Fraction(side, den))
    return _vec(side) if type(side) is tuple else str(side)


def _vec(coeffs: Sequence[Fraction]) -> str:
    return "[" + ", ".join(str(c) for c in coeffs) + "]"


class _Items(dict):
    """Point items (name, text) by (name, value), one shared tuple per
    distinct item, for a one-point check or for one identity in a suite run
    (which gives T2_6 its x items). The text of an oracle is its expression."""

    def __missing__(self, key: tuple) -> tuple[str, str]:
        name, value = key
        item = self[key] = (name, value.describe() if name == "dist" else str(value))
        return item


def _point(ctx: StirlingContext, items: _Items, n: int) -> tuple[tuple[str, str], ...]:
    return items["dist", ctx.oracle], items["lambda", ctx.lam], items["r", ctx.r], items["n", n]


def _falling(row: Sequence[Fraction]) -> Polynomial:
    """sum_k row[k] (x)_k in the monomial basis."""
    return convert_basis(Polynomial(Basis.FALLING_FACTORIAL, row), Basis.MONOMIAL)


def _shifted(identity: IdentityId, ctx: StirlingContext, n: int, items: _Items) -> VerificationReport:
    """sum_k S^(r,Y)(n+r,k+r) (x)_k against y(x + r), y = sum_k S^Y(n,k) (x)_k
    or the printed double sum of T2_9_paper_form, as monomial coefficient
    vectors; both are fresh, so the report keeps their text."""
    row0 = _row(ctx, 0, n)
    if identity is IdentityId.T2_9_paper_form:
        printed = [s2 * sum(stirling1_signed(j, i) for j in range(i, n + 1)) for i, s2 in enumerate(row0)]
        y = Polynomial.make(Basis.MONOMIAL, printed)
    else:
        y = _falling(row0)
    lhs = _falling(_row(ctx, ctx.r, n)).coefficients
    rhs = shift_argument(y, ctx.r).coefficients
    return VerificationReport(identity, _point(ctx, items, n), lhs == rhs, _vec(lhs), _vec(rhs))


def _expansion(identity: IdentityId, ctx: StirlingContext, n: int, items: _Items) -> VerificationReport:
    """For Y = ctx.oracle = point(1), the triangle row against the n + 1
    falling-basis coefficients of the monic (x + r)_{n,lam}, computed purely
    in the exact kernel. The report holds the stored row and keeps the text
    of the fresh expansion."""
    power = shift_argument(degenerate_falling_coeffs(n, ctx.lam), ctx.r)
    lhs, rhs = _row(ctx, ctx.r, n), convert_basis(power, Basis.FALLING_FACTORIAL).coefficients
    return VerificationReport(identity, _point(ctx, items, n), lhs == rhs, lhs, _vec(rhs))


# ---- individual checkers ---------------------------------------------------


def verify_formula_agreement(ctx: StirlingContext, n: int, k: int, which: IdentityId) -> VerificationReport:
    """Production formula vs. one of the two independent routes."""
    return _agreement(ctx, n, [k], which, _Items())[0]


def _agreement(
    ctx: StirlingContext, n: int, ks: Sequence[int], which: IdentityId, items: _Items
) -> list[VerificationReport]:
    """`verify_formula_agreement` at each k of row n, in one route call: the
    Theorem 2.1 row over its lcm once, each entry against the route's
    integer pair."""
    route = {IdentityId.T2_1_vs_T2_2: _via_conv, IdentityId.T2_1_vs_T2_3: _via_shift}.get(which)
    if route is None:
        raise ValueError(f"not a formula-agreement identity: {which}")
    routed, row = route(ctx, n, ks), ctx.oracle._differences(ctx.lam, ctx.r, n, max(ks))
    (nums, den), head, reports = _over_lcm(row), _point(ctx, items, n), []
    for k, (rhs, rhs_den) in zip(ks, routed):
        lhs, lhs_num = (row[k], nums[k]) if k <= n else (0, 0)  # zero past the row
        passed = lhs_num * rhs_den == rhs * den
        reports.append(VerificationReport(which, head + (items["k", k],), passed, lhs, rhs, None, None, rhs_den))
    return reports


def verify_thm_2_4(ctx: StirlingContext, n: int) -> VerificationReport:
    """sum_k S^(r,Y)(n+r,k+r) (x)_k == sum_k S^Y(n,k) (x+r)_k, as monomial
    coefficient vectors."""
    return _shifted(IdentityId.T2_4, ctx, n, _Items())


def verify_thm_2_5(ctx: StirlingContext, n: int) -> VerificationReport:
    """Bell coefficient vector (the generating-function triangle row) equals
    the Theorem 2.1 row entrywise."""
    return _thm_2_5(ctx, n, _Items())


def _thm_2_5(ctx: StirlingContext, n: int, items: _Items) -> VerificationReport:
    """T2_5; both rows stay in their stores, so the report holds them."""
    lhs, rhs = bell_coeffs(ctx, n).coefficients, _row(ctx, ctx.r, n)
    return VerificationReport(IdentityId.T2_5, _point(ctx, items, n), lhs == rhs, lhs, rhs)


def verify_thm_2_6(ctx: StirlingContext, n: int, x: RationalLike) -> VerificationReport:
    """Direct evaluation vs. the binomial-convolution form."""
    x = Fraction(x)
    return _thm_2_6(ctx, n, [(x, ("x", str(x)))], _Items())[0]


def _thm_2_6(ctx: StirlingContext, n: int, points: Sequence[tuple], items: _Items) -> list[VerificationReport]:
    """T2_6 at each (x, its point item) of row n, reading the row's inputs
    once: the production row over its lcm D, so that at x = p/q its value is
    one integer over D q^n, decided against the convolution's integer pair."""
    nums, den = _over_lcm(bell_coeffs(ctx, n).coefficients)
    identity, head, reports = IdentityId.T2_6, _point(ctx, items, n), []
    for (x, x_item), (rhs, rhs_den) in zip(points, _via_convolution(ctx, n, [x for x, _ in points])):
        lhs, lhs_den = _homogeneous(nums, x.numerator, x.denominator), den * x.denominator**n
        passed = lhs * rhs_den == rhs * lhs_den
        reports.append(VerificationReport(identity, head + (x_item,), passed, lhs, rhs, None, lhs_den, rhs_den))
    return reports


def verify_thm_2_7(ctx: StirlingContext, n: int, x: float, tolerance: float) -> VerificationReport:
    """Truncated series vs. exact evaluation, within relative tolerance."""
    return _thm_2_7(ctx, n, [x], tolerance, _Items())[0]


def _thm_2_7(
    ctx: StirlingContext, n: int, xs: Sequence[float], tolerance: float, items: _Items
) -> list[VerificationReport]:
    """T2_7 at each x of row n, reading the row's inputs once. The exact side
    is the production row over its lcm at x = p/q, one integer over D q^n,
    whose int / int quotient rounds once, as float(Fraction) does."""
    nums, den = _over_lcm(bell_coeffs(ctx, n).coefficients)
    identity, head, reports = IdentityId.T2_7, _point(ctx, items, n), []
    for x, result in zip(xs, _dobinski(ctx, n, xs, tolerance)):
        p, q = x.as_integer_ratio()
        exact = _homogeneous(nums, p, q) / (den * q**n)
        passed = result.converged and abs(result.value - exact) <= tolerance * (abs(exact) or 1.0)
        point = head + (items["x", x], items["terms", result.terms_used])
        reports.append(VerificationReport(identity, point, passed, result.value, exact, tolerance))
    return reports


def verify_thm_2_8(ctx: StirlingContext, n: int, m: int, k: int) -> VerificationReport:
    """C(m+k,m) S^(r,Y)(n+r,m+k+r) == sum_{l=m}^{n-k} C(n,l) S^(r,Y)(l+r,m+r) S^Y(n-l,k)."""
    if n < m + k:
        raise ValueError(f"requires n >= m + k, got n={n}, m={m}, k={k}")
    return _thm_2_8(ctx, [n], [m], [k], _Items())[0]


def _thm_2_8(
    ctx: StirlingContext, ns: Sequence[int], ms: Sequence[int], ks: Sequence[int], items: _Items
) -> list[VerificationReport]:
    """T2_8 at each (n, m, k) with m + k <= n, for one context and in
    integers: each via-shift row l is read once, each column m of them and
    each column k of S^Y is put over its lcm once, and each row n of the
    left side once."""
    m0, k0 = min(ms), min(ks)
    top = max(ns) - k0  # the last via-shift row l = n - k any check reads
    shifted = [_via_shift(ctx, l, range(l + 1)) for l in range(m0, top + 1)]
    a_cols = []  # (m, its item, column m of the via-shift rows l = m..top over its lcm)
    for m in ms:
        col = [shifted[l - m0][m] for l in range(m, top + 1)]
        den = math.lcm(*[d for _, d in col])
        a_cols.append((m, items["m", m], [v * (den // d) for v, d in col], den))
    s2y = [_row(ctx, 0, j) for j in range(max(ns) - m0 + 1)]
    b_cols = [(k, items["k", k], *_over_lcm([row[k] for row in s2y[k:]])) for k in ks]  # column k of S^Y
    identity, reports = IdentityId.T2_8, []
    for n in ns:
        (row, row_den), head = _over_lcm(_row(ctx, ctx.r, n)), _point(ctx, items, n)
        for m, m_item, a, a_den in a_cols:
            if m + k0 > n:
                continue
            weighted = [math.comb(n, l) * v for l, v in enumerate(a[: n - k0 - m + 1], m)]
            for k, k_item, b, b_den in b_cols:
                if m + k > n:
                    continue
                lhs = math.comb(m + k, m) * row[m + k]
                rhs, rhs_den = sum(map(mul, weighted, b[n - m - k :: -1])), a_den * b_den  # S^Y(n - l, k), l = m..n - k
                point, passed = head + (m_item, k_item), lhs * rhs_den == rhs * row_den
                reports.append(VerificationReport(identity, point, passed, lhs, rhs, None, row_den, rhs_den))
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
    identity = IdentityId.T2_9_corrected if form == "corrected" else IdentityId.T2_9_paper_form
    return _shifted(identity, ctx, n, _Items())


def verify_reduction_point_one(lam: RationalLike, r: int, n: int) -> VerificationReport:
    """For Y fixed at 1, the triangle row must match the coefficients of the
    r-shifted degenerate falling factorial in the falling-factorial basis."""
    return _expansion(IdentityId.ReductionY1, StirlingContext(MomentOracle.point(1), lam, r), n, _Items())


def verify_classical_limit(r: int, n: int) -> VerificationReport:
    """lam = 0, Y = 1: the triangle row must match the falling-factorial
    expansion of the plain shifted power (x+r)^n."""
    return _expansion(IdentityId.ClassicalLambda0, StirlingContext(MomentOracle.point(1), 0, r), n, _Items())


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
    summary: dict[str, dict[str, int]] = {}
    return list(_reports(grid, identities, summary)), summary


def _reports(
    grid: SuiteGrid, identities: Iterable[IdentityId], summary: dict[str, dict[str, int]]
) -> Iterator[VerificationReport]:
    """The reports of `run_suite`, in its order, one at a time: each
    identity's pass/fail/total counts go into `summary` after its last
    report, so a consumer keeps only the reports it keeps."""
    wanted = sorted(set(identities), key=lambda i: i.value)
    lambdas = [parse_rational(s) for s in grid.lambdas]
    x_points = [(x, ("x", str(x))) for x in map(parse_rational, grid.xs)]  # T2_6's items once per run
    ns = range(grid.max_n + 1)
    oracles = [parse_dist(d) for d in grid.dists]
    contexts = [StirlingContext(o, lam, r) for o in oracles for lam in lambdas for r in grid.rs]
    rows = [(ctx, n) for ctx in contexts for n in ns]
    one = MomentOracle.point(1)  # Y = 1 for ReductionY1 and ClassicalLambda0, whose rows they share

    def agreements(which: IdentityId, items: _Items) -> Iterator[VerificationReport]:
        return (rep for c, n in rows for rep in _agreement(c, n, range(n + 1), which, items))

    def expansions(identity: IdentityId, lams: Sequence[RationalLike], items: _Items) -> Iterator[VerificationReport]:
        for ctx in [StirlingContext(one, lam, r) for lam in lams for r in grid.rs]:
            yield from (_expansion(identity, ctx, n, items) for n in ns)

    # identity -> its reports in order, given the identity's point items;
    # generators, so only the selected identities run, T2_1_vs_T2_2/3, T2_6
    # and T2_7 check one row per call and T2_8 one context
    suite = {
        IdentityId.ClassicalLambda0: lambda items: expansions(IdentityId.ClassicalLambda0, [0], items),
        IdentityId.ReductionY1: lambda items: expansions(IdentityId.ReductionY1, lambdas, items),
        IdentityId.T2_1_vs_T2_2: lambda items: agreements(IdentityId.T2_1_vs_T2_2, items),
        IdentityId.T2_1_vs_T2_3: lambda items: agreements(IdentityId.T2_1_vs_T2_3, items),
        IdentityId.T2_4: lambda items: (_shifted(IdentityId.T2_4, c, n, items) for c, n in rows),
        IdentityId.T2_5: lambda items: (_thm_2_5(c, n, items) for c, n in rows),
        IdentityId.T2_6: lambda items: (rep for c, n in rows for rep in _thm_2_6(c, n, x_points, items)),
        IdentityId.T2_7: lambda items: (
            rep for c, n in rows for rep in _thm_2_7(c, n, grid.dobinski_xs, grid.dobinski_tol, items)
        ),
        IdentityId.T2_8: lambda items: (rep for c in contexts for rep in _thm_2_8(c, ns, ns, ns, items)),
        IdentityId.T2_9_corrected: lambda items: (_shifted(IdentityId.T2_9_corrected, c, n, items) for c, n in rows),
        IdentityId.T2_9_paper_form: lambda items: (_shifted(IdentityId.T2_9_paper_form, c, n, items) for c, n in rows),
    }
    if {IdentityId.T2_5, IdentityId.T2_6, IdentityId.T2_7} & set(wanted):
        for ctx in contexts:  # the rows bell_coeffs reads, from one build per context
            _triangle_row(ctx, grid.max_n, fill=True)
    for identity in wanted:
        passed = total = 0
        for rep in suite[identity](_Items()):
            passed += rep.passed
            total += 1
            yield rep
        if total:
            summary[identity.value] = {"pass": passed, "fail": total - passed, "total": total}
