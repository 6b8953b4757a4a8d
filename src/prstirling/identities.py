"""Mechanical verification of the library's defining identities.

Each checker computes both sides of one identity through independent code
paths (disjoint above the exact kernel), so agreement is evidence rather than
tautology. The production route of `table` and `bell` (the generating-function
triangle) enters through the row `bell_coeffs` reads: T2_5 checks it against
Theorem 2.1, T2_6 against the binomial-convolution form and T2_7 against the
Dobinski series. Every other identity checks witnesses against each other;
T2_1_vs_T2_2 and T2_6 share one convolution step (`stirling._convolution`)
but read its moments from different tables. Failures are data: reports carry
both sides and the full parameter point.

Each identity holds for one row n at many points: `run_suite` runs it
through a row checker that reads the row's shared inputs once, and keeps
each context's generating-function rows from one build. T2_8 is checked a
context at a time (`_thm_2_8`): its via-shift rows and S^Y rows are each read
and put over one denominator once for all rows n. `run_suite` is the only
way in: one point is a one-context `SuiteGrid`.

Each exact check is decided in integers: rows are `kernel.Row`s, each side
one integer or one row over one denominator, and `passed` comes by
cross-multiplication, with no Fraction or string per check (the T2_7 exact
side is an integer quotient, which rounds once). A report keeps its sides as
held and makes `lhs` and `rhs` only when read, with one gcd per printed
value, so a summary run formats no side at all. The point items, such as
("k", "3"), are tuples shared by every check of one identity in a run: a
context's (dist, lambda, r) head is made once per identity, and T2_6's x
items once per run.

Identities of one shape share one checker: T2_4 and T2_9_corrected are one
polynomial identity summed in two orders (`_shifted`, whose paper form of
T2_9 takes the printed double sum), and ClassicalLambda0 is ReductionY1 at
lam = 0 (`_expansion`). `run_suite` builds each input once, such as the one
point(1) oracle whose Y = 1 rows both read. Before its first check it
grows, once, each iid-sum table the selected identities read, to the
highest row and order they read there (`_reports`), so no check grows a
table. A suite run leaves behind only the kernel Stirling triangles. It loads
`bell` once, and only when T2_6 or T2_7 is selected, and hands those two
checkers their witnesses.

The suite is one stream of reports in canonical order (`_reports`), which
tallies each identity's counts as its reports pass. `run_suite` lists it;
the CLI's `verify` reads it a report at a time, so a summary run keeps no
report, and a JSON run keeps only the reports' final text.
"""

from __future__ import annotations

import math
from enum import Enum
from operator import mul, truediv
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .kernel import Basis, RationalLike, Row, _at, _convert, _degenerate_falling, _format, _shift, stirling1_signed
from .distparse import parse_dist, parse_rational
from .moments import MomentOracle
from .stirling import _ZERO, StirlingContext, _row, _triangle_row, _via_conv, _via_shift


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
    is held as it was decided: a float, a `Row` (a kept Theorem 2.1 or
    generating-function row, or a fresh coefficient vector), or an integer
    `left`/`right` over `left_den`/`right_den`. Reports compare and hash by
    that text, not by the held form."""

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
        return _format(side, den)
    if type(side) is Row:
        return "[" + ", ".join([_format(v, side.den) for v in side.nums]) + "]"
    return str(side)


def _same(a: Row, b: Row) -> bool:
    """Whether two rows hold the same values, by cross-multiplication."""
    return len(a.nums) == len(b.nums) and all([x * b.den == y * a.den for x, y in zip(a.nums, b.nums)])


class _Items(dict):
    """Point items (name, text) by (name, value), one shared tuple per
    distinct item, for one identity in a suite run (which gives T2_6 its x
    items). The text of an oracle is its expression; `head` gives the
    (dist, lambda, r) items that begin a context's points."""

    def __missing__(self, key: tuple) -> tuple[str, str]:
        name, value = key
        item = self[key] = (name, value.describe() if name == "dist" else str(value))
        return item

    def head(self, ctx: StirlingContext) -> tuple[tuple[str, str], ...]:
        return self["dist", ctx.oracle], self["lambda", ctx.lam], self["r", ctx.r]


# ---- row checkers: each takes a context, the head of its points and the
# items, and returns a list of reports.


def _shifted(ctx: StirlingContext, head: tuple, items: _Items, identity: IdentityId, n: int) -> list:
    """T2_4: sum_k S^(r,Y)(n+r,k+r) (x)_k == sum_k S^Y(n,k) (x+r)_k, as
    canonical monomial coefficient vectors over the rows' denominators.

    T2_9 expands the r-shifted triangle row in falling factorials against
    the double sum over first-kind numbers and the r = 0 triangle. Its
    corrected form pairs s1(j,i) with the column-j entry, as the derivation
    does, which is T2_4's right-hand side summed in the other order; its
    paper form (T2_9_paper_form) takes the column-i entry, as printed."""
    row0 = _row(ctx, 0, n)
    if identity is IdentityId.T2_9_paper_form:
        y = Row([s2 * sum(stirling1_signed(j, i) for j in range(i, n + 1)) for i, s2 in enumerate(row0.nums)], row0.den)
    else:
        y = _convert(row0, Basis.MONOMIAL)
    lhs, rhs = _convert(_row(ctx, ctx.r, n), Basis.MONOMIAL), _shift(y, ctx.r)
    return [VerificationReport(identity, head + (items["n", n],), _same(lhs, rhs), lhs, rhs)]


def _expansion(ctx: StirlingContext, head: tuple, items: _Items, identity: IdentityId, n: int) -> list:
    """ReductionY1: for Y fixed at 1 (ctx.oracle = point(1)), the triangle
    row equals the falling-factorial coefficients of the r-shifted degenerate
    falling factorial (x + r)_{n,lam}. ClassicalLambda0 is the case lam = 0,
    the plain shifted power (x + r)^n. The right side is computed purely in
    the exact kernel."""
    lhs, rhs = _row(ctx, ctx.r, n), _convert(_shift(_degenerate_falling(n, ctx.lam), ctx.r), Basis.FALLING_FACTORIAL)
    return [VerificationReport(identity, head + (items["n", n],), _same(lhs, rhs), lhs, rhs)]


def _agreement(ctx: StirlingContext, head: tuple, items: _Items, which: IdentityId, n: int) -> list:
    """Theorem 2.1 against the double-sum route `_via_conv` (T2_1_vs_T2_2)
    or the shift route `_via_shift` (T2_1_vs_T2_3) at every k of row n, in
    one route call: each entry of the Theorem 2.1 row against the route's,
    both rows over one denominator."""
    route = _via_conv if which is IdentityId.T2_1_vs_T2_2 else _via_shift
    (routed, rhs_den), (row, den) = route(ctx, n, n), _row(ctx, ctx.r, n)
    point, reports = head + (items["n", n],), []
    for k, (lhs, rhs) in enumerate(zip(row, routed)):
        passed = lhs * rhs_den == rhs * den
        reports.append(VerificationReport(which, point + (items["k", k],), passed, lhs, rhs, None, den, rhs_den))
    return reports


def _thm_2_5(ctx: StirlingContext, head: tuple, items: _Items, n: int) -> list:
    """T2_5: the Bell coefficient vector (the generating-function triangle
    row) equals the Theorem 2.1 row entrywise. Both rows stay in their
    stores, so the report holds them."""
    lhs, rhs = _triangle_row(ctx, n), _row(ctx, ctx.r, n)
    return [VerificationReport(IdentityId.T2_5, head + (items["n", n],), _same(lhs, rhs), lhs, rhs)]


def _thm_2_6(ctx: StirlingContext, head: tuple, items: _Items, conv: Callable, points: Sequence[tuple], n: int) -> list:
    """T2_6: direct evaluation against the binomial-convolution form `conv`
    (`bell._via_convolution`) at each (x, its point item) of row n: at x = p/q
    each coefficient row is one integer over its denominator times q^n."""
    row, by_conv, point, reports = _triangle_row(ctx, n), conv(ctx, n), head + (items["n", n],), []
    for x, x_item in points:
        (lhs, lhs_den), (rhs, rhs_den) = _at(row, x.numerator, x.denominator), _at(by_conv, x.numerator, x.denominator)
        passed = lhs * rhs_den == rhs * lhs_den
        reports.append(VerificationReport(IdentityId.T2_6, point + (x_item,), passed, lhs, rhs, None, lhs_den, rhs_den))
    return reports


def _thm_2_7(ctx: StirlingContext, head: tuple, items: _Items, dobinski: Callable, grid: SuiteGrid, n: int) -> list:
    """T2_7: the truncated Dobinski series `dobinski` (`bell._dobinski`)
    against exact evaluation, within the grid's relative tolerance, at each
    of its x of row n, reading the row's inputs once. The exact side is the
    production row at x = p/q, one integer over D q^n, whose int / int
    quotient rounds once, as float(Fraction) does."""
    xs, tolerance = grid.dobinski_xs, grid.dobinski_tol
    row, point, reports = _triangle_row(ctx, n), head + (items["n", n],), []
    for x, result in zip(xs, dobinski(ctx, n, xs, tolerance)):
        exact = truediv(*_at(row, *x.as_integer_ratio()))
        passed = result.converged and abs(result.value - exact) <= tolerance * (abs(exact) or 1.0)
        x_items = (items["x", x], items["terms", result.terms_used])
        reports.append(VerificationReport(IdentityId.T2_7, point + x_items, passed, result.value, exact, tolerance))
    return reports


def _thm_2_8(ctx: StirlingContext, head: tuple, items: _Items, max_n: int) -> list:
    """T2_8: C(m+k,m) S^(r,Y)(n+r,m+k+r) ==
    sum_{l=m}^{n-k} C(n,l) S^(r,Y)(l+r,m+r) S^Y(n-l,k), at every (n, m, k)
    with m + k <= n <= max_n, for one context and in integers: the via-shift
    rows and the rows of S^Y are each read once and put over one
    denominator, and each column of them is taken once."""
    shifted = [_via_shift(ctx, l, l) for l in range(max_n + 1)]
    a_den = math.lcm(*[d for _, d in shifted])
    # (m, its item, S^(r,Y)(l+r,m+r) for l = m..) and (k, its item, S^Y(j,k) for j = k..)
    a_cols = [(m, items["m", m], [row[m] * (a_den // d) for row, d in shifted[m:]]) for m in range(max_n + 1)]
    s2y = [_row(ctx, 0, j) for j in range(max_n + 1)]
    b_den = math.lcm(*[d for _, d in s2y])
    b_cols = [(k, items["k", k], [row[k] * (b_den // d) for row, d in s2y[k:]]) for k in range(max_n + 1)]
    identity, rhs_den, reports = IdentityId.T2_8, a_den * b_den, []
    for n in range(max_n + 1):
        (row, row_den), point = _row(ctx, ctx.r, n), head + (items["n", n],)
        for m, m_item, a in a_cols[: n + 1]:
            weighted = [math.comb(n, l) * v for l, v in enumerate(a[: n - m + 1], m)]
            for k, k_item, b in b_cols[: n - m + 1]:
                lhs = math.comb(m + k, m) * row[m + k]
                rhs = sum(map(mul, weighted, b[n - m - k :: -1]))  # S^Y(n - l, k), l = m..n - k
                point_mk, passed = point + (m_item, k_item), lhs * rhs_den == rhs * row_den
                reports.append(VerificationReport(identity, point_mk, passed, lhs, rhs, None, row_den, rhs_den))
    return reports


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
    max_n = grid.max_n
    lambdas = [parse_rational(s) for s in grid.lambdas]
    x_points = [(x, ("x", str(x))) for x in map(parse_rational, grid.xs)]  # T2_6's items once per run
    ns = range(max_n + 1)
    oracles = [parse_dist(d) for d in grid.dists]
    contexts = [StirlingContext(o, lam, r) for o in oracles for lam in lambdas for r in grid.rs]
    one = MomentOracle.point(1)  # Y = 1 for ReductionY1 and ClassicalLambda0, whose rows they share

    def each(contexts: Sequence[StirlingContext], check: Callable[..., Iterable]) -> Iterator[VerificationReport]:
        items = _Items()  # one per identity, and one head per context
        return (rep for c in contexts for rep in check(c, items.head(c), items))

    def rows(check: Callable[..., list], *args) -> Callable[..., Iterable]:  # a row checker at every n
        return lambda c, h, items: (rep for n in ns for rep in check(c, h, items, *args, n))

    def ones(lams: Sequence[RationalLike]) -> list[StirlingContext]:
        return [StirlingContext(one, lam, r) for lam in lams for r in grid.rs]

    conv = dobinski = None  # the witnesses of T2_6 and T2_7: `bell` is loaded once per run, for them only
    if {IdentityId.T2_6, IdentityId.T2_7} & set(wanted):
        from .bell import _dobinski as dobinski, _via_convolution as conv

    def shifted(c: StirlingContext) -> int:  # Theorem 2.1 rows 0..max_n at shift r
        return c.r + max_n

    # identity -> (the top iid-sum row it reads in a context's lam table,
    # its reports at a context); generators, so only the selected
    # identities run, the row checkers one row per call and T2_8 one context
    suite = {
        IdentityId.ClassicalLambda0: (shifted, rows(_expansion, IdentityId.ClassicalLambda0)),
        IdentityId.ReductionY1: (shifted, rows(_expansion, IdentityId.ReductionY1)),
        IdentityId.T2_1_vs_T2_2: (shifted, rows(_agreement, IdentityId.T2_1_vs_T2_2)),
        IdentityId.T2_1_vs_T2_3: (shifted, rows(_agreement, IdentityId.T2_1_vs_T2_3)),
        IdentityId.T2_4: (shifted, rows(_shifted, IdentityId.T2_4)),
        IdentityId.T2_5: (shifted, rows(_thm_2_5)),
        IdentityId.T2_6: (lambda c: max(c.r, max_n), rows(_thm_2_6, conv, x_points)),  # E[(S_r)_{m,lam}], r = 0 rows
        IdentityId.T2_7: (lambda c: max_n, rows(_thm_2_7, dobinski, grid)),  # r = 0 rows
        IdentityId.T2_8: (shifted, lambda c, h, items: _thm_2_8(c, h, items, max_n)),
        IdentityId.T2_9_corrected: (shifted, rows(_shifted, IdentityId.T2_9_corrected)),
        IdentityId.T2_9_paper_form: (shifted, rows(_shifted, IdentityId.T2_9_paper_form)),
    }
    y1 = {IdentityId.ClassicalLambda0: [0], IdentityId.ReductionY1: lambdas}  # their lambdas on Y = 1
    runs = [(identity, ones(y1[identity]) if identity in y1 else contexts) for identity in wanted]
    # each table grown once, before the first check, to the top row read
    # there; T2_1_vs_T2_2 also reads the raw sum moments (`_via_conv`), rows
    # 0..r of the lam = 0 table
    reads = [(suite[identity][0](c), c.oracle, c.lam) for identity, cs in runs for c in cs]
    if IdentityId.T2_1_vs_T2_2 in wanted:
        reads += [(c.r, c.oracle, _ZERO) for c in contexts]
    for j, oracle, lam in sorted(reads, key=lambda read: read[0], reverse=True):  # a table's top row first
        oracle._table(lam, j, max_n)
    if {IdentityId.T2_5, IdentityId.T2_6, IdentityId.T2_7} & set(wanted):
        for ctx in contexts:  # the rows the production side reads, from one build per context
            _triangle_row(ctx, max_n)
    for identity, cs in runs:
        passed = total = 0
        for rep in each(cs, suite[identity][1]):
            passed += rep.passed
            total += 1
            yield rep
        if total:
            summary[identity.value] = {"pass": passed, "fail": total - passed, "total": total}
