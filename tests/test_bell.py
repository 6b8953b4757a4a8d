import math
import sys
from fractions import Fraction

import pytest

from prstirling.bell import (
    MAX_TERMS, DobinskiResult, _dobinski, bell_coeffs, bell_dobinski, bell_eval, bell_via_convolution,
)
from prstirling.kernel import Basis, Polynomial
from prstirling.moments import MomentOracle
from prstirling import stirling
from prstirling.stirling import StirlingContext, prob_r_stirling2, stirling_triangle

from oracles import bell_number, row_values

F = Fraction

PRESETS = {
    "point(1)": MomentOracle.point(1),
    "bernoulli(1/2)": MomentOracle.bernoulli(F(1, 2)),
    "uniform{0,1,2}": MomentOracle.uniform_discrete([0, 1, 2]),
    "poisson(1)": MomentOracle.poisson(1),
}


def test_coeff_examples():
    ctx = StirlingContext(MomentOracle.point(1), F(0), 1)
    assert bell_coeffs(ctx, 0).coefficients == (F(1),)
    assert bell_coeffs(ctx, 1).coefficients == (F(1), F(1))
    ctx13 = StirlingContext(MomentOracle.point(1), F(1, 3), 1)
    assert bell_coeffs(ctx13, 2).coefficients == (F(2, 3), F(8, 3), F(1))


def test_coeffs_are_a_monomial_polynomial():
    ctx = StirlingContext(MomentOracle.poisson(F(1, 2)), F(1, 3), 2)
    poly = bell_coeffs(ctx, 4)
    assert type(poly) is Polynomial and poly.basis is Basis.MONOMIAL
    assert len(poly.coefficients) == 5
    assert poly(F(3, 2)) == bell_eval(ctx, 4, F(3, 2))


def test_constant_term_is_factorial_moment():
    for name, y in PRESETS.items():
        for r in range(3):
            ctx = StirlingContext(y, F(1, 3), r)
            for n in range(6):
                expected = y.degenerate_factorial_moment(r, n, F(1, 3))
                assert bell_eval(ctx, n, 0) == expected
                if r == 0 and n >= 1:
                    assert expected == 0


def test_eval_examples():
    ctx = StirlingContext(MomentOracle.point(1), F(0), 0)
    assert bell_eval(ctx, 4, 1) == 15
    ctx1 = StirlingContext(MomentOracle.point(1), F(0), 1)
    assert bell_eval(ctx1, 1, 1) == 2


def test_bell_numbers_from_coeffs():
    ctx = StirlingContext(MomentOracle.point(1), F(0), 0)
    for n in range(8):
        assert bell_eval(ctx, n, 1) == bell_number(n)


ROW_ORACLES = {
    **PRESETS,
    "geometric(1/3)": MomentOracle.geometric(F(1, 3)),
    "uniform[1/2,3]": MomentOracle.uniform_continuous(F(1, 2), 3),
    "binomial(6,2/3)": MomentOracle.binomial_dist(6, F(2, 3)),
    # formal: no random variable has these moments
    "moments[...]": MomentOracle.from_moments([1] + [F((-1) ** m * (m + 2), 3 * m + 1) for m in range(1, 13)]),
}


def test_coefficients_match_triangle_row():
    """The generating-function row against the Theorem 2.1 sum."""
    for name, y in ROW_ORACLES.items():
        ctx = StirlingContext(y, F(-1, 2), 2)
        for n in range(7):
            poly = bell_coeffs(ctx, n)
            assert poly.coefficients == tuple(
                prob_r_stirling2(ctx, n, k) for k in range(n + 1)
            )


def test_bell_coeffs_keeps_the_lower_rows_of_its_one_build(monkeypatch):
    """A first `bell_coeffs` at n keeps rows 0..n of one `_columns` build in
    the context, and a later read of a lower row builds nothing."""
    columns, builds = stirling._columns, []

    def counted(ctx, n_max):
        builds.append(n_max)
        return columns(ctx, n_max)

    monkeypatch.setattr(stirling, "_columns", counted)
    ctx = StirlingContext(MomentOracle.poisson(F(1, 2)), F(-1, 3), 2)
    top = bell_coeffs(ctx, 8)
    lower = [bell_coeffs(ctx, n) for n in range(8)]
    assert builds == [8] and sorted(ctx._rows) == list(range(9))
    monkeypatch.undo()
    triangle = stirling_triangle(StirlingContext(MomentOracle.poisson(F(1, 2)), F(-1, 3), 2), 8)
    assert [row_values(ctx._rows[n]) for n in range(9)] == triangle
    assert [list(p.coefficients) for p in lower + [top]] == triangle


def test_convolution_agreement():
    xs = [F(-1), F(0), F(1, 2), F(1), F(2)]
    for name, y in PRESETS.items():
        for lam in (F(-1, 2), F(0), F(1, 3), F(2)):
            for r in range(4):
                ctx = StirlingContext(y, lam, r)
                for n in range(7):
                    for x in xs:
                        assert bell_via_convolution(ctx, n, x) == bell_eval(ctx, n, x), (
                            name,
                            lam,
                            r,
                            n,
                            x,
                        )


def test_convolution_r0_single_term():
    y = PRESETS["bernoulli(1/2)"]
    ctx = StirlingContext(y, F(1, 3), 0)
    for n in range(6):
        assert bell_via_convolution(ctx, n, F(3, 2)) == bell_eval(ctx, n, F(3, 2))
    assert bell_via_convolution(ctx, 0, F(5)) == 1


def test_dobinski_degree_zero():
    ctx = StirlingContext(PRESETS["poisson(1)"], F(1, 3), 1)
    for x in (0.0, 1.0, 3.5):
        result = bell_dobinski(ctx, 0, x, 1e-9)
        assert result.converged
        assert abs(result.value - 1.0) < 1e-9


def test_dobinski_matches_exact():
    ctx = StirlingContext(PRESETS["bernoulli(1/2)"], F(1, 3), 1)
    result = bell_dobinski(ctx, 4, 2.0, 1e-9)
    exact = float(bell_eval(ctx, 4, 2))
    assert result.converged
    assert abs(result.value - exact) <= 1e-9 * abs(exact)


def test_dobinski_bell_number():
    ctx = StirlingContext(MomentOracle.point(1), F(0), 0)
    result = bell_dobinski(ctx, 5, 1.0, 1e-9)
    assert result.converged
    assert abs(result.value - 52) < 1e-9 * 52


def test_dobinski_rejects_bad_inputs():
    ctx = StirlingContext(MomentOracle.point(1), F(0), 0)
    with pytest.raises(ValueError):
        bell_dobinski(ctx, 3, -1.0, 1e-9)
    with pytest.raises(ValueError):
        bell_dobinski(ctx, 3, 1.0, 0.0)


def test_dobinski_rejects_a_tolerance_below_the_smallest_normal_float():
    # tolerance / 8 would round to 0, which no term can fall below
    ctx = StirlingContext(MomentOracle.point(1), F(0), 0)
    with pytest.raises(ValueError, match="normal float"):
        bell_dobinski(ctx, 2, 1.0, 5e-324)
    assert bell_dobinski(ctx, 2, 1.0, sys.float_info.min).converged


def test_dobinski_cap_reports_failure():
    for oracle, lam, r, n, x, cap in DOBINSKI_CASES:
        if cap:
            result = bell_dobinski(StirlingContext(oracle, lam, r), n, x, 1e-9)
            assert not result.converged
            assert math.isnan(result.value)
            assert result.terms_used == MAX_TERMS == cap


def reference_dobinski(ctx, n, x, tolerance):
    """The series loops of `bell_dobinski`, each term read as
    float(Fraction) from the public moment read: weights by running product
    and the sum scaled by e^(-x), or, where e^(-x) or the threshold
    tolerance * e^(-x) / 8 is not a normal float or that sum leaves float
    range, e^(-x) folded into each weight in log space."""
    for folded in (False, True):
        scale = 1.0 if folded else math.exp(-x)
        if not folded and min(scale, tolerance * scale / 8.0) < sys.float_info.min:
            continue
        threshold = tolerance * scale / 8.0
        min_k = n * (1 + math.ceil(abs(ctx.lam))) + ctx.r + math.ceil(x)
        total, comp, weight, streak, term = 0.0, 0.0, 1.0, 0, 0.0
        for k in range(10000):
            if folded:
                weight = math.exp(k * math.log(x) - math.lgamma(k + 1) - x)
            term = weight * float(ctx.oracle.degenerate_factorial_moment(k + ctx.r, n, ctx.lam))
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            if not math.isfinite(total):
                if folded:
                    return DobinskiResult(math.nan, k + 1, term * scale, tolerance, False)
                break
            streak = streak + 1 if abs(term) < threshold else 0
            if k > min_k and streak >= 3:
                return DobinskiResult(total * scale, k + 1, term * scale, tolerance, True)
            weight *= x / (k + 1)
        else:
            return DobinskiResult(math.nan, 10000, term * scale, tolerance, False)


DOBINSKI_CASES = [
    (MomentOracle.bernoulli(F(1, 2)), F(1, 3), 1, 4, 2.0, None),
    (MomentOracle.poisson(1), F(-1, 2), 0, 6, 4.0, None),
    (MomentOracle.geometric(F(2, 5)), F(-3, 2), 3, 8, 1.5, None),
    (MomentOracle.uniform_continuous(F(1, 2), 3), F(-3, 2), 2, 12, 3.0, None),
    (MomentOracle.uniform_discrete([0, 1, 4, 6]), F(2), 1, 20, 5.0, None),
    (MomentOracle.point(1), F(0), 0, 2, 700.0, None),  # the plain partial sum leaves float range
    # the minimum index n (1 + ceil|lam|) + r + ceil(x) is past the term cap
    (MomentOracle.point(1), F(10000), 0, 1, 3.0, 10000),
    (MomentOracle.point(1), F(0), 0, 2, 800.0, None),  # e^(-x) underflows
    (MomentOracle.point(2), F(1, 2), 1, 3, 20000.0, 10000),  # the term cap in the folded series
    (MomentOracle.poisson(F(1, 3)), F(-1, 2), 2, 4, 710.0, None),  # e^(-x) is subnormal
    (MomentOracle.from_moments([1, F(1, 2), 3, F(-2, 3), 7, 1, F(5, 4)]), F(-1, 2), 1, 6, 2.5, None),
    (MomentOracle.poisson(F(3, 2)), F(1, 3), 9, 3, 4.0, None),  # r > n
    (MomentOracle.binomial_dist(7, F(2, 7)), F(2), 12, 2, 750.0, None),  # folded, large r
]


@pytest.mark.parametrize("oracle, lam, r, n, x, cap", DOBINSKI_CASES)
def test_dobinski_terms_match_float_of_each_moment(oracle, lam, r, n, x, cap):
    """cap is the term count of a row that ends at the term cap, None for a
    row that converges."""
    got = bell_dobinski(StirlingContext(oracle, lam, r), n, x, 1e-9)
    want = reference_dobinski(StirlingContext(oracle, lam, r), n, x, 1e-9)
    assert repr(got) == repr(want)  # every float bit for bit, NaN included
    assert (got.converged, got.terms_used) == (False, cap) if cap else got.converged


def test_dobinski_tiny_tolerance_takes_the_folded_series():
    # tolerance * e^(-100) / 8 underflows to 0, which no term of the plain series can meet
    ctx = StirlingContext(MomentOracle.point(1), F(0), 0)
    result = bell_dobinski(ctx, 2, 100.0, 1e-300)
    assert result.converged
    assert abs(result.value - 10100) <= 1e-12 * 10100
    assert repr(result) == repr(reference_dobinski(ctx, 2, 100.0, 1e-300))


def test_dobinski_at_zero_is_its_first_term_at_any_tolerance():
    """At x = 0 the series is E[(S_r)_{n,lam}], the value at 0, also where
    the threshold tolerance / 8 is subnormal (the folded series takes log x)."""
    cases = [(PRESETS["poisson(1)"], F(0), 1, 2), (PRESETS["bernoulli(1/2)"], F(-1, 2), 2, 4)]
    for oracle, lam, r, n in cases:
        ctx = StirlingContext(oracle, lam, r)
        for tolerance in (1e-9, 1e-307, sys.float_info.min):
            result = bell_dobinski(ctx, n, 0.0, tolerance)
            assert result.converged, tolerance
            assert result.value == float(bell_eval(ctx, n, 0))


def test_the_series_leaves_the_lambda_table_at_rows_0_to_n():
    """The moments of every term come from Theorem 2.1 row n, which reads
    E[(S_j)_{n,lam}] for j <= n only, not one iid-sum row per term."""
    lam, r, n = F(-3, 2), 2, 6
    one, several = MomentOracle.poisson(F(5, 2)), MomentOracle.poisson(F(5, 2))
    assert bell_dobinski(StirlingContext(one, lam, r), n, 5.0, 1e-9).converged
    results = _dobinski(StirlingContext(several, lam, r), n, [0.5, 5.0, 40.0, 800.0], 1e-9)
    assert all(result.converged for result in results)
    for oracle in (one, several):
        assert len(oracle._tables[lam.numerator, lam.denominator].rows) <= n + 1


def test_dobinski_term_past_float_range_raises_as_float_of_the_moment():
    huge = MomentOracle.point(10**400)
    with pytest.raises(OverflowError) as want:
        reference_dobinski(StirlingContext(huge, F(0), 0), 1, 1.0, 1e-9)
    with pytest.raises(OverflowError) as got:
        bell_dobinski(StirlingContext(huge, F(0), 0), 1, 1.0, 1e-9)
    assert str(got.value) == str(want.value)


def test_dobinski_moment_past_float_range_forms_its_term_exactly():
    """E[Y^160] of poisson(100) is past float range, but its term at x 1e-60
    is not: that term is the exact product rounded once, and the series meets
    the exact value, about 3.55e291, within the tolerance."""
    ctx = StirlingContext(MomentOracle.poisson(100), F(0), 0)
    with pytest.raises(OverflowError):
        float(ctx.oracle.degenerate_factorial_moment(1, 160, 0))
    result = bell_dobinski(ctx, 160, 1e-60, 1e-9)
    exact = float(bell_eval(ctx, 160, F(1e-60)))
    assert result.converged and 3.5e291 < exact < 3.6e291
    assert abs(result.value - exact) <= 1e-9 * exact
