"""Value semantics of the package's records: the NamedTuple records reject
assignment, and a StirlingContext compares and hashes by (oracle, lam, r)."""

from fractions import Fraction as F

import pytest

from prstirling.bell import DobinskiResult, bell_coeffs
from prstirling.identities import IdentityId, SuiteGrid, VerificationReport
from prstirling.kernel import Basis, Polynomial
from prstirling.moments import MomentOracle
from prstirling.stirling import StirlingContext, prob_r_stirling2

RECORDS = [
    Polynomial(Basis.MONOMIAL, (F(1), F(2))),
    DobinskiResult(1.5, 3, 0.0, 1e-9, True),
    VerificationReport(IdentityId.T2_4, (("n", "1"),), True, "1", "1"),
    SuiteGrid(),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_records_reject_assignment(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_report_dict_keeps_its_key_order():
    point = (("dist", "point(1)"), ("n", "2"))
    exact = VerificationReport(IdentityId.T2_4, point, True, "1", "1")
    assert list(exact.to_dict()) == ["identity", "point", "passed", "lhs", "rhs"]
    series = VerificationReport(IdentityId.T2_7, point, False, "1.0", "2.0", 1e-9)
    assert list(series.to_dict()) == ["identity", "point", "passed", "lhs", "rhs", "tolerance"]


def test_contexts_compare_and_hash_by_parameters():
    a = StirlingContext(MomentOracle.uniform_discrete([0, 1, 2]), F(1, 3), 2)
    b = StirlingContext(MomentOracle.uniform_discrete([0, 1, 2]), F(1, 3), 2)
    prob_r_stirling2(a, 5, 2)
    bell_coeffs(a, 4)
    assert a._rows and not b._rows and a.oracle._tables and not b.oracle._tables  # caches do not count
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != StirlingContext(a.oracle, F(1, 3), 1)
    assert a != StirlingContext(a.oracle, F(1, 2), 2)
    assert a != StirlingContext(MomentOracle.uniform_discrete([0, 1, 3]), F(1, 3), 2)
    assert a != (a.oracle, a.lam, a.r)
    assert StirlingContext(a.oracle, 1, 0) == StirlingContext(a.oracle, F(1), 0)
    assert set(vars(a)) == {"oracle", "lam", "r", "_rows"}
    assert repr(a) == "StirlingContext(oracle=MomentOracle('uniform{0,1,2}'), lam=Fraction(1, 3), r=2)"


def test_a_bad_lam_is_reported_before_a_bad_r():
    oracle = MomentOracle.point(1)
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        StirlingContext(oracle, "1/x", -1)
    with pytest.raises(TypeError):
        StirlingContext(oracle, None, -1)
    with pytest.raises(ValueError, match="shift parameter r must be a nonnegative integer, got -1"):
        StirlingContext(oracle, F(1, 2), -1)
