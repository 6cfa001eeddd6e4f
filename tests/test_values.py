"""The value classes' contract: construction, repr, equality, hashing and
immutability, for every record type the package exports."""

from fractions import Fraction

import pytest

from latticepaths import (
    BohmQuery,
    BoundaryLine,
    CheckReport,
    HagenRotheParams,
    KoroljukQuery,
    LatticePath,
    NiederhausenQuery,
    PathQuery,
    QueryCategory,
    QueryValidation,
    SlopeKind,
    StepKind,
    StepSet,
    Strictness,
    SweepSummary,
    validate_query,
)

LINE = BoundaryLine(SlopeKind.INTEGER, 2, Fraction(1, 3))
QUERY = PathQuery(0, 1, 3, 7, LINE, Strictness.WEAK)


def _frozen_values():
    """One instance of every immutable value class, built afresh per call."""
    return [
        BoundaryLine(SlopeKind.INTEGER, 2, Fraction(1, 3)),
        PathQuery(0, 1, 3, 7, BoundaryLine(SlopeKind.INVERSE, 3, 2), Strictness.STRICT),
        KoroljukQuery(1, 2, 3, 4),
        NiederhausenQuery(2, Fraction(3, 2), 2, 4),
        BohmQuery(2, 1, 3, 4),
        QueryValidation(QueryCategory.EXTENDED, "start abscissa below 0"),
        StepSet(StepKind.BOHM, 3),
        LatticePath((1, 2), "HVV", StepSet.unit()),
        CheckReport("demo", {"n": 2}, {"lhs": Fraction(1, 2)}, True),
        HagenRotheParams(1, 2, 1, 2),
    ]


def test_equal_fields_of_different_classes_are_not_equal():
    assert KoroljukQuery(1, 2, 3, 4) != BohmQuery(1, 2, 3, 4)
    assert not KoroljukQuery(1, 2, 3, 4) == BohmQuery(1, 2, 3, 4)
    assert KoroljukQuery(1, 2, 3, 4) != (1, 2, 3, 4)
    assert QUERY != (0, 1, 3, 7, LINE, Strictness.WEAK)


def test_equal_values_have_equal_hashes_of_their_field_tuples():
    for value, twin in zip(_frozen_values(), _frozen_values()):
        assert value is not twin and value == twin, value
        if isinstance(value, CheckReport):  # its mappings make it unhashable
            continue
        assert hash(value) == hash(twin), value
    assert hash(QUERY) == hash((0, 1, 3, 7, LINE, Strictness.WEAK))
    assert hash(LINE) == hash((SlopeKind.INTEGER, 2, Fraction(1, 3)))
    assert hash(KoroljukQuery(1, 2, 3, 4)) == hash((1, 2, 3, 4))
    assert KoroljukQuery(1, 2, 3, 4) != KoroljukQuery(1, 2, 3, 5)
    assert len({QUERY, PathQuery(0, 1, 3, 7, LINE, Strictness.WEAK), KoroljukQuery(1, 2, 3, 4)}) == 2


def test_golden_reprs():
    line = "BoundaryLine(kind=<SlopeKind.INTEGER: 'integer'>, k=2, r=Fraction(1, 3))"
    assert repr(LINE) == line
    assert repr(QUERY) == (
        f"PathQuery(a=0, b=1, m=3, n=7, boundary={line}, strictness=<Strictness.WEAK: 'weak'>)"
    )
    assert repr(KoroljukQuery(1, 2, 3, 4)) == "KoroljukQuery(p=1, c=2, m=3, n=4)"
    assert repr(BohmQuery(2, 1, 3, 4)) == "BohmQuery(rise=2, start_alt=1, end_alt=3, ups=4)"
    assert repr(validate_query(QUERY)) == (
        "QueryValidation(category=<QueryCategory.STANDARD: 'standard'>, "
        "reason='meets the documented condition block')"
    )
    assert repr(CheckReport("demo", {"n": 2}, {"lhs": Fraction(1, 2)}, True)) == (
        "CheckReport(name='demo', parameters={'n': 2}, values={'lhs': Fraction(1, 2)}, ok=True)"
    )
    assert repr(HagenRotheParams(1, 2, 1, 2)) == (
        "HagenRotheParams(alpha=Fraction(1, 1), beta=Fraction(2, 1), gamma=Fraction(1, 1), n=2)"
    )
    assert repr(SweepSummary()) == "SweepSummary(checks=0, failures=0, first_failure=None)"
    assert repr(SweepSummary(3, 1, "x")) == "SweepSummary(checks=3, failures=1, first_failure='x')"


def test_frozen_values_refuse_setattr_and_delattr():
    for value, twin in zip(_frozen_values(), _frozen_values()):
        name = next(iter(vars(value)))
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, "not_a_field", None)
        assert value == twin, value


def test_keyword_construction_matches_positional():
    assert BoundaryLine(kind=SlopeKind.INTEGER, k=2, r=Fraction(1, 3)) == LINE
    assert PathQuery(0, 1, 3, 7, strictness=Strictness.WEAK, boundary=LINE) == QUERY
    assert KoroljukQuery(n=4, m=3, c=2, p=1) == KoroljukQuery(1, 2, 3, 4)
    assert NiederhausenQuery(2, d=Fraction(3, 2), n=4, m=2) == NiederhausenQuery(2, Fraction(3, 2), 2, 4)
    assert BohmQuery(rise=2, start_alt=1, end_alt=3, ups=4) == BohmQuery(2, 1, 3, 4)
    assert QueryValidation(reason="r", category=QueryCategory.INVALID) == QueryValidation(
        QueryCategory.INVALID, "r")
    assert StepSet(kind=StepKind.KOROLJUK, param=2) == StepSet.koroljuk(2)
    assert CheckReport(ok=False, values={}, parameters={}, name="x") == CheckReport("x", {}, {}, False)
    assert HagenRotheParams(n=2, gamma=1, beta=2, alpha=1) == HagenRotheParams(1, 2, 1, 2)
    assert SweepSummary(first_failure="f", checks=2) == SweepSummary(2, 0, "f")
    with pytest.raises(TypeError):
        BoundaryLine(SlopeKind.INTEGER, 2)
    with pytest.raises(TypeError):
        KoroljukQuery(1, 2, 3, 4, p=1)
    with pytest.raises(TypeError):
        BohmQuery(2, 1, 3, 4, 5)


def test_step_set_parameter_defaults_to_zero():
    assert StepSet(StepKind.UNIT).param == 0
    assert StepSet(StepKind.UNIT) == StepSet(kind=StepKind.UNIT) == StepSet.unit()


def test_sweep_summary_is_mutable_and_unhashable():
    summary = SweepSummary()
    assert summary == SweepSummary(0, 0, None)
    summary.checks += 2
    summary.first_failure = "x"
    assert summary == SweepSummary(2, 0, "x") and summary != SweepSummary(2, 1, "x")
    with pytest.raises(TypeError):
        hash(SweepSummary())
