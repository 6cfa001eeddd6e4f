"""Tests for boundaries, queries, step sets, and path encodings."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latticepaths import (
    BoundaryLine,
    LatticePath,
    PathQuery,
    QueryCategory,
    SlopeKind,
    StepSet,
    Strictness,
    ValidationError,
    above,
    integer_slope,
    inverse_slope,
    min_ordinate_above,
    normalize_intercept,
    normalize_query,
    path_above,
    strictness_insensitive,
    validate_query,
)

WEAK = Strictness.WEAK
STRICT = Strictness.STRICT


def test_boundary_line_requires_positive_slope():
    with pytest.raises(ValidationError):
        BoundaryLine(SlopeKind.INTEGER, 0, 0)


def test_boundary_value_at():
    assert integer_slope(2, 1).value_at(3) == 5
    assert inverse_slope(2, 1).value_at(3) == Fraction(1, 2)


def test_above_examples():
    assert above((0, 0), integer_slope(1, 1), STRICT)
    assert not above((2, 2), integer_slope(1, 0), STRICT)
    assert above((2, 1), inverse_slope(2, 0), WEAK)


@given(
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=1, max_value=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.sampled_from([SlopeKind.INTEGER, SlopeKind.INVERSE]),
    st.sampled_from([WEAK, STRICT]),
)
def test_above_monotone_in_y(x, y, k, r, kind, strictness):
    line = BoundaryLine(kind, k, r)
    if above((x, y), line, strictness):
        assert above((x, y + 1), line, strictness)


def test_min_ordinate_above_matches_predicate():
    for line in (integer_slope(2, 1), inverse_slope(3, Fraction(2, 3)),
                 integer_slope(1, Fraction(-3, 2))):
        for strictness in (WEAK, STRICT):
            for x in range(-2, 5):
                y = min_ordinate_above(line, x, strictness)
                assert above((x, y), line, strictness)
                assert not above((x, y - 1), line, strictness)


@given(
    st.sampled_from([SlopeKind.INTEGER, SlopeKind.INVERSE]),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=-5, max_value=20),
    st.sampled_from([WEAK, STRICT]),
)
def test_min_ordinate_above_is_the_threshold_of_above(kind, k, num, den, x, strictness):
    line = BoundaryLine(kind, k, Fraction(num, den))
    y = min_ordinate_above(line, x, strictness)
    assert above((x, y), line, strictness)
    assert not above((x, y - 1), line, strictness)


def test_normalize_intercept_examples():
    assert normalize_intercept(integer_slope(2, Fraction(3, 2))) == integer_slope(2, 1)
    assert normalize_intercept(integer_slope(2, 2)) == integer_slope(2, 2)
    assert normalize_intercept(inverse_slope(3, Fraction(1, 2))) == inverse_slope(3, Fraction(1, 3))


@given(
    st.integers(min_value=1, max_value=5),
    st.fractions(min_value=-4, max_value=4, max_denominator=7),
    st.sampled_from([SlopeKind.INTEGER, SlopeKind.INVERSE]),
)
def test_normalize_intercept_idempotent(k, r, kind):
    line = BoundaryLine(kind, k, r)
    once = normalize_intercept(line)
    assert normalize_intercept(once) == once


@given(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
def test_non_integer_intercepts_are_strictness_insensitive(x, y, k, r):
    line = integer_slope(k, r)
    if not strictness_insensitive(line):
        return
    normalized = normalize_intercept(line)
    weak = above((x, y), line, WEAK)
    assert weak == above((x, y), line, STRICT)
    assert weak == above((x, y), normalized, WEAK)


def test_validate_query_examples():
    standard = PathQuery(0, 0, 2, 2, integer_slope(1, 0), WEAK)
    assert validate_query(standard).category is QueryCategory.STANDARD

    extended = PathQuery(0, 0, 1, 2, integer_slope(1, 1), STRICT)
    verdict = validate_query(extended)
    assert verdict.category is QueryCategory.EXTENDED
    assert verdict.ok

    invalid = PathQuery(1, 0, 2, 4, integer_slope(2, 0), WEAK)
    verdict = validate_query(invalid)
    assert verdict.category is QueryCategory.INVALID
    assert not verdict.ok


def test_validate_query_rejects_unreachable_endpoints():
    q = PathQuery(3, 0, 2, 4, integer_slope(1, 5), WEAK)
    assert validate_query(q).category is QueryCategory.INVALID


def test_normalize_query_snaps_non_integer_intercepts():
    q = PathQuery(0, 0, 2, 2, integer_slope(1, Fraction(1, 2)), STRICT)
    eff = normalize_query(q)
    assert eff.boundary == integer_slope(1, 0)
    assert eff.strictness is WEAK


def test_step_set_letters():
    assert set(StepSet.unit().letters()) == {"H", "V"}
    assert set(StepSet.koroljuk(2).letters()) == {"U", "D"}
    assert set(StepSet.bohm(3).letters()) == {"U", "D"}


def test_step_set_vectors():
    unit = StepSet.unit()
    assert unit.vector_for("H") == (1, 0)
    assert unit.vector_for("V") == (0, 1)
    kor = StepSet.koroljuk(2)
    assert kor.vector_for("U") == (1, 1)
    assert kor.vector_for("D") == (-2, 1)
    boh = StepSet.bohm(2)
    assert boh.vector_for("U") == (1, 2)
    assert boh.vector_for("D") == (1, -1)


def test_step_set_maps_are_kept_and_letters_is_a_copy():
    kor = StepSet.koroljuk(2)
    fresh = kor.letters()
    fresh["D"] = (9, 9)
    assert kor.letters() == {"U": (1, 1), "D": (-2, 1)}
    assert kor.letters() is not kor.letters()
    assert kor.vector_for("D") == (-2, 1) and kor.letter_for((-2, 1)) == "D"
    assert kor == StepSet.koroljuk(2) and hash(kor) == hash(StepSet.koroljuk(2))
    assert repr(kor) == "StepSet(kind=<StepKind.KOROLJUK: 'koroljuk'>, param=2)"


def test_step_set_lookup_errors():
    unit = StepSet.unit()
    with pytest.raises(ValidationError, match=r"^unknown step letter 'U' for unit steps$"):
        unit.vector_for("U")
    with pytest.raises(ValidationError, match=r"^step \(1, 1\) does not belong to the unit step set$"):
        unit.letter_for((1, 1))
    with pytest.raises(ValidationError, match=r"^step \[1, 0\] does not belong to the unit step set$"):
        unit.letter_for([1, 0])


def test_path_points_and_end():
    path = LatticePath.decode("VHV", StepSet.unit(), (0, 0))
    assert path.points() == [(0, 0), (0, 1), (1, 1), (1, 2)]
    assert path.end == (1, 2)


def test_path_rejects_foreign_steps():
    with pytest.raises(ValidationError):
        LatticePath((0, 0), ((2, 2),), StepSet.unit())
    with pytest.raises(ValidationError, match=r"^step \(1, 1\) does not belong to the bohm step set$"):
        LatticePath((0, 0), [(1, 2), [1, 1]], StepSet.bohm(2))


def test_decode_rejects_unknown_letters():
    with pytest.raises(ValidationError):
        LatticePath.decode("HXV", StepSet.unit())


@given(st.text(alphabet="HV", max_size=12))
def test_unit_encode_decode_round_trip(text):
    path = LatticePath.decode(text, StepSet.unit())
    assert path.encode() == text


@given(st.text(alphabet="UD", max_size=10), st.integers(min_value=1, max_value=3))
def test_koroljuk_encode_decode_round_trip(text, p):
    path = LatticePath.decode(text, StepSet.koroljuk(p))
    assert path.encode() == text


def test_path_above_checks_every_point():
    line = integer_slope(1, 0)
    good = LatticePath.decode("VH", StepSet.unit(), (0, 0))
    bad = LatticePath.decode("HV", StepSet.unit(), (0, 0))
    assert path_above(good, line, WEAK)
    assert not path_above(bad, line, WEAK)


@given(
    st.sampled_from([SlopeKind.INTEGER, SlopeKind.INVERSE]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=5),
    st.tuples(st.integers(min_value=-5, max_value=5), st.integers(min_value=-5, max_value=5)),
    st.text(alphabet="HV", max_size=10),
    st.sampled_from([WEAK, STRICT]),
)
def test_path_above_agrees_with_above_at_every_point(kind, k, num, den, start, text, strictness):
    line = BoundaryLine(kind, k, Fraction(num, den))
    path = LatticePath.decode(text, StepSet.unit(), start)
    expected = all(above(pt, line, strictness) for pt in path.points())
    assert path_above(path, line, strictness) == expected


def test_describe_mentions_slope_shape():
    assert "2" in integer_slope(2, 1).describe()
    assert "1/2" in inverse_slope(2, 1).describe()
