"""Tests for boundaries, queries, step sets, and path encodings."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from latticepaths import (
    BohmQuery,
    BoundaryLine,
    LatticePath,
    NiederhausenQuery,
    PathQuery,
    QueryCategory,
    SlopeKind,
    StepKind,
    StepSet,
    Strictness,
    ValidationError,
    above,
    count,
    dp_count,
    enumerate_paths,
    integer_slope,
    inverse_slope,
    min_ordinate_above,
    normalize_intercept,
    normalize_query,
    path_above,
    strictness_insensitive,
    validate_query,
)
from latticepaths import formulas, model
from latticepaths.cli import main
from latticepaths.model import _moved

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
@example(SlopeKind.INTEGER, 2, 1, 1, 3, STRICT)  # (3, 5) lies on the line
@example(SlopeKind.INVERSE, 3, -2, 3, -4, STRICT)
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
    st.sampled_from([SlopeKind.INTEGER, SlopeKind.INVERSE]),
)
@example(1, 0, 2, Fraction(1, 3), SlopeKind.INVERSE)  # k*r = 2/3: snapped to r = 0
@example(-1, -1, 3, Fraction(-1, 2), SlopeKind.INVERSE)  # k*r = -3/2: snapped to r = -2/3
def test_non_integer_intercepts_are_strictness_insensitive(x, y, k, r, kind):
    line = BoundaryLine(kind, k, r)
    if not strictness_insensitive(line):
        return
    normalized = normalize_intercept(line)
    weak = above((x, y), line, WEAK)
    assert weak == above((x, y), line, STRICT)
    assert weak == above((x, y), normalized, WEAK)


def test_the_gcd_rule_finds_the_lattice_points_on_the_line():
    # Strictness matters exactly where a lattice point lies on the line.  With
    # r in [-2, 2], any such line has one in the window: at x = 0 (integer
    # slope) or at y = 0 (inverse slope, x = k*r).
    window = list(product(range(-8, 9), range(-2, 3)))
    sensitive = set()
    for kind, k, den in product(SlopeKind, range(1, 5), range(1, 7)):
        for num in range(-2 * den, 2 * den + 1):
            line = BoundaryLine(kind, k, Fraction(num, den))
            on_line = any(above(p, line, WEAK) != above(p, line, STRICT) for p in window)
            assert strictness_insensitive(line) is not on_line, line
            if on_line:
                sensitive.add(kind)
    assert sensitive == set(SlopeKind)


@given(
    st.sampled_from([SlopeKind.INTEGER, SlopeKind.INVERSE]),
    st.integers(min_value=1, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    st.sampled_from([WEAK, STRICT]),
    st.integers(min_value=-3, max_value=2),
    st.integers(min_value=-3, max_value=2),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
@example(SlopeKind.INVERSE, 2, Fraction(0), WEAK, 0, 0, 3, 2, 1, 0)  # r becomes 1/2
def test_moved_query_keeps_its_paths_and_moves_the_form(
    kind, k, r, strictness, a, b, width, height, dx, dy
):
    q = PathQuery(a, b, a + width, b + height, BoundaryLine(kind, k, r), strictness)
    moved = _moved(q, dx, dy)
    assert (moved.a, moved.b, moved.m, moved.n) == (a + dx, b + dy, q.m + dx, q.n + dy)
    assert (moved.boundary.kind, moved.boundary.k, moved.strictness) == (kind, k, strictness)
    assert dp_count(moved) == dp_count(q)
    big_a, big_b, big_c = q.boundary._form(WEAK)
    expected = (big_a, big_b, big_c + big_b * dx - big_a * dy)
    form = moved.boundary._form(WEAK)
    if kind is SlopeKind.INTEGER:
        assert form == expected
    else:
        # A move can change the intercept's denominator, which scales the
        # inverse slope's form by a positive factor.
        assert [big_a * v for v in form] == [form[0] * v for v in expected]


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


def _verdict_from_normalized(q):
    """The classification with the sign side read off the whole normalized
    query: the reference for ``validate_query``, which builds none."""
    if q.a > q.m or q.b > q.n:
        return QueryCategory.INVALID, "end point not reachable from start"
    if not above((q.a, q.b), q.boundary, q.strictness):
        return QueryCategory.INVALID, "start violates the boundary constraint"
    if not above((q.m, q.n), q.boundary, q.strictness):
        return QueryCategory.INVALID, "end violates the boundary constraint"
    eff = normalize_query(q)
    problems = []
    if eff.a < 0:
        problems.append("start abscissa below 0")
    if eff.strictness is WEAK:
        if eff.b < 0:
            problems.append("start ordinate below 0 (vertically shifted query)")
    elif eff.b < 1:
        problems.append("strict start ordinate below 1")
    if problems:
        return QueryCategory.EXTENDED, "; ".join(problems)
    return QueryCategory.STANDARD, "meets the documented condition block"


def _seeded_queries(rng, size):
    """Both slope kinds and modes, intercepts with denominators up to 7,
    starts from (-3, -3) with ordinate 0 drawn often, and ends that may lie
    before the start."""
    for _ in range(size):
        line = BoundaryLine(rng.choice(list(SlopeKind)), rng.randint(1, 3),
                            Fraction(rng.randint(-12, 12), rng.randint(1, 7)))
        a = rng.randint(-3, 3)
        b = 0 if rng.random() < 0.3 else rng.randint(-3, 3)
        yield PathQuery(a, b, a + rng.randint(-1, 5), b + rng.randint(-1, 6), line,
                        rng.choice(list(Strictness)))
    huge = Fraction(10**5000 + 1, 3)  # a 5,001-digit numerator
    for kind, r, start in product(SlopeKind, (huge, -huge), ((0, 0), (-2, 0), (1, -3))):
        for strictness in Strictness:
            yield PathQuery(*start, 4, 4, BoundaryLine(kind, 2, r), strictness)


def test_validate_query_matches_the_normalized_verdict_on_a_seeded_sample():
    seen = set()
    for q in _seeded_queries(random.Random(2013), 4000):
        verdict = validate_query(q)
        assert (verdict.category, verdict.reason) == _verdict_from_normalized(q), q
        seen.add(verdict.reason)
        if q.strictness is STRICT and q.b == 0 and verdict.ok:
            seen.add(("strict start at 0", strictness_insensitive(q.boundary)))
    assert seen >= {
        "end point not reachable from start",
        "start violates the boundary constraint",
        "end violates the boundary constraint",
        "start abscissa below 0",
        "start ordinate below 0 (vertically shifted query)",
        "strict start ordinate below 1",
        "start abscissa below 0; strict start ordinate below 1",
        "meets the documented condition block",
        ("strict start at 0", True),
        ("strict start at 0", False),
    }


@pytest.fixture
def normalizations(monkeypatch):
    """The queries handed to ``normalize_query`` through either module that names it."""
    calls = []

    def spy(q):
        calls.append(q)
        return normalize_query(q)

    monkeypatch.setattr(model, "normalize_query", spy)
    monkeypatch.setattr(formulas, "normalize_query", spy)
    return calls


SHIFTED_STRICT_QUERY = PathQuery(-1, -2, 4, 6, integer_slope(2, Fraction(7, 3)), STRICT)


def test_count_normalizes_its_query_once(normalizations):
    assert count(SHIFTED_STRICT_QUERY) == dp_count(SHIFTED_STRICT_QUERY)
    assert normalizations == [SHIFTED_STRICT_QUERY]


def test_the_count_command_normalizes_its_query_once(normalizations, capsys):
    argv = ["count", "--slope", "2", "--intercept", "7/3", "--from=-1,-2", "--to", "4,6", "--strict"]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"{dp_count(SHIFTED_STRICT_QUERY)}\n"
    assert normalizations == [SHIFTED_STRICT_QUERY]


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


def test_step_set_factories_share_one_instance_per_argument():
    assert StepSet.unit() is StepSet.unit()
    assert StepSet.koroljuk(2) is StepSet.koroljuk(2) and StepSet.bohm(3) is StepSet.bohm(3)
    assert StepSet.koroljuk(2) is not StepSet.koroljuk(3)
    assert StepSet.koroljuk(2) == StepSet(StepKind.KOROLJUK, 2)


def test_step_set_lookup_errors():
    unit = StepSet.unit()
    with pytest.raises(ValidationError, match=r"^unknown step letter 'U' for unit steps$"):
        unit.vector_for("U")
    with pytest.raises(ValidationError, match=r"^step \(1, 1\) does not belong to the unit step set$"):
        unit.letter_for((1, 1))
    with pytest.raises(ValidationError, match=r"^step \[1, 0\] does not belong to the unit step set$"):
        unit.letter_for([1, 0])


@pytest.mark.parametrize("make, message", [
    (lambda: NiederhausenQuery(0, 1, 1, 1), "NiederhausenQuery needs k >= 1, got 0"),
    (lambda: NiederhausenQuery(1, 1, 1, 0), "NiederhausenQuery needs n >= 1, got 0"),
    (lambda: NiederhausenQuery(1, 1, -1, 1), "NiederhausenQuery needs m >= 0, got -1"),
    (lambda: BohmQuery(0, 1, 1, 1), "BohmQuery needs rise >= 1, got 0"),
    (lambda: BohmQuery(1, 1, 1, -1), "BohmQuery needs ups >= 0, got -1"),
    (lambda: StepSet(StepKind.UNIT, 1), "unit step set takes no parameter"),
    (lambda: StepSet(StepKind.KOROLJUK, 0), "koroljuk step set needs a parameter >= 1"),
    (lambda: StepSet(StepKind.BOHM, -1), "bohm step set needs a parameter >= 1"),
], ids=["niederhausen-k", "niederhausen-n", "niederhausen-m", "bohm-rise", "bohm-ups",
        "unit-param", "koroljuk-param", "bohm-param"])
def test_value_classes_reject_bad_parameters_with_their_message(make, message):
    with pytest.raises(ValidationError) as caught:
        make()
    assert str(caught.value) == message


def test_path_points_and_end():
    path = LatticePath.decode("VHV", StepSet.unit(), (0, 0))
    assert path.points() == [(0, 0), (0, 1), (1, 1), (1, 2)]
    assert path.end == (1, 2)


@given(st.sampled_from([StepSet.unit(), StepSet.koroljuk(1), StepSet.koroljuk(3), StepSet.bohm(2)]),
       st.lists(st.booleans(), max_size=10), st.integers(-3, 3), st.integers(-3, 3))
@example(StepSet.koroljuk(2), [False, True, True], 0, 0)  # a back-step (-2, 1) first
@example(StepSet.unit(), [], 2, -1)  # the empty word ends at its start
def test_path_end_is_the_last_point(step_set, picks, x, y):
    first, second = sorted(step_set.letters())
    path = LatticePath((x, y), "".join(second if pick else first for pick in picks), step_set)
    assert path.end == path.points()[-1]


def test_path_contract_holds_across_its_constructions():
    unit = LatticePath((1, 2), ((1, 0), (0, 1), (0, 1)), StepSet.unit())
    assert repr(unit) == (
        "LatticePath(start=(1, 2), steps=((1, 0), (0, 1), (0, 1)), "
        "step_set=StepSet(kind=<StepKind.UNIT: 'unit'>, param=0))"
    )
    walk = LatticePath([0, 0], [[1, 1], (-2, 1)], StepSet.koroljuk(2))
    assert repr(walk) == (
        "LatticePath(start=(0, 0), steps=((1, 1), (-2, 1)), "
        "step_set=StepSet(kind=<StepKind.KOROLJUK: 'koroljuk'>, param=2))"
    )
    assert walk.steps == ((1, 1), (-2, 1)) and walk.start == (0, 0) and walk.encode() == "UD"
    assert walk != LatticePath.decode("UD", StepSet.koroljuk(1))
    assert walk != LatticePath.decode("UD", StepSet.bohm(2))

    decoded = LatticePath.decode("HVV", StepSet.unit(), (1, 2))
    listed = [p for p in enumerate_paths(PathQuery(1, 2, 2, 4, integer_slope(1, 0), WEAK))
              if p.encode() == "HVV"]
    for other in (decoded, *listed, LatticePath((1, 2), "HVV", StepSet.unit())):
        assert other == unit and hash(other) == hash(unit)
    assert len(listed) == 1
    assert unit != LatticePath.decode("HVV", StepSet.unit(), (1, 3))
    assert len({unit, decoded, *listed}) == 1

    for field in ("start", "steps", "step_set", "word"):
        with pytest.raises(AttributeError):
            setattr(unit, field, None)


def test_path_rejects_foreign_steps():
    with pytest.raises(ValidationError):
        LatticePath((0, 0), ((2, 2),), StepSet.unit())
    with pytest.raises(ValidationError, match=r"^step \(1, 1\) does not belong to the bohm step set$"):
        LatticePath((0, 0), [(1, 2), [1, 1]], StepSet.bohm(2))


def test_decode_rejects_unknown_letters():
    with pytest.raises(ValidationError, match=r"^unknown step letter 'X' for unit steps$"):
        LatticePath.decode("HXVY", StepSet.unit())
    with pytest.raises(ValidationError, match=r"^unknown step letter 'H' for koroljuk steps$"):
        LatticePath.decode("UDHV", StepSet.koroljuk(1))


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
    st.sampled_from([StepSet.unit(), StepSet.koroljuk(1), StepSet.koroljuk(3),
                     StepSet.bohm(1), StepSet.bohm(2)]),
)
@example(SlopeKind.INTEGER, 1, 1, 1, (0, 0), "VHV", STRICT, StepSet.unit())
@example(SlopeKind.INVERSE, 2, 1, 2, (3, 0), "HV", STRICT, StepSet.unit())
@example(SlopeKind.INTEGER, 2, 3, 1, (0, -2), "VVHVV", WEAK, StepSet.unit())
@example(SlopeKind.INVERSE, 3, -5, 3, (-4, -3), "HVHH", STRICT, StepSet.koroljuk(2))
def test_path_above_agrees_with_above_at_every_point(kind, k, num, den, start, text, strictness,
                                                     step_set):
    # The linear-form running sum against the Fraction reference at every
    # visited point; the walk step sets spell their words with U for H and D for V.
    line = BoundaryLine(kind, k, Fraction(num, den))
    if step_set.kind is not StepKind.UNIT:
        text = text.translate(str.maketrans("HV", "UD"))
    path = LatticePath.decode(text, step_set, start)
    expected = all(above(pt, line, strictness) for pt in path.points())
    assert path_above(path, line, strictness) == expected


def test_describe_mentions_slope_shape():
    assert "2" in integer_slope(2, 1).describe()
    assert "1/2" in inverse_slope(2, 1).describe()
