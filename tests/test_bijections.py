"""Tests for the path correspondences and their declared inverses."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latticepaths import (
    BohmQuery,
    KoroljukQuery,
    LatticePath,
    PathQuery,
    StepSet,
    Strictness,
    ValidationError,
    bohm_rotate,
    bohm_to_unit,
    bohm_unrotate,
    count_stepset,
    dp_count,
    drop_one,
    enumerate_paths,
    enumerate_stepset,
    integer_slope,
    inverse_slope,
    koroljuk_to_unit,
    lemma_translate,
    lemma_translate_back,
    path_above,
    raise_one,
    reflect_inverse,
    reflect_inverse_back,
    unit_to_bohm,
    unit_to_koroljuk,
)

WEAK = Strictness.WEAK
STRICT = Strictness.STRICT
UNIT = StepSet.unit()


def test_drop_one_example():
    line = integer_slope(1, 0)
    path = LatticePath.decode("VH", UNIT, (0, 1))
    image = drop_one(path, line)
    assert image.encode() == "VH"
    assert image.start == (0, 0)
    assert path_above(image, line, WEAK)


def test_drop_one_empty_path():
    line = integer_slope(1, 1)
    path = LatticePath((2, 3), (), UNIT)
    image = drop_one(path, line)
    assert image.steps == () and image.start == (2, 2)


def test_drop_one_cardinality_with_negative_target_start():
    line = integer_slope(1, 1)
    strict = dp_count(PathQuery(0, 0, 2, 3, line, STRICT))
    weak = dp_count(PathQuery(0, -1, 2, 2, line, WEAK))
    assert strict == weak == 5


def test_drop_one_round_trip():
    line = integer_slope(1, 0)
    for path in enumerate_paths(PathQuery(0, 1, 2, 3, line, STRICT)):
        image = drop_one(path, line)
        assert raise_one(image, line) == path


def test_drop_one_rejects_paths_not_strictly_above():
    line = integer_slope(1, 0)
    path = LatticePath.decode("HV", UNIT, (0, 1))
    with pytest.raises(ValidationError):
        drop_one(path, line)


def test_lemma_translate_example():
    line = integer_slope(1, 0)
    path = LatticePath.decode("VH", UNIT, (1, 1))
    image = lemma_translate(path, line)
    assert image.encode() == "VH"
    assert image.start == (0, 0)
    assert lemma_translate_back(image, line) == path


def test_lemma_translate_empty_path():
    line = integer_slope(2, 0)
    path = LatticePath((3, 6), (), UNIT)
    image = lemma_translate(path, line)
    assert image.start == (2, 4)


def test_lemma_translate_cardinality():
    line = integer_slope(1, 0)
    assert dp_count(PathQuery(1, 1, 2, 2, line, WEAK)) == 1
    assert dp_count(PathQuery(0, 0, 1, 1, line, WEAK)) == 1


def test_reflect_inverse_example():
    line = inverse_slope(2, 0)
    path = LatticePath.decode("VHH", UNIT, (0, 0))
    image = reflect_inverse(path, line)
    assert image.encode() == "VVH"
    assert image.start == (0, 0)
    assert reflect_inverse_back(image, line, end=(2, 1)) == path


def test_reflect_inverse_empty_path():
    line = inverse_slope(2, 1)
    path = LatticePath((2, 1), (), UNIT)
    image = reflect_inverse(path, line)
    assert image.steps == ()
    assert image.start == (1 - 1, 2 * (1 + 1) - 2)


def test_reflect_inverse_cardinality():
    assert dp_count(PathQuery(0, 0, 2, 1, inverse_slope(2, 1), WEAK)) == 3
    assert dp_count(PathQuery(0, 2, 1, 4, integer_slope(2, 0), WEAK)) == 3


def test_reflect_inverse_maps_into_weak_integer_family():
    line = inverse_slope(2, 1)
    source = enumerate_paths(PathQuery(0, 0, 2, 1, line, WEAK))
    target_line = integer_slope(2, 0)
    images = {reflect_inverse(p, line) for p in source}
    assert len(images) == len(source)
    for image in images:
        assert path_above(image, target_line, WEAK)
        assert image.start == (0, 2)
        assert image.end == (1, 4)


def test_koroljuk_to_unit_example():
    walk = LatticePath.decode("UDU", StepSet.koroljuk(1), (0, 0))
    image = koroljuk_to_unit(walk, 2)
    assert image.encode() == "VHV"
    assert image.start == (0, 0)
    assert unit_to_koroljuk(image, 1, 2) == walk


def test_koroljuk_to_unit_all_up_walk():
    walk = LatticePath.decode("UU", StepSet.koroljuk(1), (0, 0))
    image = koroljuk_to_unit(walk, 3)
    assert image.encode() == "VV"


def test_koroljuk_to_unit_rejects_touching_walks():
    walk = LatticePath.decode("UUD", StepSet.koroljuk(1), (0, 0))
    with pytest.raises(ValidationError):
        koroljuk_to_unit(walk, 2)


def test_koroljuk_to_unit_cardinality():
    avoiding = count_stepset(KoroljukQuery(1, 2, 2, 1)).avoiding
    strict = dp_count(PathQuery(0, 0, 1, 2, integer_slope(1, 1), STRICT))
    assert avoiding == strict == 2


def test_unit_to_koroljuk_parameter_mismatch():
    path = LatticePath.decode("VHV", UNIT, (0, 0))
    with pytest.raises(ValidationError):
        unit_to_koroljuk(path, 1, 2, intercept=5)


def test_bohm_rotate_example():
    walk = LatticePath.decode("DUU", StepSet.koroljuk(1), (0, 0))
    image = bohm_rotate(walk, 2)
    assert [point[1] for point in image.points()] == [2, 3, 2, 1]
    assert image.encode() == "UDD"
    assert bohm_unrotate(image, 2) == walk


def test_bohm_rotate_endpoint_altitudes():
    for walk in enumerate_stepset(KoroljukQuery(1, 3, 3, 1)):
        image = bohm_rotate(walk, 3)
        points = image.points()
        assert points[0][1] == 3
        assert points[-1][1] == 3 + 1 * 1 - 3
        assert all(point[1] >= 1 for point in points)


def test_bohm_rotate_cardinality():
    avoiding = count_stepset(KoroljukQuery(1, 2, 2, 1)).avoiding
    walks = count_stepset(BohmQuery(1, 2, 1, 1))
    assert avoiding == walks == 2


def test_bohm_to_unit_round_trip():
    q = BohmQuery(2, 2, 3, 2)
    for walk in enumerate_stepset(q):
        image = bohm_to_unit(walk)
        assert unit_to_bohm(image, q.rise, q.end_alt) == walk


def test_bohm_to_unit_lands_in_strict_family():
    q = BohmQuery(1, 2, 1, 2)
    line = integer_slope(1, 1)
    target = PathQuery(0, 0, 2, 2 + 1 * 2 - 1, line, STRICT)
    images = {bohm_to_unit(w) for w in enumerate_stepset(q)}
    assert len(images) == count_stepset(q) == dp_count(target)
    for image in images:
        assert path_above(image, line, STRICT)
        assert image.start == (0, 0)
        assert image.end == (target.m, target.n)


@pytest.mark.parametrize("transform", [bohm_to_unit, lambda walk: bohm_unrotate(walk, 1)],
                         ids=["bohm_to_unit", "bohm_unrotate"])
def test_altitude_walk_maps_reject_a_walk_to_altitude_zero(transform):
    walk = LatticePath.decode("DD", StepSet.bohm(1), (0, 1))
    with pytest.raises(ValidationError, match="walk drops to altitude 0 < 1"):
        transform(walk)


def test_bohm_to_unit_rejects_a_koroljuk_walk():
    walk = LatticePath.decode("UU", StepSet.koroljuk(1), (0, 0))
    with pytest.raises(ValidationError, match="bohm_to_unit expects an altitude walk"):
        bohm_to_unit(walk)


def test_composite_rotation_agrees_with_direct_map():
    for walk in enumerate_stepset(KoroljukQuery(2, 3, 4, 1)):
        direct = koroljuk_to_unit(walk, 3)
        composite = bohm_to_unit(bohm_rotate(walk, 3))
        assert direct == composite


def test_transforms_reject_foreign_step_sets():
    line = integer_slope(1, 0)
    walk = LatticePath.decode("UU", StepSet.koroljuk(1), (0, 0))
    with pytest.raises(ValidationError):
        drop_one(walk, line)
    path = LatticePath.decode("VV", UNIT, (0, 0))
    with pytest.raises(ValidationError):
        bohm_rotate(path, 2)


def _unit(text, start=(0, 0)):
    return LatticePath.decode(text, UNIT, start)


_WALK = LatticePath.decode("UUU", StepSet.koroljuk(1), (0, 0))
_HALF = Fraction(1, 2)


# One bad input per check of each map.  Most inputs also break later checks of
# the same map, so the message pins which check fires first.
@pytest.mark.parametrize("call, message", [
    (lambda: drop_one(_WALK, inverse_slope(1, _HALF)), "transform expects a unit path"),
    (lambda: drop_one(_unit("H"), inverse_slope(1, _HALF)), "drop_one works above integer-slope lines"),
    (lambda: drop_one(_unit("H"), integer_slope(1, _HALF)), "drop_one needs an integral intercept"),
    (lambda: drop_one(_unit("H"), integer_slope(1, 0)), "start ordinate must be >= 1, got 0"),
    (lambda: drop_one(_unit("HH", (0, 1)), integer_slope(1, 0)), "input path is not strictly above the line"),
    (lambda: raise_one(_WALK, inverse_slope(1, _HALF)), "transform expects a unit path"),
    (lambda: raise_one(_unit("HH"), inverse_slope(1, _HALF)), "raise_one works above integer-slope lines"),
    (lambda: raise_one(_unit("HH"), integer_slope(1, _HALF)), "raise_one needs an integral intercept"),
    (lambda: raise_one(_unit("HH"), integer_slope(1, 0)), "input path is not weakly above the line"),
    (lambda: lemma_translate(_WALK, inverse_slope(2)), "transform expects a unit path"),
    (lambda: lemma_translate(_unit("HH"), inverse_slope(2)), "lemma_translate works above integer-slope lines"),
    (lambda: lemma_translate(_unit("HH"), integer_slope(2)), "start abscissa must be >= 1, got 0"),
    (lambda: lemma_translate(_unit("HH", (1, 1)), integer_slope(2)), "start ordinate must be >= k = 2, got 1"),
    (lambda: lemma_translate(_unit("H", (1, 2)), integer_slope(2)), "input path is not weakly above the line"),
    (lambda: lemma_translate_back(_WALK, inverse_slope(2)), "transform expects a unit path"),
    (lambda: lemma_translate_back(_unit("HH"), inverse_slope(2)),
     "lemma_translate_back works above integer-slope lines"),
    (lambda: lemma_translate_back(_unit("HH"), integer_slope(2)), "input path is not weakly above the line"),
    (lambda: reflect_inverse(_WALK, integer_slope(2, Fraction(1, 4))), "transform expects a unit path"),
    (lambda: reflect_inverse(_unit("HHH"), integer_slope(2, Fraction(1, 4))),
     "reflect_inverse works above inverse-slope lines"),
    (lambda: reflect_inverse(_unit("HHH"), inverse_slope(2, Fraction(1, 4))), "need k*r integral, got k*r = 1/2"),
    (lambda: reflect_inverse(_unit("HHH"), inverse_slope(2)), "input path is not weakly above the line"),
    (lambda: reflect_inverse_back(_WALK, integer_slope(2, Fraction(1, 4)), (1, 2)), "transform expects a unit path"),
    (lambda: reflect_inverse_back(_unit("HH"), integer_slope(2, Fraction(1, 4)), (1, 2)),
     "reflect_inverse_back works with inverse-slope lines"),
    (lambda: reflect_inverse_back(_unit("HH"), inverse_slope(2, Fraction(1, 4)), (1, 2)),
     "need k*r integral, got k*r = 1/2"),
    (lambda: reflect_inverse_back(_unit("HH"), inverse_slope(1), (1, 2)),
     "parameter mismatch: image paths start at (0, 1), got (0, 0)"),
    (lambda: reflect_inverse_back(_unit("HH", (0, 1)), inverse_slope(1), (1, 2)),
     "input path is not weakly above y = k*x"),
    (lambda: koroljuk_to_unit(_unit("HH", (1, 0)), 0), "transform expects a (1,1)/(-p,1) walk"),
    (lambda: koroljuk_to_unit(LatticePath.decode("UU", StepSet.koroljuk(1), (1, 0)), 0),
     "the avoided line x = c needs c >= 1, got 0"),
    (lambda: koroljuk_to_unit(LatticePath.decode("UU", StepSet.koroljuk(1), (1, 0)), 1),
     "walk must start at the origin, got (1, 0)"),
    (lambda: koroljuk_to_unit(_WALK, 2), "walk touches or crosses x = 2 at abscissa 2"),
    (lambda: bohm_rotate(_unit("HH", (1, 0)), 0), "transform expects a (1,1)/(-p,1) walk"),
    (lambda: bohm_rotate(LatticePath.decode("UU", StepSet.koroljuk(1), (1, 0)), 0),
     "the avoided line x = c needs c >= 1, got 0"),
    (lambda: bohm_rotate(LatticePath.decode("UU", StepSet.koroljuk(1), (1, 0)), 1),
     "walk must start at the origin, got (1, 0)"),
    (lambda: bohm_rotate(_WALK, 2), "walk touches or crosses x = 2 at abscissa 2"),
    (lambda: unit_to_koroljuk(_WALK, 0, 0, 5), "transform expects a unit path"),
    (lambda: unit_to_koroljuk(_unit("VVV", (1, 0)), 0, 0, 5), "need p >= 1, got 0"),
    (lambda: unit_to_koroljuk(_unit("VVV", (1, 0)), 1, 0, 5), "need c >= 1, got 0"),
    (lambda: unit_to_koroljuk(_unit("VVV", (1, 0)), 1, 1, 5), "path must start at the origin, got (1, 0)"),
    (lambda: unit_to_koroljuk(_unit("VVV"), 1, 1, 5), "parameter mismatch: c + p*n - m = -2, got intercept 5"),
    (lambda: unit_to_koroljuk(_unit("VVV"), 1, 1), "need c + p*n - m >= 1, got -2"),
    (lambda: unit_to_koroljuk(_unit("HV"), 1, 1), "input path is not strictly above y = 1*x - 1"),
    (lambda: bohm_unrotate(_unit("HH"), 2), "bohm_unrotate expects an altitude walk"),
    (lambda: bohm_unrotate(LatticePath.decode("DDD", StepSet.bohm(1), (0, 1)), 2), "walk drops to altitude 0 < 1"),
    (lambda: bohm_unrotate(LatticePath.decode("UD", StepSet.bohm(1), (0, 1)), 2),
     "walk must start at (0, 2), got (0, 1)"),
    (lambda: bohm_to_unit(_WALK), "bohm_to_unit expects an altitude walk"),
    (lambda: bohm_to_unit(LatticePath.decode("DDD", StepSet.bohm(1), (0, 1))), "walk drops to altitude 0 < 1"),
    (lambda: unit_to_bohm(_WALK, 0, 0), "transform expects a unit path"),
    (lambda: unit_to_bohm(_unit("HV", (1, 0)), 0, 0), "need rise >= 1, got 0"),
    (lambda: unit_to_bohm(_unit("HV", (1, 0)), 1, 0), "need end_alt >= 1, got 0"),
    (lambda: unit_to_bohm(_unit("HV", (1, 0)), 1, 1), "path must start at the origin, got (1, 0)"),
    (lambda: unit_to_bohm(_unit("HV"), 1, 1), "input path is not strictly above y = 1*x - 1"),
], ids=[
    "drop_one-steps", "drop_one-slope", "drop_one-intercept", "drop_one-start", "drop_one-member",
    "raise_one-steps", "raise_one-slope", "raise_one-intercept", "raise_one-member",
    "lemma_translate-steps", "lemma_translate-slope", "lemma_translate-abscissa",
    "lemma_translate-ordinate", "lemma_translate-member",
    "lemma_translate_back-steps", "lemma_translate_back-slope", "lemma_translate_back-member",
    "reflect_inverse-steps", "reflect_inverse-slope", "reflect_inverse-kr", "reflect_inverse-member",
    "reflect_inverse_back-steps", "reflect_inverse_back-slope", "reflect_inverse_back-kr",
    "reflect_inverse_back-start", "reflect_inverse_back-member",
    "koroljuk_to_unit-steps", "koroljuk_to_unit-c", "koroljuk_to_unit-start", "koroljuk_to_unit-avoid",
    "bohm_rotate-steps", "bohm_rotate-c", "bohm_rotate-start", "bohm_rotate-avoid",
    "unit_to_koroljuk-steps", "unit_to_koroljuk-p", "unit_to_koroljuk-c", "unit_to_koroljuk-start",
    "unit_to_koroljuk-intercept", "unit_to_koroljuk-v", "unit_to_koroljuk-member",
    "bohm_unrotate-steps", "bohm_unrotate-altitude", "bohm_unrotate-start",
    "bohm_to_unit-steps", "bohm_to_unit-altitude",
    "unit_to_bohm-steps", "unit_to_bohm-rise", "unit_to_bohm-end_alt", "unit_to_bohm-start",
    "unit_to_bohm-member",
])
def test_each_check_of_each_map_keeps_its_message(call, message):
    with pytest.raises(ValidationError) as excinfo:
        call()
    assert str(excinfo.value) == message


@given(st.text(alphabet="HV", max_size=8), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=3))
def test_drop_one_round_trip_property(text, k, r):
    line = integer_slope(k, r)
    path = LatticePath.decode(text, UNIT, (0, max(1, 1 - r)))
    if not path_above(path, line, STRICT):
        return
    image = drop_one(path, line)
    assert path_above(image, line, WEAK)
    assert raise_one(image, line) == path
