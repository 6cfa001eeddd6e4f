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
