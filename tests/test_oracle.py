"""Tests for the oracle: tabulated counts and exhaustive enumeration."""

import math
from fractions import Fraction
from itertools import groupby, product

import pytest

from latticepaths import (
    BohmQuery,
    BoundaryLine,
    KoroljukQuery,
    PathQuery,
    ResourceLimitError,
    SlopeKind,
    Strictness,
    binomial,
    bohm,
    count_stepset,
    count_strict,
    count_weak_inv,
    dp_count,
    enumerate_paths,
    enumerate_stepset,
    integer_slope,
    inverse_slope,
    koroljuk_reduced,
    normalize_intercept,
)
from latticepaths.oracle import MAX_DP_CELLS, _table
from latticepaths.verify import KOROLJUK_GRID, _bohm_grid


WEAK = Strictness.WEAK
STRICT = Strictness.STRICT


def walk_census(q):
    """Reference census: walk every arrangement of the steps one by one."""
    if isinstance(q, KoroljukQuery):
        avoiding = intersecting = 0

        def rec(u, d, x, touched):
            nonlocal avoiding, intersecting
            if u == 0 and d == 0:
                if touched:
                    intersecting += 1
                else:
                    avoiding += 1
                return
            if u:
                rec(u - 1, d, x + 1, touched or x + 1 == q.c)
            if d:
                rec(u, d - 1, x - q.p, touched or x - q.p == q.c)

        rec(q.m, q.n, 0, q.c == 0)
        return (avoiding, intersecting)

    def walk(u, d, alt):
        if u == 0 and d == 0:
            return 1
        total = 0
        if u:
            total += walk(u - 1, d, alt + q.rise)
        if d and alt - 1 >= 1:
            total += walk(u, d - 1, alt - 1)
        return total

    return walk(q.ups, q.down_steps, q.start_alt)


def test_dp_count_examples():
    assert dp_count(PathQuery(0, 0, 1, 2, integer_slope(1, 1), STRICT)) == 2
    assert dp_count(PathQuery(0, 0, 2, 4, integer_slope(2, 0), WEAK)) == 3
    assert dp_count(PathQuery(2, 2, 2, 2, integer_slope(1, 0), WEAK)) == 1
    # An unreachable end and a start below the line have empty maps.
    assert dp_count(PathQuery(2, 2, 1, 1, integer_slope(1, 0), WEAK)) == 0
    assert dp_count(PathQuery(2, 1, 3, 5, integer_slope(1, 0), WEAK)) == 0


def test_dp_count_supports_negative_start_ordinate():
    assert dp_count(PathQuery(0, -1, 2, 2, integer_slope(1, 1), WEAK)) == 5


def test_enumerate_paths_examples():
    strict = PathQuery(0, 0, 1, 2, integer_slope(1, 1), STRICT)
    assert [p.encode() for p in enumerate_paths(strict)] == ["VHV", "VVH"]

    corner = PathQuery(1, 1, 2, 2, integer_slope(1, 0), WEAK)
    assert [p.encode() for p in enumerate_paths(corner)] == ["VH"]

    empty = PathQuery(1, 1, 1, 1, integer_slope(1, 0), WEAK)
    paths = enumerate_paths(empty)
    assert len(paths) == 1 and paths[0].steps == ()

    unreachable = PathQuery(2, 2, 1, 1, integer_slope(1, 0), WEAK)
    below = PathQuery(2, 1, 3, 5, integer_slope(1, 0), WEAK)
    assert enumerate_paths(unreachable) == enumerate_paths(below) == []


def test_enumerate_paths_is_lexicographic_and_matches_dp():
    for q in (
        PathQuery(0, 0, 4, 4, integer_slope(1, 0), WEAK),
        PathQuery(0, 0, 3, 4, integer_slope(1, 1), STRICT),
        PathQuery(0, 0, 4, 2, inverse_slope(2, 0), WEAK),
        PathQuery(0, 1, 4, 2, inverse_slope(2, 1), STRICT),
    ):
        paths = enumerate_paths(q)
        encodings = [p.encode() for p in paths]
        assert encodings == sorted(encodings)
        assert len(set(encodings)) == len(encodings)
        assert len(paths) == dp_count(q)


def test_enumerate_paths_guard():
    q = PathQuery(0, 0, 20, 20, integer_slope(1, 0), WEAK)
    with pytest.raises(ResourceLimitError):
        enumerate_paths(q)


_UNIT_QUERY = PathQuery(0, 0, 2, 2, integer_slope(1, 0), WEAK)
_NOT_A_QUERY = (0, 0, 2, 2)
_REFUSALS = [
    (dp_count, KoroljukQuery(1, 2, 2, 1), "expected a PathQuery, got KoroljukQuery"),
    (dp_count, BohmQuery(1, 2, 1, 2), "expected a PathQuery, got BohmQuery"),
    (dp_count, _NOT_A_QUERY, "expected a PathQuery, got tuple"),
    (enumerate_paths, KoroljukQuery(1, 2, 2, 1), "expected a PathQuery, got KoroljukQuery"),
    (enumerate_paths, BohmQuery(1, 2, 1, 2), "expected a PathQuery, got BohmQuery"),
    (enumerate_paths, _NOT_A_QUERY, "expected a PathQuery, got tuple"),
    (count_stepset, _UNIT_QUERY, "expected a KoroljukQuery or BohmQuery, got PathQuery"),
    (count_stepset, _NOT_A_QUERY, "expected a KoroljukQuery or BohmQuery, got tuple"),
    (enumerate_stepset, _UNIT_QUERY, "expected a KoroljukQuery or BohmQuery, got PathQuery"),
    (enumerate_stepset, _NOT_A_QUERY, "expected a KoroljukQuery or BohmQuery, got tuple"),
]


@pytest.mark.parametrize("entry, q, message", [
    pytest.param(*case, id=f"{case[0].__name__}-{type(case[1]).__name__}") for case in _REFUSALS
])
def test_each_entry_refuses_the_query_kinds_it_does_not_document(entry, q, message):
    with pytest.raises(TypeError) as excinfo:
        entry(q)
    assert str(excinfo.value) == message


def test_count_stepset_koroljuk_examples():
    split = count_stepset(KoroljukQuery(1, 2, 2, 1))
    assert (split.avoiding, split.intersecting) == (2, 1)
    split = count_stepset(KoroljukQuery(1, 10, 2, 1))
    assert (split.avoiding, split.intersecting) == (3, 0)


def test_count_stepset_totals_are_binomial():
    for p in (1, 2, 3):
        for c in (1, 2, 5):
            for m in (1, 2, 4):
                for n in (1, 2):
                    split = count_stepset(KoroljukQuery(p, c, m, n))
                    assert split.avoiding + split.intersecting == binomial(m + n, n)


def test_count_stepset_koroljuk_matches_walk_census():
    for p in (1, 2, 3):
        for c in range(1, 10):
            for m in range(1, 14):
                for n in range(1, 15 - m):
                    q = KoroljukQuery(p, c, m, n)
                    assert tuple(count_stepset(q)) == walk_census(q), q


def test_count_stepset_bohm_matches_walk_census():
    for rise in (1, 2, 3):
        for start in range(1, 6):
            for end in range(1, 6):
                for ups in range(17):
                    downs = start + rise * ups - end
                    if downs < 0 or ups + downs > 16:
                        continue
                    q = BohmQuery(rise, start, end, ups)
                    assert count_stepset(q) == walk_census(q), q


def test_count_stepset_step_budget():
    split = count_stepset(KoroljukQuery(1, 3, 12, 12))
    assert split.avoiding + split.intersecting == binomial(24, 12)
    # The census is bounded by cells, not steps: 25 steps are answered.
    q = KoroljukQuery(1, 3, 13, 12)
    split = count_stepset(q)
    assert split.avoiding == count_strict(1, 3 + 12 - 13, 0, 0, 12, 13)
    assert split.intersecting == koroljuk_reduced(q)
    q = BohmQuery(1, 2, 1, 12)
    assert count_stepset(q) == bohm(q)
    # The second is a strip of two rows, refused before any of its 10**9 columns is built.
    for q in (KoroljukQuery(1, 1, 10**4, 10**4), KoroljukQuery(1, 1, 10**9, 1)):
        with pytest.raises(ResourceLimitError, match="cell budget"):
            count_stepset(q)


def test_count_stepset_matches_closed_forms_on_large_instances():
    for p in (1, 2, 3):
        for total in (200, 400, 600):
            for shift in (-3, 3):  # -3 puts the small c below the feasibility line v = 1
                n = total // (p + 1) + shift
                m = total - n
                for c in (1, 9, 60):
                    q = KoroljukQuery(p, c, m, n)
                    split = count_stepset(q)
                    v = c + p * n - m
                    assert split.avoiding == (count_strict(p, v, 0, 0, n, m) if v >= 1 else 0), q
                    assert split.intersecting == koroljuk_reduced(q), q
    for rise in (1, 2, 3):
        for ups in (100, 300):
            for start, end in ((1, 1), (4, 9)):
                q = BohmQuery(rise, start, end, ups)
                assert count_stepset(q) == bohm(q), q


def test_walk_censuses_are_unit_paths_weakly_above_an_inverse_slope_line():
    # Koroljuk: u up-steps and d back-steps avoid x = c when d >= (u - c + 1)/p.
    for p, c, m, n in KOROLJUK_GRID:
        line = inverse_slope(p, Fraction(c - 1, p))
        avoiding = count_stepset(KoroljukQuery(p, c, m, n)).avoiding
        assert avoiding == dp_count(PathQuery(0, 0, m, n, line, WEAK)), (p, c, m, n)
        if c + p * n - m >= 1:
            assert avoiding == count_weak_inv(p, line.r, 0, 0, m, n), (p, c, m, n)
    # Böhm: d down-steps and u up-steps keep altitude >= 1 when u >= (d - start + 1)/rise.
    for q in _bohm_grid():
        line = inverse_slope(q.rise, Fraction(q.start_alt - 1, q.rise))
        census = count_stepset(q)
        assert census == dp_count(PathQuery(0, 0, q.down_steps, q.ups, line, WEAK)), q
        assert census == count_weak_inv(q.rise, line.r, 0, 0, q.down_steps, q.ups), q


@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_cell_of_a_dp_table_is_the_dp_count_of_its_end_point(k):
    intercepts = sorted({Fraction(num, den) for den in range(1, 6) for num in (-3, 1, 2 * den + 1)})
    starts = [(0, 0), (1, -2), (-1, 1), (2, 3)]
    for kind, strictness, r, (a, b) in product(SlopeKind, Strictness, intercepts, starts):
        line = BoundaryLine(kind, k, r)
        table = _table(PathQuery(a, b, a + 4, b + 6, line, strictness))
        assert [len(col) for col in table] == [7] * 5
        for i, j in product(range(5), range(7)):
            q = PathQuery(a, b, a + i, b + j, line, strictness)
            assert table[i][j] == dp_count(q), q


def test_every_cell_of_a_census_table_is_the_count_stepset_of_its_corner():
    for (p, c), group in groupby(KOROLJUK_GRID, lambda t: t[:2]):
        group = list(group)
        table = _table(KoroljukQuery(p, c, max(t[2] for t in group), 4))
        for _, _, m, n in group:
            assert table[m][n] == count_stepset(KoroljukQuery(p, c, m, n)).avoiding, (p, c, m, n)
    for q in _bohm_grid():
        # The far corner: five up-steps down to altitude 1, the most down-steps of the grid.
        table = _table(BohmQuery(q.rise, q.start_alt, 1, 5))
        assert table[q.down_steps][q.ups] == count_stepset(q), q


def test_dp_count_cell_budget():
    side = math.isqrt(MAX_DP_CELLS)  # (side + 1)^2 cells exceed the budget
    for q in (
        PathQuery(0, 0, side, side, integer_slope(1, 0), WEAK),
        PathQuery(-1, 0, MAX_DP_CELLS - 1, 0, integer_slope(1, 10), WEAK),
    ):
        with pytest.raises(ResourceLimitError, match="cell budget"):
            dp_count(q)


def test_count_stepset_bohm_examples():
    assert count_stepset(BohmQuery(1, 2, 1, 2)) == 5
    assert count_stepset(BohmQuery(2, 1, 1, 1)) == 1
    assert count_stepset(BohmQuery(1, 3, 2, 0)) == 1


def test_enumerate_stepset_koroljuk_lists_avoiding_walks():
    walks = enumerate_stepset(KoroljukQuery(1, 2, 2, 1))
    encodings = [w.encode() for w in walks]
    assert encodings == sorted(encodings)
    assert len(walks) == count_stepset(KoroljukQuery(1, 2, 2, 1)).avoiding
    for walk in walks:
        assert all(point[0] < 2 for point in walk.points())


def test_enumerate_stepset_bohm_matches_count():
    q = BohmQuery(1, 2, 1, 2)
    walks = enumerate_stepset(q)
    assert len(walks) == count_stepset(q)
    for walk in walks:
        assert all(point[1] >= 1 for point in walk.points())


def test_dp_count_invariant_under_intercept_normalization():
    for r in (Fraction(1, 2), Fraction(5, 2), Fraction(-1, 2), Fraction(2, 3)):
        line = integer_slope(2, r)
        snapped = normalize_intercept(line)
        for strictness in (WEAK, STRICT):
            q = PathQuery(0, 0, 2, 5, line, strictness)
            q_snapped = PathQuery(0, 0, 2, 5, snapped, WEAK)
            assert dp_count(q) == dp_count(q_snapped)
