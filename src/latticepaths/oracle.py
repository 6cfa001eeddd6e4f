"""Independent ground truth: tabulated counts and exhaustive enumeration.

Everything here works from the path definitions alone, so the results are
trustworthy checks for the closed forms in ``formulas``, which this module
does not import.

Each family is a threshold map: paths take unit moves right and up through
a grid of cells (i, j), and cell (i, j) is open when j >= lo(i), the region
weakly above a line.  For unit paths i and j are the offsets of x and y from
the start, and the line is the query's boundary.  The walk families put the
counts of steps used of each kind on the two axes, and ``_map`` derives
their line from the family's condition.  Every lo is ``model._floors`` of
an integer linear form (exact ceiling arithmetic, no floating point).
``_map`` turns a ``PathQuery``, ``KoroljukQuery`` or ``BohmQuery`` into its
map and is the only code that tells the query kinds apart; each public
entry refuses a kind it does not document with TypeError.

One kernel tabulates a map and one walker yields its paths' words, the
strings of their step letters, one at a time.  Counts tabulate, for each
cell, the paths that end there, so their cost is the number of cells, and
tables of more than MAX_DP_CELLS cells are refused.  The kernel,
``_columns``, yields its running column after each column, so one
tabulation holds the count to every end point of the map from one start:
``dp_count`` and ``count_stepset`` keep only the far corner (O(height)
memory), and the private reader ``_table`` copies every column out for
the verification sweeps.  ``enumerate_paths`` and ``enumerate_stepset``
wrap each word as a ``LatticePath``, and the private reader ``_keys``
hands the bijection sweeps each path as its (start, word) key, the start
being the one ``_map`` gives the family.

Listings visit the members one by one and refuse more than
MAX_ENUMERATION_STEPS steps (a listing stays under roughly 17 million
sequences).
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterator

from .errors import ResourceLimitError
from .model import BohmQuery, KoroljukQuery, LatticePath, PathQuery, StepSet, _floors

MAX_ENUMERATION_STEPS = 24
MAX_DP_CELLS = 10**7


def _columns(width: int, height: int, lo: Callable[[int], int]) -> Iterator[list[int]]:
    """The running column after each column i of the threshold map: entry j
    counts the paths from cell (0, 0) to cell (i, j) through open cells.  One
    list is updated in place and yielded each time; readers copy what they keep."""
    if width < 1 or height < 1:
        return
    cells = width * height
    if cells > MAX_DP_CELLS:
        raise ResourceLimitError(f"a table of {cells} cells exceeds the {MAX_DP_CELLS}-cell budget")
    col = [1] + [0] * (height - 1)  # a virtual column -1 feeds the start
    for i in range(width):
        t = lo(i)
        acc = 0  # paths entering from below; a closed cell ends the vertical run
        for j in range(height):
            acc = acc + col[j] if j >= t else 0
            col[j] = acc
        yield col


def _walk(width: int, height: int, lo: Callable[[int], int], letters: str) -> Iterator[str]:
    """The words of the threshold map's paths, one at a time, in lexicographic
    order.  letters[0] names the step that moves to the next column,
    letters[1] the one to the next row.  A depth-first stack holds each open
    branch as (column, row, word so far): at most one per step, plus one."""
    if width < 1 or height < 1:
        return
    total = width + height - 2
    if total > MAX_ENUMERATION_STEPS:
        raise ResourceLimitError(
            f"enumeration of {total} steps exceeds the {MAX_ENUMERATION_STEPS}-step budget"
        )
    thresholds = [lo(i) for i in range(width)] + [height]  # the column past the end is closed
    if thresholds[0] > 0:
        return
    # Pushed in reverse letter order, so the smaller letter's branch pops first.
    moves = sorted([(letters[0], 1, 0), (letters[1], 0, 1)], reverse=True)
    last_i, last_j = width - 1, height - 1
    stack = [(0, 0, "")]
    while stack:
        i, j, word = stack.pop()
        if i == last_i and j == last_j:
            yield word
            continue
        for letter, di, dj in moves:
            if thresholds[i + di] <= j + dj < height:
                stack.append((i + di, j + dj, word + letter))


_PATHS = (PathQuery,)
_WALKS = (KoroljukQuery, BohmQuery)
_UNIT = StepSet.unit()

KoroljukSplit = namedtuple("KoroljukSplit", "avoiding intersecting")
KoroljukSplit.__doc__ = "Counts of (1,1)/(-p,1) walks split by whether they meet the line x = c."


def _map(q, kinds: tuple[type, ...] = _PATHS + _WALKS) -> tuple:
    """The threshold map of q, which must be one of ``kinds``: (width, height,
    lo, letters, start, step set, finish), where ``finish`` turns the count to
    the far corner into the count's value."""
    if not isinstance(q, kinds):
        expected = " or ".join(kind.__name__ for kind in kinds)
        raise TypeError(f"expected a {expected}, got {type(q).__name__}")
    if isinstance(q, PathQuery):
        # Columns x = a..m, rows y = b..n: the line's form, moved to the start.
        a, b, c = q.boundary._form(q.strictness)
        lo = _floors(a, b, a * q.b - b * q.a + c)
        return q.m - q.a + 1, q.n - q.b + 1, lo, "HV", (q.a, q.b), _UNIT, int
    if isinstance(q, KoroljukQuery):
        # Up-steps u on the columns, back-steps d on the rows.  The only rightward
        # step is +1, so avoiding x = c is staying left of it: p*d - u + c - 1 >= 0.
        lo = _floors(q.p, 1, q.c - 1)
        return q.m + 1, q.n + 1, lo, "UD", (0, 0), StepSet.koroljuk(q.p), (
            lambda kept: KoroljukSplit(kept, math.comb(q.m + q.n, q.n) - kept)
        )
    # Down-steps d on the columns, up-steps u on the rows: rise*u - d + start - 1 >= 0.
    lo = _floors(q.rise, 1, q.start_alt - 1)
    return q.down_steps + 1, q.ups + 1, lo, "DU", (0, q.start_alt), StepSet.bohm(q.rise), int


def _count(q, kinds: tuple[type, ...]):
    """The count of the paths from cell (0, 0) to the far corner of q's map."""
    width, height, lo, _, _, _, finish = _map(q, kinds)
    col = [0]  # an empty map has no paths
    for col in _columns(width, height, lo):
        pass
    return finish(col[-1])


def dp_count(q: PathQuery) -> int:
    """Count the paths of q by tabulating over the query rectangle.

    The start ordinate b may be negative (vertically shifted queries); the
    table simply extends down to cover it.  Unreachable end points give 0.
    Tables of more than MAX_DP_CELLS cells raise ResourceLimitError.
    """
    return _count(q, _PATHS)


def count_stepset(q: KoroljukQuery | BohmQuery) -> KoroljukSplit | int:
    """Step-by-step census of a two-letter step family, tabulated over
    (up-steps used, down-steps used); tables of more than MAX_DP_CELLS cells
    raise ResourceLimitError.

    KoroljukQuery: arrangements of m up-steps (1,1) and n back-steps (-p,1)
    from the origin, split by whether any visited point has abscissa c.
    Returns a KoroljukSplit.

    BohmQuery: arrangements of the query's up-steps (1,rise) and down-steps
    (1,-1) from the start altitude whose every visited altitude stays >= 1.
    Returns an int.
    """
    return _count(q, _WALKS)


def _table(q: PathQuery | KoroljukQuery | BohmQuery) -> list[list[int]]:
    """Every count of one tabulation: table[i][j] counts the paths of q's map
    to cell (i, j), as dp_count or count_stepset (Koroljuk: its avoiding
    walks) would for the query with that far corner."""
    return [col[:] for col in _columns(*_map(q)[:3])]


def _keys(q: PathQuery | KoroljukQuery | BohmQuery) -> list[tuple[tuple[int, int], str]]:
    """The (start, word) keys of q's listing, in its order."""
    width, height, lo, letters, start, _, _ = _map(q)
    return [(start, word) for word in _walk(width, height, lo, letters)]


def _listing(q, kinds: tuple[type, ...]) -> list[LatticePath]:
    step_set = _map(q, kinds)[5]
    return [LatticePath(start, word, step_set) for start, word in _keys(q)]


def enumerate_paths(q: PathQuery) -> list[LatticePath]:
    """All valid paths of q as unit-step LatticePath values, in lexicographic
    order of their H/V step strings.  len(result) == dp_count(q)."""
    return _listing(q, _PATHS)


def enumerate_stepset(q: KoroljukQuery | BohmQuery) -> list[LatticePath]:
    """The family members themselves (Koroljuk: avoiding walks only), in
    lexicographic order of their U/D step strings ('D' < 'U')."""
    return _listing(q, _WALKS)
