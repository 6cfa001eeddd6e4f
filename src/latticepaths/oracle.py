"""Independent ground truth: tabulated counts and exhaustive enumeration.

Everything here works from the path definitions alone, so the results are
trustworthy checks for the closed forms in ``formulas``, which this module
does not import.

Each family is a threshold map: paths take unit moves right and up through
a grid of cells (i, j), and cell (i, j) is open when j >= lo(i), the region
weakly above a line.  For unit paths i and j are the offsets of x and y from
the start, and the line is the query's boundary.  The walk families put the
counts of steps used of each kind on the two axes, and the line is the one
``model`` derives for them.  Every lo is ``model._floors`` of an integer
linear form (exact ceiling arithmetic, no floating point).  One kernel
tabulates a map and one walker lists its paths, each as the word of its
step letters.

Counts tabulate, for each cell, the paths that end there, so their cost is
the number of cells, and tables of more than MAX_DP_CELLS cells are
refused.  The kernel, ``_columns``, yields its running column after each
column, so one tabulation holds the count to every end point of the map
from one start: ``dp_count`` and ``count_stepset`` keep only the far corner
(O(height) memory), and the private readers ``_dp_table`` and
``_census_table`` copy every column out for the verification sweeps, which
check many end points against one line and start.

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


def _tabulate(width: int, height: int, lo: Callable[[int], int]) -> int:
    """Paths from cell (0, 0) to cell (width-1, height-1) through open cells."""
    col = [0]  # an empty map has no paths
    for col in _columns(width, height, lo):
        pass
    return col[-1]


def _walk(
    width: int,
    height: int,
    lo: Callable[[int], int],
    letters: str,
    start: tuple[int, int],
    step_set: StepSet,
) -> list[LatticePath]:
    """The paths of the threshold map as LatticePath values from start, in
    lexicographic order of their step strings.  letters[0] names the step
    that moves to the next column, letters[1] the one to the next row."""
    if width < 1 or height < 1:
        return []
    total = width + height - 2
    if total > MAX_ENUMERATION_STEPS:
        raise ResourceLimitError(
            f"enumeration of {total} steps exceeds the {MAX_ENUMERATION_STEPS}-step budget"
        )
    thresholds = [lo(i) for i in range(width)] + [height]  # the column past the end is closed
    moves = sorted([(letters[0], 1, 0), (letters[1], 0, 1)])  # letter order is output order
    out: list[LatticePath] = []
    word: list[str] = []

    def rec(i: int, j: int) -> None:
        if i == width - 1 and j == height - 1:
            out.append(LatticePath(start, "".join(word), step_set))
            return
        for letter, di, dj in moves:
            if thresholds[i + di] <= j + dj < height:
                word.append(letter)
                rec(i + di, j + dj)
                word.pop()

    if thresholds[0] <= 0:
        rec(0, 0)
    return out


def _unit_map(q: PathQuery) -> tuple[int, int, Callable[[int], int]]:
    """Columns x = a..m, rows y = b..n: the line's form, moved to the start."""
    a, b, c = q.boundary._form(q.strictness)
    return q.m - q.a + 1, q.n - q.b + 1, _floors(a, b, a * q.b - b * q.a + c)


def dp_count(q: PathQuery) -> int:
    """Count the paths of q by tabulating over the query rectangle.

    The start ordinate b may be negative (vertically shifted queries); the
    table simply extends down to cover it.  Unreachable end points give 0.
    Tables of more than MAX_DP_CELLS cells raise ResourceLimitError.
    """
    return _tabulate(*_unit_map(q))


def _dp_table(q: PathQuery) -> list[list[int]]:
    """All the counts of one tabulation: table[i][j] is dp_count from (a, b)
    to (a+i, b+j) under q's line and mode, for 0 <= i <= m-a and 0 <= j <= n-b."""
    return [col[:] for col in _columns(*_unit_map(q))]


def enumerate_paths(q: PathQuery) -> list[LatticePath]:
    """All valid paths of q as unit-step LatticePath values, in lexicographic
    order of their H/V step strings.  len(result) == dp_count(q)."""
    return _walk(*_unit_map(q), "HV", (q.a, q.b), StepSet.unit())


KoroljukSplit = namedtuple("KoroljukSplit", "avoiding intersecting")
KoroljukSplit.__doc__ = "Counts of (1,1)/(-p,1) walks split by whether they meet the line x = c."


def _stepset_map(q: KoroljukQuery | BohmQuery, caller: str) -> tuple:
    """The threshold map of a walk family, with its step letters, start and step set."""
    if isinstance(q, KoroljukQuery):
        # Up-steps u on the columns, back-steps d on the rows.  The only rightward
        # step is +1, so avoiding x = c is staying left of it: p*d - u + c - 1 >= 0.
        lo = _floors(q.p, 1, q.c - 1)
        return q.m + 1, q.n + 1, lo, "UD", (0, 0), StepSet.koroljuk(q.p)
    if isinstance(q, BohmQuery):
        # Down-steps d on the columns, up-steps u on the rows: rise*u - d + start - 1 >= 0.
        lo = _floors(q.rise, 1, q.start_alt - 1)
        return q.down_steps + 1, q.ups + 1, lo, "DU", (0, q.start_alt), StepSet.bohm(q.rise)
    raise TypeError(f"{caller} takes a KoroljukQuery or BohmQuery, got {type(q).__name__}")


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
    width, height, lo, *_ = _stepset_map(q, "count_stepset")
    kept = _tabulate(width, height, lo)
    if isinstance(q, KoroljukQuery):
        return KoroljukSplit(kept, math.comb(q.m + q.n, q.n) - kept)
    return kept


def _census_table(q: KoroljukQuery | BohmQuery) -> list[list[int]]:
    """All the counts of one census, with q's step counts as the far corner.
    Koroljuk: table[u][d] is the walks of u up-steps and d back-steps that
    avoid x = c.  Böhm: table[d][u] is the count_stepset of d down-steps and
    u up-steps from the start altitude."""
    width, height, lo, *_ = _stepset_map(q, "_census_table")
    return [col[:] for col in _columns(width, height, lo)]


def enumerate_stepset(q: KoroljukQuery | BohmQuery) -> list[LatticePath]:
    """The family members themselves (Koroljuk: avoiding walks only), in
    lexicographic order of their U/D step strings ('D' < 'U')."""
    return _walk(*_stepset_map(q, "enumerate_stepset"))
