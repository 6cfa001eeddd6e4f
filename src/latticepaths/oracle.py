"""Independent ground truth: tabulated counts and exhaustive enumeration.

Everything here works from the path definitions alone (visit points one
step at a time and test each against the boundary), so the results are
trustworthy checks for the closed forms in ``formulas``.  That module is
imported only for its frozen query dataclasses, never for its arithmetic.

The counts tabulate, for each point, the valid arrangements that end there,
so their cost is polynomial; the enumerations list the members one by one.

The boundary test is hoisted out of the inner loops: for a fixed abscissa x
the constraint is "y at least some integer threshold", and the threshold is
exact ceiling arithmetic on the rational boundary value (see
``model.min_ordinate_above``).  No floating point anywhere.

Enumerations and step-set censuses refuse to run above MAX_ENUMERATION_STEPS
total steps (an enumeration stays under roughly 17 million sequences), and
``dp_count`` refuses tables of more than MAX_DP_CELLS cells.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ResourceLimitError
from .formulas import BohmQuery, KoroljukQuery
from .model import LatticePath, PathQuery, StepSet, min_ordinate_above

MAX_ENUMERATION_STEPS = 24
MAX_DP_CELLS = 10**7


def _guard_steps(total: int) -> None:
    if total > MAX_ENUMERATION_STEPS:
        raise ResourceLimitError(
            f"enumeration of {total} steps exceeds the {MAX_ENUMERATION_STEPS}-step budget"
        )


def dp_count(q: PathQuery) -> int:
    """Count the paths of q by tabulating over the query rectangle.

    The start ordinate b may be negative (vertically shifted queries); the
    table simply extends down to cover it.  Unreachable end points give 0.
    Tables of more than MAX_DP_CELLS cells raise ResourceLimitError.
    """
    a, b, m, n = q.a, q.b, q.m, q.n
    if a > m or b > n:
        return 0
    height = n - b + 1
    cells = (m - a + 1) * height
    if cells > MAX_DP_CELLS:
        raise ResourceLimitError(f"a table of {cells} cells exceeds the {MAX_DP_CELLS}-cell budget")
    thresholds = [min_ordinate_above(q.boundary, x, q.strictness) for x in range(a, m + 1)]
    # Column at x = a: only the straight vertical prefix is reachable.
    col = [0] * height
    if b >= thresholds[0]:
        col[0] = 1
        for j in range(1, height):
            col[j] = col[j - 1]  # (a, b+j) valid because b+j > b >= threshold
    for x in range(a + 1, m + 1):
        t = thresholds[x - a]
        new = [0] * height
        acc = 0
        for j in range(height):
            if b + j >= t:
                acc += col[j]
            else:
                acc = 0  # below the line: unreachable, and resets the vertical run
            new[j] = acc
        col = new
    return col[height - 1]


def enumerate_paths(q: PathQuery) -> list[LatticePath]:
    """All valid paths of q as unit-step LatticePath values, in lexicographic
    order of their H/V step strings.  len(result) == dp_count(q)."""
    a, b, m, n = q.a, q.b, q.m, q.n
    if a > m or b > n:
        return []
    _guard_steps((m - a) + (n - b))
    thresholds = [min_ordinate_above(q.boundary, x, q.strictness) for x in range(a, m + 1)]
    if b < thresholds[0]:
        return []
    unit = StepSet.unit()
    out: list[LatticePath] = []
    steps: list[tuple[int, int]] = []

    def walk(x: int, y: int) -> None:
        if x == m and y == n:
            out.append(LatticePath((a, b), tuple(steps), unit))
            return
        # H first: 'H' < 'V' gives lexicographic output order.
        if x < m and y >= thresholds[x - a + 1]:
            steps.append((1, 0))
            walk(x + 1, y)
            steps.pop()
        if y < n:  # y+1 > y >= threshold at this abscissa, so always valid
            steps.append((0, 1))
            walk(x, y + 1)
            steps.pop()

    walk(a, b)
    return out


class KoroljukSplit(NamedTuple):
    """Counts of (1,1)/(-p,1) walks split by whether they meet the line x = c."""

    avoiding: int
    intersecting: int


def count_stepset(q: KoroljukQuery | BohmQuery) -> KoroljukSplit | int:
    """Step-by-step census of a two-letter step family.

    Tabulates over (up-steps used, down-steps used): each cell holds the
    counts of the arrangements that end there, and the point a cell stands
    for is tested against the definition as the paths enter it.

    KoroljukQuery: arrangements of m up-steps (1,1) and n back-steps (-p,1)
    from the origin, split by whether any visited point has abscissa c.  A
    cell at abscissa u - p*d = c moves all of its paths to "intersecting".
    Returns a KoroljukSplit.

    BohmQuery: arrangements of the query's up-steps (1,rise) and down-steps
    (1,-1) from the start altitude whose every visited altitude stays >= 1.
    A cell at altitude start + rise*u - d < 1 holds 0.  Returns an int.
    """
    if isinstance(q, KoroljukQuery):
        p, c, m, n = q.p, q.c, q.m, q.n
        _guard_steps(m + n)
        # Row u of the table, indexed by d; a virtual row -1 feeds the start.
        avoiding, intersecting = [1] + [0] * n, [0] * (n + 1)
        for u in range(m + 1):
            for d in range(n + 1):
                avoid = avoiding[d] + (avoiding[d - 1] if d else 0)
                meet = intersecting[d] + (intersecting[d - 1] if d else 0)
                if u - p * d == c:
                    avoid, meet = 0, avoid + meet
                avoiding[d], intersecting[d] = avoid, meet
        return KoroljukSplit(avoiding[n], intersecting[n])

    if isinstance(q, BohmQuery):
        rise, start, ups, downs = q.rise, q.start_alt, q.ups, q.down_steps
        _guard_steps(ups + downs)
        ways = [1] + [0] * downs  # as for Koroljuk, a virtual row -1 feeds the start
        for u in range(ups + 1):
            for d in range(downs + 1):
                w = ways[d] + (ways[d - 1] if d else 0)
                ways[d] = w if start + rise * u - d >= 1 else 0
        return ways[downs]

    raise TypeError(f"count_stepset takes a KoroljukQuery or BohmQuery, got {type(q).__name__}")


def enumerate_stepset(q: KoroljukQuery | BohmQuery) -> list[LatticePath]:
    """The family members themselves (Koroljuk: avoiding walks only), in
    lexicographic order of their U/D step strings ('D' < 'U')."""
    out: list[LatticePath] = []
    if isinstance(q, KoroljukQuery):
        _guard_steps(q.m + q.n)
        step_set = StepSet.koroljuk(q.p)
        up, down = (1, 1), (-q.p, 1)
        steps: list[tuple[int, int]] = []

        def rec(u: int, d: int, x: int) -> None:
            if u == 0 and d == 0:
                out.append(LatticePath((0, 0), tuple(steps), step_set))
                return
            if d and x - q.p != q.c:
                steps.append(down)
                rec(u, d - 1, x - q.p)
                steps.pop()
            if u and x + 1 != q.c:
                steps.append(up)
                rec(u - 1, d, x + 1)
                steps.pop()

        rec(q.m, q.n, 0)  # the start (0,0) itself never touches: c >= 1
        return out

    if isinstance(q, BohmQuery):
        downs = q.down_steps
        _guard_steps(q.ups + downs)
        step_set = StepSet.bohm(q.rise)
        up, down = (1, q.rise), (1, -1)
        steps = []

        def walk(u: int, d: int, alt: int) -> None:
            if u == 0 and d == 0:
                out.append(LatticePath((0, q.start_alt), tuple(steps), step_set))
                return
            if d and alt - 1 >= 1:
                steps.append(down)
                walk(u, d - 1, alt - 1)
                steps.pop()
            if u:
                steps.append(up)
                walk(u - 1, d, alt + q.rise)
                steps.pop()

        walk(q.ups, downs, q.start_alt)
        return out

    raise TypeError(f"enumerate_stepset takes a KoroljukQuery or BohmQuery, got {type(q).__name__}")
