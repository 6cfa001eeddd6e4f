"""Executable path correspondences, each a total map with a declared inverse.

Every transform takes explicit paths (``model.LatticePath``), validates that
the input belongs to the declared source family, and returns the image path.
Membership above a line is decided in integers, point by point, against the
threshold ``model.min_ordinate_above``.  The bijection claims (image lands in
the target family, injectivity, matching cardinalities, round trips) are
enforced by the oracle-backed test sweeps rather than re-checked inside each call.

The unit-path transforms relate strict and weak families above integer- and
inverse-slope lines.  The four translations share one helper that runs their
checks in a fixed order and shifts the start:

* ``drop_one`` / ``raise_one``: strictly above y = k*x - r from (a, b)
  versus weakly above from (a, b-1), same steps.
* ``lemma_translate`` / ``lemma_translate_back``: weakly above y = k*x - r
  from (a, b) versus from (a-1, b-k), same steps.
* ``reflect_inverse`` / ``reflect_inverse_back``: weakly above y = x/k - r
  versus weakly above y = k*x, by reversing the step order and swapping the
  horizontal and vertical roles.

The two-letter walk transforms realize the geometric correspondence between
walks with steps (1,1)/(-p,1) avoiding the vertical line x = c, positive
altitude walks with steps (1,p)/(1,-1), and unit paths strictly above
y = p*x - v.  The continuous rotations behind them pass through irrational
coordinates, so they are realized here as integer step-sequence maps whose
correctness rests on the exhaustive small-instance tests.  Like the
reflection, each walk map is a step relabelling through one table.
"""

from __future__ import annotations

from .errors import ValidationError, require
from .model import (
    BoundaryLine,
    LatticePath,
    SlopeKind,
    StepKind,
    StepSet,
    Strictness,
    integer_slope,
    path_above,
)

_H = (1, 0)
_V = (0, 1)
_SWAP = {_H: _V, _V: _H}


def _require_unit(path: LatticePath) -> None:
    require(path.step_set.kind is StepKind.UNIT, "transform expects a unit path")


def _recode(
    path: LatticePath, table: dict, step_set: StepSet, start: tuple[int, int], reverse: bool = True
) -> LatticePath:
    """Relabel every step of ``path`` through ``table``, in reverse order when
    ``reverse`` is set, as a path of ``step_set`` from ``start``."""
    steps = reversed(path.steps) if reverse else path.steps
    return LatticePath(start, tuple(table[s] for s in steps), step_set)


def _require_above(
    path: LatticePath, line: BoundaryLine, strictness: Strictness, where: str = "the line"
) -> None:
    if not path_above(path, line, strictness):
        raise ValidationError(f"input path is not {strictness.value}ly above {where}")


def _translate(
    path: LatticePath, line: BoundaryLine, name: str, strictness: Strictness,
    shift: tuple[int, int], *conditions: tuple[bool, str],
) -> LatticePath:
    """Check a unit path and an integer-slope line, each (condition, message)
    pair in turn, then membership; return the path moved by ``shift``."""
    _require_unit(path)
    require(line.kind is SlopeKind.INTEGER, f"{name} works above integer-slope lines")
    for condition, message in conditions:
        require(condition, message)
    _require_above(path, line, strictness)
    (x, y), (dx, dy) = path.start, shift
    return LatticePath((x + dx, y + dy), path.steps, path.step_set)


def drop_one(path: LatticePath, line: BoundaryLine) -> LatticePath:
    """Lower a strictly-above path by one vertical unit.

    Source: unit paths from (a, b), b >= 1, strictly above y = k*x - r with
    integral r.  Image: the same step sequence from (a, b-1), weakly above
    the same line.  Inverse: ``raise_one``.
    """
    return _translate(
        path, line, "drop_one", Strictness.STRICT, (0, -1),
        (line.r.denominator == 1, "drop_one needs an integral intercept"),
        (path.start[1] >= 1, f"start ordinate must be >= 1, got {path.start[1]}"),
    )


def raise_one(path: LatticePath, line: BoundaryLine) -> LatticePath:
    """Inverse of ``drop_one``: lift a weakly-above path by one vertical unit."""
    return _translate(
        path, line, "raise_one", Strictness.WEAK, (0, 1),
        (line.r.denominator == 1, "raise_one needs an integral intercept"),
    )


def lemma_translate(path: LatticePath, line: BoundaryLine) -> LatticePath:
    """Translate a weakly-above path by (-1, -k), following the line's slope.

    Source: unit paths from (a, b) weakly above y = k*x - r with a >= 1 and
    b >= k (so the image stays in the first quadrant).  Image: the same
    step sequence from (a-1, b-k), weakly above the same line.  Inverse:
    ``lemma_translate_back``.
    """
    return _translate(
        path, line, "lemma_translate", Strictness.WEAK, (-1, -line.k),
        (path.start[0] >= 1, f"start abscissa must be >= 1, got {path.start[0]}"),
        (path.start[1] >= line.k, f"start ordinate must be >= k = {line.k}, got {path.start[1]}"),
    )


def lemma_translate_back(path: LatticePath, line: BoundaryLine) -> LatticePath:
    """Inverse of ``lemma_translate``: translate by (+1, +k)."""
    return _translate(path, line, "lemma_translate_back", Strictness.WEAK, (1, line.k))


def _integral_kr(path: LatticePath, line: BoundaryLine, kind_message: str) -> int:
    """Check a unit path and an inverse-slope line with k*r integral; return k*r."""
    _require_unit(path)
    require(line.kind is SlopeKind.INVERSE, kind_message)
    kr = line.k * line.r
    require(kr.denominator == 1, f"need k*r integral, got k*r = {kr}")
    return int(kr)


def reflect_inverse(path: LatticePath, line: BoundaryLine) -> LatticePath:
    """Reflect a path above an inverse-slope line onto one above y = k*x.

    Source: unit paths from (a, b) to (m, n) weakly above y = x/k - r with
    k*r integral.  Image: reverse the step order and swap H with V; the
    image runs from (0, k*(n+r) - m) to (n - b, k*(n+r) - a) and is weakly
    above y = k*x.  Inverse: ``reflect_inverse_back``.
    """
    kr = _integral_kr(path, line, "reflect_inverse works above inverse-slope lines")
    _require_above(path, line, Strictness.WEAK)
    m, n = path.end
    return _recode(path, _SWAP, path.step_set, (0, line.k * n + kr - m))


def reflect_inverse_back(
    path: LatticePath, line: BoundaryLine, end: tuple[int, int]
) -> LatticePath:
    """Inverse of ``reflect_inverse`` for the source family ending at ``end``.

    ``line`` is the source family's inverse-slope boundary and ``end`` its
    end point (m, n); these fix the image family start (0, k*(n+r) - m),
    which the input must match.  Returns the unique source path whose image
    is ``path``.
    """
    kr = _integral_kr(path, line, "reflect_inverse_back works with inverse-slope lines")
    m, n = end
    image_start = (0, line.k * n + kr - m)
    require(
        path.start == image_start,
        f"parameter mismatch: image paths start at {image_start}, got {path.start}",
    )
    _require_above(path, integer_slope(line.k, 0), Strictness.WEAK, "y = k*x")
    end_x, end_y = path.end
    source_start = (line.k * n + kr - end_y, n - end_x)
    return _recode(path, _SWAP, path.step_set, source_start)


def _check_avoiding(path: LatticePath, c: int) -> int:
    """Validate a walk with steps (1,1)/(-p,1) from the origin avoiding x = c.

    Returns the walk's backjump parameter p.
    """
    require(path.step_set.kind is StepKind.KOROLJUK, "transform expects a (1,1)/(-p,1) walk")
    require(c >= 1, f"the avoided line x = c needs c >= 1, got {c}")
    require(path.start == (0, 0), f"walk must start at the origin, got {path.start}")
    for x, _ in path.points():
        if x >= c:
            raise ValidationError(f"walk touches or crosses x = {c} at abscissa {x}")
    return path.step_set.param


def _check_positive(path: LatticePath, name: str) -> int:
    """Validate an altitude walk of transform ``name`` and return its rise."""
    require(path.step_set.kind is StepKind.BOHM, f"{name} expects an altitude walk")
    for _, alt in path.points():
        if alt < 1:
            raise ValidationError(f"walk drops to altitude {alt} < 1")
    return path.step_set.param


def koroljuk_to_unit(path: LatticePath, c: int) -> LatticePath:
    """Map a walk avoiding x = c to a unit path strictly above y = p*x - v.

    Source: walks with m steps U=(1,1) and n steps D=(-p,1) from the origin,
    never visiting abscissa c.  Image: reverse the step order and map
    U -> V, D -> H; the image runs from (0,0) to (n, m) and stays strictly
    above y = p*x - v with v = c + p*n - m (>= 1 for any avoiding walk).
    Inverse: ``unit_to_koroljuk``.
    """
    p = _check_avoiding(path, c)
    return _recode(path, {(1, 1): _V, (-p, 1): _H}, StepSet.unit(), (0, 0))


def unit_to_koroljuk(
    path: LatticePath, p: int, c: int, intercept: int | None = None
) -> LatticePath:
    """Inverse of ``koroljuk_to_unit``.

    Source: unit paths from (0,0) to (n, m) strictly above y = p*x - v with
    v = c + p*n - m >= 1.  ``intercept``, when given, must equal that v;
    this guards callers that computed v independently.  Image: reverse the
    step order and map V -> U=(1,1), H -> D=(-p,1).
    """
    _require_unit(path)
    require(p >= 1, f"need p >= 1, got {p}")
    require(c >= 1, f"need c >= 1, got {c}")
    require(path.start == (0, 0), f"path must start at the origin, got {path.start}")
    n, m = path.end
    v = c + p * n - m
    require(
        intercept is None or intercept == v,
        f"parameter mismatch: c + p*n - m = {v}, got intercept {intercept}",
    )
    require(v >= 1, f"need c + p*n - m >= 1, got {v}")
    _require_above(path, integer_slope(p, v), Strictness.STRICT, f"y = {p}*x - {v}")
    return _recode(path, {_V: (1, 1), _H: (-p, 1)}, StepSet.koroljuk(p), (0, 0))


def bohm_rotate(path: LatticePath, c: int) -> LatticePath:
    """Rotate a walk avoiding x = c into a positive-altitude walk.

    Source: as ``koroljuk_to_unit``.  The rotation maps each visited point
    (x, y) to (y, c - x), preserving the step order; U=(1,1) becomes the
    altitude step (1,-1) and D=(-p,1) becomes (1,p).  The image starts at
    altitude c, ends at altitude c + p*n - m, and keeps every altitude
    >= 1.  Inverse: ``bohm_unrotate``.
    """
    p = _check_avoiding(path, c)
    table = {(1, 1): (1, -1), (-p, 1): (1, p)}
    return _recode(path, table, StepSet.bohm(p), (0, c), reverse=False)


def bohm_unrotate(path: LatticePath, c: int) -> LatticePath:
    """Inverse of ``bohm_rotate``: map each visited point (x, y) to (c - y, x)."""
    p = _check_positive(path, "bohm_unrotate")
    require(path.start == (0, c), f"walk must start at (0, {c}), got {path.start}")
    table = {(1, -1): (1, 1), (1, p): (-p, 1)}
    return _recode(path, table, StepSet.koroljuk(p), (0, 0), reverse=False)


def bohm_to_unit(path: LatticePath) -> LatticePath:
    """Map a positive-altitude walk to a unit path, completing the rotation route.

    Source: walks with steps (1,rise)/(1,-1) keeping every altitude >= 1.
    Image: reverse the step order and map (1,rise) -> H, (1,-1) -> V; the
    image runs from (0,0) to (ups, downs) strictly above
    y = rise*x - end_altitude.  Composed after ``bohm_rotate`` this agrees
    with ``koroljuk_to_unit``.
    """
    rise = _check_positive(path, "bohm_to_unit")
    return _recode(path, {(1, rise): _H, (1, -1): _V}, StepSet.unit(), (0, 0))


def unit_to_bohm(path: LatticePath, rise: int, end_alt: int) -> LatticePath:
    """Inverse of ``bohm_to_unit`` for the family ending at altitude ``end_alt``.

    Source: unit paths from (0,0) to (ups, downs) strictly above
    y = rise*x - end_alt.  Image: reverse the step order and map
    H -> (1,rise), V -> (1,-1); the walk starts at altitude
    end_alt - rise*ups + downs (positive because the path end clears the
    line) and ends at ``end_alt``.
    """
    _require_unit(path)
    require(rise >= 1, f"need rise >= 1, got {rise}")
    require(end_alt >= 1, f"need end_alt >= 1, got {end_alt}")
    require(path.start == (0, 0), f"path must start at the origin, got {path.start}")
    _require_above(path, integer_slope(rise, end_alt), Strictness.STRICT,
                   f"y = {rise}*x - {end_alt}")
    ups, downs = path.end
    start = (0, end_alt - rise * ups + downs)
    return _recode(path, {_H: (1, rise), _V: (1, -1)}, StepSet.bohm(rise), start)
