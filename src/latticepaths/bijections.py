"""Executable path correspondences, each a total map with a declared inverse.

Each correspondence is one word-level core, a function (start, word) ->
(start, word) on the members of one family, built by a private factory
named after its public map (``_drop_one`` for ``drop_one``).  A factory
takes the family's step set and the public map's other parameters, runs
the family checks (step set, line kind, integral intercept or k*r; c, p,
rise and end_alt >= 1), and takes the line's integer form and per-letter
rise table once.  Its core runs the per-path checks with the messages of
the public map, in the same order, and returns the image's start and word.
Each public map is a thin wrapper, ``LatticePath(*core(path.start,
path.word), image step set)``, so the sweeps in ``verify``, which call the
cores on the oracle's words, and the public maps share every line of each
map's arithmetic.

Membership is decided in integers by one check, ``_above``, a running sum
of a linear form along the word (``model._exit_level``): the line's form,
as in ``path_above`` (written out as (1, k, v - s) for an integer-slope
target line, which is then never built), and in the walk checks the form
(0, 1, c - 1) of x <= c - 1 or (1, 0, -1) of altitude >= 1, so a walk
family is a line region too.  ``unit_to_koroljuk`` alone runs its own
level, as its form depends on the path's end.  The bijection claims
(image lands in the target family, injectivity, matching cardinalities,
round trips) are enforced by the oracle-backed test sweeps rather than
re-checked inside each call.

The unit-path transforms relate strict and weak families above integer- and
inverse-slope lines.  The four translations share one factory that runs
their checks in a fixed order and shifts the start:

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
reflection, each walk map relabels the word through one letter table.
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
    _exit_level,
    _k_times_r,
    _rises,
)

_Point = tuple[int, int]
_Key = tuple[_Point, str]  # a path as (start, word), the argument and the value of a core

# Letter tables of the relabellings: H = (1,0), V = (0,1) on unit paths;
# U = (1,1), D = (-p,1) on walks; U = (1,rise), D = (1,-1) on altitude walks.
_SWAP = str.maketrans("HV", "VH")
_KOROLJUK_TO_UNIT = str.maketrans("UD", "VH")
_UNIT_TO_KOROLJUK = str.maketrans("VH", "UD")
_ROTATE = str.maketrans("UD", "DU")  # either way between the two walk families
_BOHM_TO_UNIT = str.maketrans("UD", "HV")
_UNIT_TO_BOHM = str.maketrans("HV", "UD")
_AXES = ("abscissa", "ordinate")


def _require_unit(step_set: StepSet) -> None:
    require(step_set.kind is StepKind.UNIT, "transform expects a unit path")


def _unit_end(start: _Point, word: str) -> _Point:
    """The end of the unit path from ``start`` along ``word``."""
    across = word.count("H")
    return start[0] + across, start[1] + len(word) - across


def _above(step_set: StepSet, form: tuple[int, int, int], message):
    """The per-path check that every point satisfies a*y - b*x + c >= 0 for
    the form (a, b, c), raising ValidationError(message), or message(level)
    of the first negative level if ``message`` is a function.  For y = k*x - v
    with integral v that form is (1, k, v - s), s = 1 strict and 0 weak, so
    the maps pass it without building the line."""
    a, b, c = form
    rises = _rises(step_set, a, b)

    def check(start: _Point, word: str) -> None:
        x, y = start
        level = _exit_level(a * y - b * x + c, rises, word)
        if level is not None:
            raise ValidationError(message(level) if callable(message) else message)

    return check


def _translate(
    step_set: StepSet, line: BoundaryLine, name: str, strictness: Strictness, shift: _Point,
    integral: bool = False, floors: tuple[tuple[int, int, str], ...] = (),
):
    """The core moving unit paths above an integer-slope line by ``shift``.
    Family checks: the step set, the line kind and, when ``integral``, the
    intercept.  Per path: each (axis, least, label) of ``floors`` bounds the
    start's coordinate on that axis, then membership."""
    _require_unit(step_set)
    require(line.kind is SlopeKind.INTEGER, lambda: f"{name} works above integer-slope lines")
    require(not integral or line.r.denominator == 1, lambda: f"{name} needs an integral intercept")
    member = _above(
        step_set, line._form(strictness), f"input path is not {strictness.value}ly above the line"
    )
    dx, dy = shift

    def core(start: _Point, word: str) -> _Key:
        for axis, least, label in floors:
            if start[axis] < least:
                raise ValidationError(
                    f"start {_AXES[axis]} must be >= {label}{least}, got {start[axis]}"
                )
        member(start, word)
        return (start[0] + dx, start[1] + dy), word

    return core


def _drop_one(step_set: StepSet, line: BoundaryLine):
    return _translate(step_set, line, "drop_one", Strictness.STRICT, (0, -1), True, ((1, 1, ""),))


def drop_one(path: LatticePath, line: BoundaryLine) -> LatticePath:
    """Lower a strictly-above path by one vertical unit.

    Source: unit paths from (a, b), b >= 1, strictly above y = k*x - r with
    integral r.  Image: the same step sequence from (a, b-1), weakly above
    the same line.  Inverse: ``raise_one``.
    """
    return LatticePath(*_drop_one(path.step_set, line)(path.start, path.word), path.step_set)


def _raise_one(step_set: StepSet, line: BoundaryLine):
    return _translate(step_set, line, "raise_one", Strictness.WEAK, (0, 1), True)


def raise_one(path: LatticePath, line: BoundaryLine) -> LatticePath:
    """Inverse of ``drop_one``: lift a weakly-above path by one vertical unit."""
    return LatticePath(*_raise_one(path.step_set, line)(path.start, path.word), path.step_set)


def _lemma_translate(step_set: StepSet, line: BoundaryLine):
    return _translate(
        step_set, line, "lemma_translate", Strictness.WEAK, (-1, -line.k),
        floors=((0, 1, ""), (1, line.k, "k = ")),
    )


def lemma_translate(path: LatticePath, line: BoundaryLine) -> LatticePath:
    """Translate a weakly-above path by (-1, -k), following the line's slope.

    Source: unit paths from (a, b) weakly above y = k*x - r with a >= 1 and
    b >= k (so the image stays in the first quadrant).  Image: the same
    step sequence from (a-1, b-k), weakly above the same line.  Inverse:
    ``lemma_translate_back``.
    """
    return LatticePath(*_lemma_translate(path.step_set, line)(path.start, path.word), path.step_set)


def _lemma_translate_back(step_set: StepSet, line: BoundaryLine):
    return _translate(step_set, line, "lemma_translate_back", Strictness.WEAK, (1, line.k))


def lemma_translate_back(path: LatticePath, line: BoundaryLine) -> LatticePath:
    """Inverse of ``lemma_translate``: translate by (+1, +k)."""
    core = _lemma_translate_back(path.step_set, line)
    return LatticePath(*core(path.start, path.word), path.step_set)


def _integral_kr(step_set: StepSet, line: BoundaryLine, kind_message: str) -> int:
    """Check a unit family and an inverse-slope line with k*r integral; return k*r."""
    _require_unit(step_set)
    require(line.kind is SlopeKind.INVERSE, kind_message)
    return _k_times_r(line.k, line.r)


def _reflect_inverse(step_set: StepSet, line: BoundaryLine):
    kr = _integral_kr(step_set, line, "reflect_inverse works above inverse-slope lines")
    member = _above(step_set, line._form(Strictness.WEAK), "input path is not weakly above the line")
    k = line.k

    def core(start: _Point, word: str) -> _Key:
        member(start, word)
        m, n = _unit_end(start, word)
        return (0, k * n + kr - m), word[::-1].translate(_SWAP)

    return core


def reflect_inverse(path: LatticePath, line: BoundaryLine) -> LatticePath:
    """Reflect a path above an inverse-slope line onto one above y = k*x.

    Source: unit paths from (a, b) to (m, n) weakly above y = x/k - r with
    k*r integral.  Image: reverse the step order and swap H with V; the
    image runs from (0, k*(n+r) - m) to (n - b, k*(n+r) - a) and is weakly
    above y = k*x.  Inverse: ``reflect_inverse_back``.
    """
    return LatticePath(*_reflect_inverse(path.step_set, line)(path.start, path.word), path.step_set)


def _reflect_inverse_back(step_set: StepSet, line: BoundaryLine, end: _Point):
    kr = _integral_kr(step_set, line, "reflect_inverse_back works with inverse-slope lines")
    k, (m, n) = line.k, end
    image_start = (0, k * n + kr - m)
    member = _above(step_set, (1, k, 0), "input path is not weakly above y = k*x")

    def core(start: _Point, word: str) -> _Key:
        if start != image_start:
            raise ValidationError(
                f"parameter mismatch: image paths start at {image_start}, got {start}"
            )
        member(start, word)
        end_x, end_y = _unit_end(start, word)
        return (k * n + kr - end_y, n - end_x), word[::-1].translate(_SWAP)

    return core


def reflect_inverse_back(path: LatticePath, line: BoundaryLine, end: _Point) -> LatticePath:
    """Inverse of ``reflect_inverse`` for the source family ending at ``end``.

    ``line`` is the source family's inverse-slope boundary and ``end`` its
    end point (m, n); these fix the image family start (0, k*(n+r) - m),
    which the input must match.  Returns the unique source path whose image
    is ``path``.
    """
    core = _reflect_inverse_back(path.step_set, line, end)
    return LatticePath(*core(path.start, path.word), path.step_set)


def _avoiding(step_set: StepSet, c: int):
    """The family checks of walks with steps (1,1)/(-p,1) avoiding x = c, and
    the per-path check x <= c - 1, the form (0, 1, c - 1)."""
    require(step_set.kind is StepKind.KOROLJUK, "transform expects a (1,1)/(-p,1) walk")
    require(c >= 1, lambda: f"the avoided line x = c needs c >= 1, got {c}")
    return _above(step_set, (0, 1, c - 1), lambda level: (
        f"walk touches or crosses x = {c} at abscissa {c - 1 - level}"
    ))


def _positive(step_set: StepSet, name: str):
    """The family check of the altitude walks of transform ``name``, and the
    per-path check altitude >= 1, the form (1, 0, -1)."""
    require(step_set.kind is StepKind.BOHM, lambda: f"{name} expects an altitude walk")
    return _above(step_set, (1, 0, -1), lambda level: f"walk drops to altitude {level + 1} < 1")


def _relabel(check, image_start: _Point, table: dict, reverse=True, from_origin=False):
    """The core that checks a walk's start, if ``from_origin`` is set, and
    runs ``check`` on it, then relabels every letter of its word through the
    ``str.maketrans`` table, in reverse order when ``reverse`` is set, as a
    path from ``image_start``."""
    order = -1 if reverse else 1

    def core(start: _Point, word: str) -> _Key:
        if from_origin and start != (0, 0):
            raise ValidationError(f"walk must start at the origin, got {start}")
        check(start, word)
        return image_start, word[::order].translate(table)

    return core


def _koroljuk_to_unit(step_set: StepSet, c: int):
    return _relabel(_avoiding(step_set, c), (0, 0), _KOROLJUK_TO_UNIT, from_origin=True)


def koroljuk_to_unit(path: LatticePath, c: int) -> LatticePath:
    """Map a walk avoiding x = c to a unit path strictly above y = p*x - v.

    Source: walks with m steps U=(1,1) and n steps D=(-p,1) from the origin,
    never visiting abscissa c.  Image: reverse the step order and map
    U -> V, D -> H; the image runs from (0,0) to (n, m) and stays strictly
    above y = p*x - v with v = c + p*n - m (>= 1 for any avoiding walk).
    Inverse: ``unit_to_koroljuk``.
    """
    return LatticePath(*_koroljuk_to_unit(path.step_set, c)(path.start, path.word), StepSet.unit())


def _unit_to_koroljuk(step_set: StepSet, p: int, c: int, intercept: int | None = None):
    _require_unit(step_set)
    require(p >= 1, lambda: f"need p >= 1, got {p}")
    require(c >= 1, lambda: f"need c >= 1, got {c}")
    rises = _rises(step_set, 1, p)

    def core(start: _Point, word: str) -> _Key:
        if start != (0, 0):
            raise ValidationError(f"path must start at the origin, got {start}")
        n, m = _unit_end(start, word)
        v = c + p * n - m
        if intercept is not None and intercept != v:
            raise ValidationError(
                f"parameter mismatch: c + p*n - m = {v}, got intercept {intercept}"
            )
        if v < 1:
            raise ValidationError(f"need c + p*n - m >= 1, got {v}")
        if _exit_level(v - 1, rises, word) is not None:
            raise ValidationError(f"input path is not strictly above y = {p}*x - {v}")
        return (0, 0), word[::-1].translate(_UNIT_TO_KOROLJUK)

    return core


def unit_to_koroljuk(
    path: LatticePath, p: int, c: int, intercept: int | None = None
) -> LatticePath:
    """Inverse of ``koroljuk_to_unit``.

    Source: unit paths from (0,0) to (n, m) strictly above y = p*x - v with
    v = c + p*n - m >= 1.  ``intercept``, when given, must equal that v;
    this guards callers that computed v independently.  Image: reverse the
    step order and map V -> U=(1,1), H -> D=(-p,1).
    """
    core = _unit_to_koroljuk(path.step_set, p, c, intercept)
    return LatticePath(*core(path.start, path.word), StepSet.koroljuk(p))


def _bohm_rotate(step_set: StepSet, c: int):
    return _relabel(_avoiding(step_set, c), (0, c), _ROTATE, reverse=False, from_origin=True)


def bohm_rotate(path: LatticePath, c: int) -> LatticePath:
    """Rotate a walk avoiding x = c into a positive-altitude walk.

    Source: as ``koroljuk_to_unit``.  The rotation maps each visited point
    (x, y) to (y, c - x), preserving the step order; U=(1,1) becomes the
    altitude step (1,-1) and D=(-p,1) becomes (1,p).  The image starts at
    altitude c, ends at altitude c + p*n - m, and keeps every altitude
    >= 1.  Inverse: ``bohm_unrotate``.
    """
    image = _bohm_rotate(path.step_set, c)(path.start, path.word)
    return LatticePath(*image, StepSet.bohm(path.step_set.param))


def _bohm_unrotate(step_set: StepSet, c: int):
    member, origin = _positive(step_set, "bohm_unrotate"), (0, c)

    def core(start: _Point, word: str) -> _Key:
        member(start, word)
        if start != origin:
            raise ValidationError(f"walk must start at {origin}, got {start}")
        return (0, 0), word.translate(_ROTATE)

    return core


def bohm_unrotate(path: LatticePath, c: int) -> LatticePath:
    """Inverse of ``bohm_rotate``: map each visited point (x, y) to (c - y, x)."""
    image = _bohm_unrotate(path.step_set, c)(path.start, path.word)
    return LatticePath(*image, StepSet.koroljuk(path.step_set.param))


def _bohm_to_unit(step_set: StepSet):
    return _relabel(_positive(step_set, "bohm_to_unit"), (0, 0), _BOHM_TO_UNIT)


def bohm_to_unit(path: LatticePath) -> LatticePath:
    """Map a positive-altitude walk to a unit path, completing the rotation route.

    Source: walks with steps (1,rise)/(1,-1) keeping every altitude >= 1.
    Image: reverse the step order and map (1,rise) -> H, (1,-1) -> V; the
    image runs from (0,0) to (ups, downs) strictly above
    y = rise*x - end_altitude.  Composed after ``bohm_rotate`` this agrees
    with ``koroljuk_to_unit``.
    """
    return LatticePath(*_bohm_to_unit(path.step_set)(path.start, path.word), StepSet.unit())


def _unit_to_bohm(step_set: StepSet, rise: int, end_alt: int):
    _require_unit(step_set)
    require(rise >= 1, lambda: f"need rise >= 1, got {rise}")
    require(end_alt >= 1, lambda: f"need end_alt >= 1, got {end_alt}")
    member = _above(step_set, (1, rise, end_alt - 1), lambda level: (
        f"input path is not strictly above y = {rise}*x - {end_alt}"
    ))

    def core(start: _Point, word: str) -> _Key:
        if start != (0, 0):
            raise ValidationError(f"path must start at the origin, got {start}")
        member(start, word)
        ups, downs = _unit_end(start, word)
        return (0, end_alt - rise * ups + downs), word[::-1].translate(_UNIT_TO_BOHM)

    return core


def unit_to_bohm(path: LatticePath, rise: int, end_alt: int) -> LatticePath:
    """Inverse of ``bohm_to_unit`` for the family ending at altitude ``end_alt``.

    Source: unit paths from (0,0) to (ups, downs) strictly above
    y = rise*x - end_alt.  Image: reverse the step order and map
    H -> (1,rise), V -> (1,-1); the walk starts at altitude
    end_alt - rise*ups + downs (positive because the path end clears the
    line) and ends at ``end_alt``.
    """
    core = _unit_to_bohm(path.step_set, rise, end_alt)
    return LatticePath(*core(path.start, path.word), StepSet.bohm(rise))
