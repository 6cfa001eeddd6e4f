"""Verification sweeps: formulas against the independent oracle (dynamic
programming for counts, exhaustive enumeration for listings), identity
grids, and bijection suites.

Every sweep is a plain loop over one parameter grid that yields its
checks, each an (ok, describe) pair or a ``CheckReport``.  One decorator,
``_sweep``, tallies them into the ``SweepSummary`` (checks run, failures,
first counterexample) that the sweep returns; it calls the describe
function of the first failure at once, while the loop's variables still
name that instance.

Unit-path grids are boxes of columns (a, m) and rows (b, n), a <= m and
b <= n; the sweeps that need boundary-valid queries keep the tuples whose
b and n reach ``min_ordinate_above`` at a and m, with the line's integer
form taken once per line.  Sweeps that check many end points of one line, mode and start
(``formula_oracle_sweep``, ``cross_formula_sweep``, the census of
``complement_sweep``) read their oracle values from one tabulation of that
line and start (``oracle._table``), built when its first query needs it
and dropped when its group of queries is done.  The three entry points
mirror the command line and merge the summaries of the sweeps they run:

* ``run_sweep``: ``formula_oracle_sweep`` (closed forms versus the
  dynamic-programming oracle), ``recurrence_shift_sweep`` (the first-step
  recurrence and strict-to-weak shift identities on every tuple of the same
  (r, a, b, m, n) grid meeting their condition blocks), and
  ``intercept_normalization_sweep`` (non-integral intercepts).
* ``run_identities``: the two-letter walk complement/equality grids, the
  seeded random convolution and upper-negation identities, and
  ``cross_formula_sweep``.
* ``run_bijections``: image membership, injectivity, cardinality, and round
  trips for every path transform on exhaustively enumerated small instances;
  a map that rejects its input counts as a failed check.  The suites never
  build a ``LatticePath``: they take each family's (start, word) keys from
  the oracle's walker (``oracle._keys``) and call the word-level cores that
  the public maps wrap (``bijections._drop_one`` for ``drop_one``, and so
  on), each built once per line or per case.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cache, partial, wraps
from itertools import groupby, product
from operator import attrgetter, itemgetter

from .formulas import _avoiding, _evaluate, _touching, bohm, count, koroljuk_literal, koroljuk_reduced
from .bijections import (
    _Key,
    _bohm_rotate,
    _bohm_to_unit,
    _bohm_unrotate,
    _drop_one,
    _koroljuk_to_unit,
    _lemma_translate,
    _lemma_translate_back,
    _raise_one,
    _reflect_inverse,
    _reflect_inverse_back,
    _unit_to_bohm,
    _unit_to_koroljuk,
)
from .errors import ValidationError
from .identities import (
    DEFAULT_SEED,
    CheckReport,
    complement_check,
    hagen_rothe_check,
    niederhausen_forms_check,
    random_hagen_rothe,
    random_upper_negation,
    recurrence_check,
    shift_check,
    upper_negation_check,
)
from .model import (
    BohmQuery,
    BoundaryLine,
    KoroljukQuery,
    NiederhausenQuery,
    PathQuery,
    SlopeKind,
    StepSet,
    Strictness,
    _floors,
    _record_class,
    integer_slope,
    inverse_slope,
    normalize_intercept,
    strictness_insensitive,
)
from .oracle import _keys, _table, count_stepset, dp_count


@partial(_record_class, frozen=False)
class SweepSummary:
    """Tally of a verification sweep: checks run, failures, first witness."""

    checks: int = 0
    failures: int = 0
    first_failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def record(self, ok: bool, describe: str | Callable[[], str]) -> None:
        self.checks += 1
        if not ok:
            self.failures += 1
            if self.first_failure is None:
                self.first_failure = describe() if callable(describe) else describe

    def merge(self, *others: "SweepSummary") -> "SweepSummary":
        """Add the tallies of ``others`` to this one, which is returned."""
        for other in others:
            if self.first_failure is None:
                self.first_failure = other.first_failure
            self.checks += other.checks
            self.failures += other.failures
        return self

    def line(self, label: str) -> str:
        text = f"{label}: {self.checks} checks, {self.failures} failures"
        if self.first_failure is not None:
            text += f" (first failure: {self.first_failure})"
        return text


_Check = tuple[bool, "str | Callable[[], str]"] | CheckReport


def _sweep(checks: Callable[..., Iterable[_Check]]) -> Callable[..., SweepSummary]:
    """The sweep that tallies each check that ``checks`` yields as it comes,
    so a failure's describe function reads the variables that name it."""

    @wraps(checks)
    def sweep(*args, **kwargs) -> SweepSummary:
        summary = SweepSummary()
        record = summary.record
        for check in checks(*args, **kwargs):
            if isinstance(check, CheckReport):
                check = check.ok, check.line
            record(*check)
        return summary

    return sweep


# ---------------------------------------------------------------------------
# Closed forms versus the oracle, and the recurrence and shift identities

_INTERCEPTS = range(-2, 5)
_Pairs = Sequence[tuple[int, int]]


def _box(max_extent: int) -> tuple[_Pairs, _Pairs]:
    """The acceptance grid: columns (a, m), 0 <= a <= m <= max_extent-2, in
    (m, a) order, and rows (b, n), 0 <= b <= n <= max_extent, in (n, b) order."""
    columns = [(a, m) for m in range(max_extent - 1) for a in range(m + 1)]
    rows = [(b, n) for n in range(max_extent + 1) for b in range(n + 1)]
    return columns, rows


def _above_floors(
    line: BoundaryLine, strictness: Strictness, columns: _Pairs, rows: _Pairs
) -> Iterator[tuple[int, int, int, int]]:
    """(a, b, m, n) of each box tuple with b >= min_ordinate_above(a) and n >=
    min_ordinate_above(m): the boundary-valid queries, as every pair has start <= end."""
    floor = _floors(*line._form(strictness))
    for a, m in columns:
        start_floor, end_floor = floor(a), floor(m)
        for b, n in rows:
            if b >= start_floor and n >= end_floor:
                yield a, b, m, n


def _describe_query(q: PathQuery) -> str:
    return f"{q.strictness.value} ({q.a},{q.b})->({q.m},{q.n}) above {q.boundary.describe()}"


@_sweep
def formula_oracle_sweep(max_k: int = 3, max_extent: int = 8) -> Iterator[_Check]:
    """The four closed-form evaluators against the oracle over the dense grid:
    slopes k and 1/k for k = 1..max_k, both strictness modes, every
    boundary-valid query.  The oracle counts of one line and mode come from
    one table per start, reaching the box's far corner (max_extent-2,
    max_extent)."""
    columns, rows = _box(max_extent)
    for k, r, kind, strictness in product(range(1, max_k + 1), _INTERCEPTS, SlopeKind, Strictness):
        line = BoundaryLine(kind, k, r)
        table = cache(lambda a, b: _table(
            PathQuery(a, b, max_extent - 2, max_extent, line, strictness)
        ))
        for a, b, m, n in _above_floors(line, strictness, columns, rows):
            q = PathQuery(a, b, m, n, line, strictness)
            expected = table(a, b)[m - a][n - b]
            got = _evaluate(q)
            yield got == expected, lambda: (
                f"formula-vs-oracle {_describe_query(q)}: formula {got}, oracle {expected}"
            )


@_sweep
def recurrence_shift_sweep(max_k: int = 3, max_extent: int = 8) -> Iterator[_Check]:
    """The first-step recurrence and the strict-to-weak shift identity on
    every tuple of the acceptance grid satisfying their condition blocks."""
    columns, rows = _box(max_extent)
    for k, r in product(range(1, max_k + 1), _INTERCEPTS):
        for (a, m), (b, n) in product(columns, rows):
            if m >= 1 and n >= k * m - r and max(k * (a + 1) - r, k) <= b <= n - 1:
                yield recurrence_check(k, r, a, b, m, n)
            if b >= 1 and b + r - k * a > 0 and n > k * m - r:
                yield shift_check(k, r, a, b, m, n)


# ---------------------------------------------------------------------------
# Non-integral intercepts

NON_INTEGER_INTERCEPTS: tuple[Fraction, ...] = (
    Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(5, 2), Fraction(-3, 2),
    Fraction(1, 3), Fraction(2, 3), Fraction(-2, 3), Fraction(4, 3), Fraction(7, 3),
    Fraction(1, 4), Fraction(3, 4), Fraction(-5, 4), Fraction(9, 4), Fraction(1, 5),
    Fraction(7, 5), Fraction(-6, 5), Fraction(11, 5), Fraction(5, 7), Fraction(-9, 7),
)


def _intercept_cases(line: BoundaryLine) -> Iterator[tuple[int, int, int, int]]:
    """The corners (a, b, m, n) of a few queries with both endpoints strictly
    above the line, so both strictness modes are boundary-valid."""
    floor = _floors(*line._form(Strictness.STRICT))
    for m in (2, 3):
        b = max(0, floor(0))
        yield 0, b, m, max(b, floor(m)) + 2


@_sweep
def intercept_normalization_sweep() -> Iterator[_Check]:
    """For 20 non-integral intercepts: the weak and strict oracle counts
    coincide, match the oracle count under the snapped intercept, and match
    the closed form routed through the totalizing wrapper."""
    for r in NON_INTEGER_INTERCEPTS:
        lines = (integer_slope(2, r), inverse_slope(2, r), inverse_slope(3, r))
        for line in filter(strictness_insensitive, lines):
            snapped = normalize_intercept(line)
            for corners in _intercept_cases(line):
                weak_q = PathQuery(*corners, line, Strictness.WEAK)
                strict_q = PathQuery(*corners, line, Strictness.STRICT)
                snapped_q = PathQuery(*corners, snapped, Strictness.WEAK)
                values = {
                    "weak oracle": dp_count(weak_q),
                    "strict oracle": dp_count(strict_q),
                    "snapped oracle": dp_count(snapped_q),
                    "weak closed form": count(weak_q),
                    "strict closed form": count(strict_q),
                }
                yield len(set(values.values())) == 1, lambda: (
                    f"intercept normalization {_describe_query(weak_q)}: {values}"
                )


def run_sweep(max_k: int = 3, max_extent: int = 8) -> SweepSummary:
    """Formula-vs-oracle grid, recurrence/shift identities, and intercept
    normalization.  Nonpositive bounds give an empty sweep."""
    if max_k <= 0 or max_extent <= 0:
        return SweepSummary()
    return SweepSummary().merge(
        formula_oracle_sweep(max_k, max_extent),
        recurrence_shift_sweep(max_k, max_extent),
        intercept_normalization_sweep(),
    )


# ---------------------------------------------------------------------------
# Identity grids and seeded random identities

KOROLJUK_GRID = tuple(product((1, 2, 3), range(1, 9), range(1, 9), range(1, 5)))  # (p, c, m, n)


@_sweep
def koroljuk_equality_sweep() -> Iterator[_Check]:
    """Literal and reduced walk-intersection sums agree across the grid."""
    for p, c, m, n in KOROLJUK_GRID:
        q = KoroljukQuery(p, c, m, n)
        literal, reduced = koroljuk_literal(q), koroljuk_reduced(q)
        yield literal == reduced, lambda: (
            f"koroljuk forms p={p} c={c} m={m} n={n}: literal {literal}, reduced {reduced}"
        )


@_sweep
def complement_sweep(max_census_steps: int = 10) -> Iterator[_Check]:
    """total = intersecting + avoiding across the walk grid, with both
    components independently confirmed by the step-by-step census on
    instances of at most ``max_census_steps`` steps."""
    for (p, c), group in groupby(KOROLJUK_GRID, itemgetter(0, 1)):
        group = list(group)
        corner = KoroljukQuery(p, c, max(m for _, _, m, _ in group), max(n for *_, n in group))
        census = cache(lambda: _table(corner))
        for _, _, m, n in group:
            report = complement_check(p, c, m, n)
            yield report
            if m + n <= max_census_steps:
                avoiding = census()[m][n]
                intersecting = math.comb(m + n, n) - avoiding
                counted = report.values["avoiding"], report.values["intersecting"]
                yield counted == (avoiding, intersecting), lambda: (
                    f"census disagrees with {report.line()}: "
                    f"avoiding {avoiding}, intersecting {intersecting}"
                )


@_sweep
def hagen_rothe_sweep(trials: int = 1000, seed: int = DEFAULT_SEED) -> Iterator[_Check]:
    """Seeded random convolution-identity checks."""
    rng = random.Random(seed)
    for _ in range(trials):
        yield hagen_rothe_check(random_hagen_rothe(rng))


@_sweep
def upper_negation_sweep(pairs: int = 500, seed: int = DEFAULT_SEED) -> Iterator[_Check]:
    """Seeded random upper-negation checks."""
    rng = random.Random(seed)
    for _ in range(pairs):
        yield upper_negation_check(*random_upper_negation(rng))


def _niederhausen_grid() -> Iterator[NiederhausenQuery]:
    for k, m, n in product((1, 2, 3), range(0, 7), range(1, 7)):
        for kd in range(max(1, (k - 1) * m, k * m - n + 1), (k + 1) * m + k + 3):
            yield NiederhausenQuery(k, Fraction(kd, k), m, n)


def _bohm_grid() -> Iterator[BohmQuery]:
    """Rises 1..3, altitudes 1..4, up to five up-steps: every balanced query."""
    for rise, start_alt, end_alt, ups in product((1, 2, 3), range(1, 5), range(1, 5), range(0, 6)):
        if start_alt + rise * ups >= end_alt:
            yield BohmQuery(rise, start_alt, end_alt, ups)


@_sweep
def cross_formula_sweep() -> Iterator[_Check]:
    """The two specialized counts against both origin-form sums, each called
    by name, and the step-by-step census.  For each k, the oracle values
    come from one unit-path table per k*d and one walk census per c; for the
    altitude walks, from one census per (rise, start)."""
    for k, group in groupby(_niederhausen_grid(), attrgetter("k")):
        group = list(group)
        top_m, top_n = max(q.m for q in group), max(q.n for q in group)
        unit_table = cache(lambda kd: _table(
            PathQuery(0, 0, top_m, top_n, integer_slope(k, kd), Strictness.STRICT)
        ))
        walk_table = cache(lambda c: _table(KoroljukQuery(k, c, top_n, top_m)))
        for q in group:
            report = niederhausen_forms_check(q)
            yield report
            value = report.values["subtracted"]
            yield unit_table(q.kd)[q.m][q.n] == value, lambda: (
                f"oracle disagrees with strict count k={q.k} d={q.d} m={q.m} n={q.n} = {value}"
            )
            c = q.n - q.k * q.m + q.kd
            if q.m >= 1:
                avoiding = walk_table(c)[q.n][q.m]
                yield avoiding == value, lambda: (
                    f"walk census disagrees with strict count k={q.k} d={q.d} "
                    f"m={q.m} n={q.n}: {avoiding} vs {value}"
                )
    for (rise, start_alt), group in groupby(_bohm_grid(), attrgetter("rise", "start_alt")):
        group = list(group)
        table = _table(BohmQuery(rise, start_alt, 1, max(q.ups for q in group)))
        for q in group:
            origin_form = (q.rise, q.end_alt, q.ups, q.down_steps)
            value = bohm(q)
            avoiding = _avoiding(*origin_form)
            subtracted = math.comb(q.ups + q.down_steps, q.ups) - _touching(*origin_form)
            census = table[q.down_steps][q.ups]
            yield value == avoiding == subtracted == census, lambda: (
                f"altitude-walk forms rise={q.rise} start={q.start_alt} "
                f"end={q.end_alt} ups={q.ups}: bohm {value}, alternating sum {avoiding}, "
                f"subtracted form {subtracted}, census {census}"
            )


def run_identities(trials: int = 1000, seed: int = DEFAULT_SEED) -> SweepSummary:
    """Walk-grid identities, seeded random identities, and cross-formula
    agreement sweeps."""
    return SweepSummary().merge(
        koroljuk_equality_sweep(),
        complement_sweep(),
        hagen_rothe_sweep(trials, seed),
        upper_negation_sweep(max(0, trials // 2), seed),
        cross_formula_sweep(),
    )


# ---------------------------------------------------------------------------
# Bijection suites

_UNIT = StepSet.unit()


def _check_bijection(
    label: str,
    source: Sequence[_Key],
    target: Sequence[_Key],
    forward: Callable[..., _Key],
    backward: Callable[..., _Key],
) -> Iterator[_Check]:
    """The four bijection properties plus the reverse round trip of the
    cores ``forward`` and ``backward`` on the (start, word) keys of the two
    families.  A core that rejects its input ends the case with one failed
    check."""
    target_keys = set(target)
    try:
        images = [forward(*key) for key in source]
        yield target_keys.issuperset(images), lambda: f"{label}: some image leaves the target family"
        yield len(set(images)) == len(images), lambda: f"{label}: transform is not injective"
        yield len(source) == len(target), lambda: (
            f"{label}: |source| {len(source)} != |target| {len(target)}"
        )
        undone = all(backward(*image) == key for image, key in zip(images, source))
        yield undone, lambda: f"{label}: inverse does not undo the transform"
        undone = all(forward(*backward(*key)) == key for key in target)
        yield undone, lambda: f"{label}: transform does not undo the inverse"
    except ValidationError as exc:
        yield False, f"{label}: a map rejected its input: {exc}"


def _bijection_cases(max_steps: int) -> Iterator[tuple]:
    """(label, source keys, target keys, forward core, backward core) of the
    unit-path transforms and of the altitude-walk-to-unit map, on the
    instances of their grids with at most ``max_steps`` steps; each core is
    built once per line or per case."""

    def sources(line: BoundaryLine, strictness: Strictness, a_range: range, b_range: range,
                width: int, height: int) -> Iterator[tuple]:
        """(a, b, m, n, keys) of each boundary-valid query within the step budget."""
        columns = [(a, m) for a in a_range for m in range(a, a + width)]
        rows = [(b, n) for b in b_range for n in range(b, b + height)]
        for a, b, m, n in _above_floors(line, strictness, columns, rows):
            if (m - a) + (n - b) <= max_steps:
                yield a, b, m, n, _keys(PathQuery(a, b, m, n, line, strictness))

    def weak(a: int, b: int, m: int, n: int, line: BoundaryLine) -> list[_Key]:
        return _keys(PathQuery(a, b, m, n, line, Strictness.WEAK))

    for k, r in product((1, 2), range(0, 4)):
        line = integer_slope(k, r)
        forward, backward = _drop_one(_UNIT, line), _raise_one(_UNIT, line)
        for a, b, m, n, source in sources(line, Strictness.STRICT, range(3), range(1, 5), 4, 5):
            target = weak(a, b - 1, m, n - 1, line)
            yield f"drop-one k={k} r={r} ({a},{b})->({m},{n})", source, target, forward, backward
    for k, r in product((1, 2), range(0, 4)):
        line = integer_slope(k, r)
        forward, backward = _lemma_translate(_UNIT, line), _lemma_translate_back(_UNIT, line)
        for a, b, m, n, source in sources(line, Strictness.WEAK, range(1, 4), range(k, k + 4), 4, 5):
            target = weak(a - 1, b - k, m - 1, n - k, line)
            yield f"lemma-translate k={k} r={r} ({a},{b})->({m},{n})", source, target, forward, backward
    for k, kr in product((1, 2, 3), range(0, 4)):
        line = inverse_slope(k, Fraction(kr, k))
        forward = _reflect_inverse(_UNIT, line)
        for a, b, m, n, source in sources(line, Strictness.WEAK, range(3), range(3), 3, 3):
            yield (
                f"reflect-inverse k={k} k*r={kr} ({a},{b})->({m},{n})",
                source,
                weak(0, k * n + kr - m, n - b, k * n + kr - a, integer_slope(k, 0)),
                forward,
                _reflect_inverse_back(_UNIT, line, (m, n)),
            )
    for q in _bohm_grid():
        if q.ups + q.down_steps > max_steps:
            continue
        target_line = integer_slope(q.rise, q.end_alt)
        yield (
            f"bohm-to-unit rise={q.rise} start={q.start_alt} end={q.end_alt} ups={q.ups}",
            _keys(q),
            _keys(PathQuery(0, 0, q.ups, q.down_steps, target_line, Strictness.STRICT)),
            _bohm_to_unit(StepSet.bohm(q.rise)),
            _unit_to_bohm(_UNIT, q.rise, q.end_alt),
        )


@_sweep
def run_bijections(max_steps: int = 10) -> Iterator[_Check]:
    """All transform suites on instances of at most ``max_steps`` steps; the
    composite-route consistency check runs two steps beyond that."""
    # The walk families first: to the unit family, to the altitude family,
    # and the composite route through the altitude family.
    for p, c, m, n in KOROLJUK_GRID:
        if c > 5 or m + n > max_steps + 2:
            continue
        case = f"p={p} c={c} m={m} n={n}"
        walk_q = KoroljukQuery(p, c, m, n)
        walks = _keys(walk_q)
        walk_steps, altitude_steps = StepSet.koroljuk(p), StepSet.bohm(p)
        to_unit, rotate = _koroljuk_to_unit(walk_steps, c), _bohm_rotate(walk_steps, c)
        v = c + p * n - m
        try:
            rotated_to_unit = _bohm_to_unit(altitude_steps)
            same = all(rotated_to_unit(*rotate(*w)) == to_unit(*w) for w in walks)
        except ValidationError as exc:
            yield False, f"composite route {case}: a map rejected its input: {exc}"
        else:
            yield same, lambda: f"composite route differs from the direct map {case}"
        if m + n > max_steps:
            continue
        census = count_stepset(walk_q).avoiding
        yield census == len(walks), lambda: f"walk census {case}: {census} vs {len(walks)} enumerated"
        if v >= 1:
            units = _keys(PathQuery(0, 0, n, m, integer_slope(p, v), Strictness.STRICT))
            to_walk = _unit_to_koroljuk(_UNIT, p, c)
            yield from _check_bijection(f"koroljuk-to-unit {case}", walks, units, to_unit, to_walk)
            altitudes, unrotate = _keys(BohmQuery(p, c, v, n)), _bohm_unrotate(altitude_steps, c)
            yield from _check_bijection(f"bohm-rotate {case}", walks, altitudes, rotate, unrotate)
        else:
            yield not walks, lambda: (
                f"avoiding walks exist below the feasibility line {case}: {len(walks)}"
            )
    for case in _bijection_cases(max_steps):
        yield from _check_bijection(*case)
