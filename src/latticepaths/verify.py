"""Verification sweeps: formulas against the independent oracle (dynamic
programming for counts, exhaustive enumeration for listings), identity
grids, and bijection suites.

Every sweep returns a ``SweepSummary`` (checks run, failures, first
counterexample) and is a plain loop over one parameter grid.  Unit-path
grids are boxes of columns (a, m) and rows (b, n), a <= m and b <= n; the
sweeps that need boundary-valid queries keep the tuples whose b and n reach
``min_ordinate_above`` at a and m, with the line's integer form taken once
per line.  Sweeps that check many end points of one line, mode and start
(``formula_oracle_sweep``, ``cross_formula_sweep``, the census of
``complement_sweep``) read their oracle values from one tabulation of that
line and start (``oracle._dp_table`` or ``oracle._census_table``), built
when its first query needs it and dropped when its group of queries is
done.  The three entry points mirror the command line and merge the
summaries of the sweeps they run:

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
  a map that rejects its input counts as a failed check.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from functools import cache, partial
from itertools import groupby, product
from operator import attrgetter, itemgetter

from .formulas import _evaluate, bohm, count, count_strict, koroljuk_literal, koroljuk_reduced
from .bijections import (
    bohm_rotate,
    bohm_to_unit,
    bohm_unrotate,
    drop_one,
    koroljuk_to_unit,
    lemma_translate,
    lemma_translate_back,
    raise_one,
    reflect_inverse,
    reflect_inverse_back,
    unit_to_bohm,
    unit_to_koroljuk,
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
    LatticePath,
    NiederhausenQuery,
    PathQuery,
    SlopeKind,
    Strictness,
    _floors,
    _record_class,
    integer_slope,
    inverse_slope,
    normalize_intercept,
    strictness_insensitive,
)
from .oracle import (
    _census_table,
    _dp_table,
    count_stepset,
    dp_count,
    enumerate_paths,
    enumerate_stepset,
)


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


def _record(summary: SweepSummary, *reports: CheckReport) -> SweepSummary:
    for report in reports:
        summary.record(report.ok, report.line)
    return summary


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


def formula_oracle_sweep(max_k: int = 3, max_extent: int = 8) -> SweepSummary:
    """The four closed-form evaluators against the oracle over the dense grid:
    slopes k and 1/k for k = 1..max_k, both strictness modes, every
    boundary-valid query.  The oracle counts of one line and mode come from
    one table per start, reaching the box's far corner (max_extent-2,
    max_extent)."""
    summary = SweepSummary()
    columns, rows = _box(max_extent)
    for k, r, kind, strictness in product(range(1, max_k + 1), _INTERCEPTS, SlopeKind, Strictness):
        line = BoundaryLine(kind, k, r)
        table = cache(lambda a, b: _dp_table(
            PathQuery(a, b, max_extent - 2, max_extent, line, strictness)
        ))
        for a, b, m, n in _above_floors(line, strictness, columns, rows):
            q = PathQuery(a, b, m, n, line, strictness)
            expected = table(a, b)[m - a][n - b]
            got = _evaluate(q)
            summary.record(
                got == expected,
                lambda q=q, got=got, expected=expected: (
                    f"formula-vs-oracle {_describe_query(q)}: formula {got}, oracle {expected}"
                ),
            )
    return summary


def recurrence_shift_sweep(max_k: int = 3, max_extent: int = 8) -> SweepSummary:
    """The first-step recurrence and the strict-to-weak shift identity on
    every tuple of the acceptance grid satisfying their condition blocks."""
    summary = SweepSummary()
    columns, rows = _box(max_extent)
    for k, r in product(range(1, max_k + 1), _INTERCEPTS):
        for (a, m), (b, n) in product(columns, rows):
            if m >= 1 and n >= k * m - r and max(k * (a + 1) - r, k) <= b <= n - 1:
                _record(summary, recurrence_check(k, r, a, b, m, n))
            if b >= 1 and b + r - k * a > 0 and n > k * m - r:
                _record(summary, shift_check(k, r, a, b, m, n))
    return summary


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


def intercept_normalization_sweep() -> SweepSummary:
    """For 20 non-integral intercepts: the weak and strict oracle counts
    coincide, match the oracle count under the snapped intercept, and match
    the closed form routed through the totalizing wrapper."""
    summary = SweepSummary()
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
                distinct = set(values.values())
                summary.record(
                    len(distinct) == 1,
                    lambda weak_q=weak_q, values=values: (
                        f"intercept normalization {_describe_query(weak_q)}: {values}"
                    ),
                )
    return summary


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


def koroljuk_equality_sweep() -> SweepSummary:
    """Literal and reduced walk-intersection sums agree across the grid."""
    summary = SweepSummary()
    for p, c, m, n in KOROLJUK_GRID:
        q = KoroljukQuery(p, c, m, n)
        literal = koroljuk_literal(q)
        reduced = koroljuk_reduced(q)
        summary.record(
            literal == reduced,
            lambda q=q, literal=literal, reduced=reduced: (
                f"koroljuk forms p={q.p} c={q.c} m={q.m} n={q.n}: "
                f"literal {literal}, reduced {reduced}"
            ),
        )
    return summary


def complement_sweep(max_census_steps: int = 10) -> SweepSummary:
    """total = intersecting + avoiding across the walk grid, with both
    components independently confirmed by the step-by-step census on
    instances of at most ``max_census_steps`` steps."""
    summary = SweepSummary()
    for (p, c), group in groupby(KOROLJUK_GRID, itemgetter(0, 1)):
        group = list(group)
        corner = KoroljukQuery(p, c, max(m for _, _, m, _ in group), max(n for *_, n in group))
        census = cache(lambda: _census_table(corner))
        for _, _, m, n in group:
            report = complement_check(p, c, m, n)
            summary.record(report.ok, report.line)
            if m + n <= max_census_steps:
                avoiding = census()[m][n]
                intersecting = math.comb(m + n, n) - avoiding
                summary.record(
                    avoiding == report.values["avoiding"]
                    and intersecting == report.values["intersecting"],
                    lambda report=report, avoiding=avoiding, intersecting=intersecting: (
                        f"census disagrees with {report.line()}: "
                        f"avoiding {avoiding}, intersecting {intersecting}"
                    ),
                )
    return summary


def hagen_rothe_sweep(trials: int = 1000, seed: int = DEFAULT_SEED) -> SweepSummary:
    """Seeded random convolution-identity checks."""
    rng = random.Random(seed)
    params = [random_hagen_rothe(rng) for _ in range(trials)]
    return _record(SweepSummary(), *map(hagen_rothe_check, params))


def upper_negation_sweep(pairs: int = 500, seed: int = DEFAULT_SEED) -> SweepSummary:
    """Seeded random upper-negation checks."""
    rng = random.Random(seed)
    drawn = [random_upper_negation(rng) for _ in range(pairs)]
    return _record(SweepSummary(), *(upper_negation_check(x, k) for x, k in drawn))


def _niederhausen_grid() -> Iterator[NiederhausenQuery]:
    for k, m, n in product((1, 2, 3), range(0, 7), range(1, 7)):
        for kd in range(max(1, (k - 1) * m, k * m - n + 1), (k + 1) * m + k + 3):
            yield NiederhausenQuery(k, Fraction(kd, k), m, n)


def _bohm_grid() -> Iterator[BohmQuery]:
    """Rises 1..3, altitudes 1..4, up to five up-steps: every balanced query."""
    for rise, start_alt, end_alt, ups in product((1, 2, 3), range(1, 5), range(1, 5), range(0, 6)):
        if start_alt + rise * ups >= end_alt:
            yield BohmQuery(rise, start_alt, end_alt, ups)


def cross_formula_sweep() -> SweepSummary:
    """The two specialized counts against the strict evaluator and the
    step-by-step census.  For each k, the oracle values come from one
    unit-path table per k*d and one walk census per c; for the altitude
    walks, from one census per (rise, start)."""
    summary = SweepSummary()
    for k, group in groupby(_niederhausen_grid(), attrgetter("k")):
        group = list(group)
        top_m, top_n = max(q.m for q in group), max(q.n for q in group)
        unit_table = cache(lambda kd: _dp_table(
            PathQuery(0, 0, top_m, top_n, integer_slope(k, kd), Strictness.STRICT)
        ))
        walk_table = cache(lambda c: _census_table(KoroljukQuery(k, c, top_n, top_m)))
        for q in group:
            report = niederhausen_forms_check(q)
            summary.record(report.ok, report.line)
            value = report.values["subtracted"]
            summary.record(
                unit_table(q.kd)[q.m][q.n] == value,
                lambda q=q, value=value: (
                    f"oracle disagrees with strict count k={q.k} d={q.d} m={q.m} n={q.n} = {value}"
                ),
            )
            c = q.n - q.k * q.m + q.kd
            if q.m >= 1:
                avoiding = walk_table(c)[q.n][q.m]
                summary.record(
                    avoiding == value,
                    lambda q=q, value=value, avoiding=avoiding: (
                        f"walk census disagrees with strict count k={q.k} d={q.d} "
                        f"m={q.m} n={q.n}: {avoiding} vs {value}"
                    ),
                )
    for (rise, start_alt), group in groupby(_bohm_grid(), attrgetter("rise", "start_alt")):
        group = list(group)
        table = _census_table(BohmQuery(rise, start_alt, 1, max(q.ups for q in group)))
        for q in group:
            value = bohm(q)
            direct = count_strict(q.rise, q.end_alt, 0, 0, q.ups, q.down_steps)
            census = table[q.down_steps][q.ups]
            summary.record(
                value == direct == census,
                lambda q=q, value=value, direct=direct, census=census: (
                    f"altitude-walk forms rise={q.rise} start={q.start_alt} "
                    f"end={q.end_alt} ups={q.ups}: sum {value}, "
                    f"strict count {direct}, census {census}"
                ),
            )
    return summary


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


def _key(path: LatticePath) -> tuple[tuple[int, int], str]:
    return (path.start, path.word)


def _check_bijection(
    summary: SweepSummary,
    label: str,
    source: Sequence[LatticePath],
    target: Sequence[LatticePath],
    forward: Callable[[LatticePath], LatticePath],
    backward: Callable[[LatticePath], LatticePath],
) -> None:
    """Record the four bijection properties plus the reverse round trip.  A
    map that rejects its input ends the case with one failed check."""
    target_keys = {_key(t) for t in target}
    try:
        images = [forward(p) for p in source]
        summary.record(
            all(_key(image) in target_keys for image in images),
            lambda: f"{label}: some image leaves the target family",
        )
        summary.record(
            len({_key(image) for image in images}) == len(images),
            lambda: f"{label}: transform is not injective",
        )
        summary.record(
            len(source) == len(target),
            lambda: f"{label}: |source| {len(source)} != |target| {len(target)}",
        )
        summary.record(
            all(backward(image) == original for image, original in zip(images, source)),
            lambda: f"{label}: inverse does not undo the transform",
        )
        summary.record(
            all(forward(backward(t)) == t for t in target),
            lambda: f"{label}: transform does not undo the inverse",
        )
    except ValidationError as exc:
        summary.record(False, f"{label}: a map rejected its input: {exc}")


def _bijection_cases(max_steps: int) -> Iterator[tuple]:
    """(label, source paths, target paths, forward, backward) of the unit-path
    transforms and of the altitude-walk-to-unit map, on the instances of
    their grids with at most ``max_steps`` steps."""

    def sources(line: BoundaryLine, strictness: Strictness, a_range: range, b_range: range,
                width: int, height: int) -> Iterator[tuple]:
        """(a, b, m, n, paths) of each boundary-valid query within the step budget."""
        columns = [(a, m) for a in a_range for m in range(a, a + width)]
        rows = [(b, n) for b in b_range for n in range(b, b + height)]
        for a, b, m, n in _above_floors(line, strictness, columns, rows):
            if (m - a) + (n - b) <= max_steps:
                yield a, b, m, n, enumerate_paths(PathQuery(a, b, m, n, line, strictness))

    for k, r in product((1, 2), range(0, 4)):
        line = integer_slope(k, r)
        for a, b, m, n, source in sources(line, Strictness.STRICT, range(3), range(1, 5), 4, 5):
            yield (
                f"drop-one k={k} r={r} ({a},{b})->({m},{n})",
                source,
                enumerate_paths(PathQuery(a, b - 1, m, n - 1, line, Strictness.WEAK)),
                partial(drop_one, line=line),
                partial(raise_one, line=line),
            )
    for k, r in product((1, 2), range(0, 4)):
        line = integer_slope(k, r)
        for a, b, m, n, source in sources(line, Strictness.WEAK, range(1, 4), range(k, k + 4), 4, 5):
            yield (
                f"lemma-translate k={k} r={r} ({a},{b})->({m},{n})",
                source,
                enumerate_paths(PathQuery(a - 1, b - k, m - 1, n - k, line, Strictness.WEAK)),
                partial(lemma_translate, line=line),
                partial(lemma_translate_back, line=line),
            )
    for k, kr in product((1, 2, 3), range(0, 4)):
        line = inverse_slope(k, Fraction(kr, k))
        target_line = integer_slope(k, 0)
        for a, b, m, n, source in sources(line, Strictness.WEAK, range(3), range(3), 3, 3):
            yield (
                f"reflect-inverse k={k} k*r={kr} ({a},{b})->({m},{n})",
                source,
                enumerate_paths(PathQuery(
                    0, k * n + kr - m, n - b, k * n + kr - a, target_line, Strictness.WEAK
                )),
                partial(reflect_inverse, line=line),
                partial(reflect_inverse_back, line=line, end=(m, n)),
            )
    for q in _bohm_grid():
        if q.ups + q.down_steps > max_steps:
            continue
        target_line = integer_slope(q.rise, q.end_alt)
        yield (
            f"bohm-to-unit rise={q.rise} start={q.start_alt} end={q.end_alt} ups={q.ups}",
            enumerate_stepset(q),
            enumerate_paths(PathQuery(0, 0, q.ups, q.down_steps, target_line, Strictness.STRICT)),
            bohm_to_unit,
            partial(unit_to_bohm, rise=q.rise, end_alt=q.end_alt),
        )


def _walk_sweep(max_steps: int) -> SweepSummary:
    """Walk-family transforms: to the unit family, to the altitude family,
    and the composite-route consistency check, which runs two steps beyond
    ``max_steps``."""
    summary = SweepSummary()
    composite_steps = max_steps + 2
    for p, c, m, n in KOROLJUK_GRID:
        if c > 5 or m + n > composite_steps:
            continue
        case = f"p={p} c={c} m={m} n={n}"
        walk_q = KoroljukQuery(p, c, m, n)
        walks = enumerate_stepset(walk_q)
        v = c + p * n - m
        try:
            same = all(bohm_to_unit(bohm_rotate(w, c)) == koroljuk_to_unit(w, c) for w in walks)
        except ValidationError as exc:
            summary.record(False, f"composite route {case}: a map rejected its input: {exc}")
        else:
            summary.record(same, lambda: f"composite route differs from the direct map {case}")
        if m + n > max_steps:
            continue
        split = count_stepset(walk_q)
        summary.record(
            split.avoiding == len(walks),
            lambda: f"walk census {case}: {split.avoiding} vs {len(walks)} enumerated",
        )
        if v >= 1:
            unit_q = PathQuery(0, 0, n, m, integer_slope(p, v), Strictness.STRICT)
            _check_bijection(
                summary,
                f"koroljuk-to-unit {case}",
                walks,
                enumerate_paths(unit_q),
                partial(koroljuk_to_unit, c=c),
                partial(unit_to_koroljuk, p=p, c=c),
            )
            _check_bijection(
                summary,
                f"bohm-rotate {case}",
                walks,
                enumerate_stepset(BohmQuery(p, c, v, n)),
                partial(bohm_rotate, c=c),
                partial(bohm_unrotate, c=c),
            )
        else:
            summary.record(
                not walks,
                lambda: f"avoiding walks exist below the feasibility line {case}: {len(walks)}",
            )
    return summary


def run_bijections(max_steps: int = 10) -> SweepSummary:
    """All transform suites on instances of at most ``max_steps`` steps; the
    composite-route consistency check runs two steps beyond that."""
    if max_steps < 0:
        return SweepSummary()
    summary = _walk_sweep(max_steps)
    for case in _bijection_cases(max_steps):
        _check_bijection(summary, *case)
    return summary
