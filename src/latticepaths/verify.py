"""Verification sweeps: formulas against the independent oracle (dynamic
programming for counts, exhaustive enumeration for listings), identity
grids, and bijection suites.

Every sweep returns a ``SweepSummary`` (checks run, failures, first
counterexample) and is a plain loop over one parameter grid; the three
entry points mirror the command line and merge the summaries of the sweeps
they run:

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

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from typing import Callable, Iterator, Sequence

from .formulas import (
    BohmQuery,
    KoroljukQuery,
    NiederhausenQuery,
    _evaluate,
    bohm,
    count,
    count_strict,
    koroljuk_literal,
    koroljuk_reduced,
)
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
    BoundaryLine,
    LatticePath,
    PathQuery,
    SlopeKind,
    Strictness,
    integer_slope,
    inverse_slope,
    min_ordinate_above,
    normalize_intercept,
    validate_query,
)
from .oracle import count_stepset, dp_count, enumerate_paths, enumerate_stepset


@dataclass
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


def _grid(max_extent: int) -> Iterator[tuple[int, int, int, int, int]]:
    """(r, a, b, m, n) over the acceptance grid: integer intercepts -2..4,
    0 <= a <= m <= max_extent-2 and 0 <= b <= n <= max_extent."""
    for r in _INTERCEPTS:
        for m in range(max_extent - 1):
            for a in range(m + 1):
                for n in range(max_extent + 1):
                    for b in range(n + 1):
                        yield r, a, b, m, n


def _describe_query(q: PathQuery) -> str:
    return (
        f"{q.strictness.value} ({q.a},{q.b})->({q.m},{q.n}) "
        f"above {q.boundary.describe()}"
    )


def formula_oracle_sweep(max_k: int = 3, max_extent: int = 8) -> SweepSummary:
    """The four closed-form evaluators against dp_count over the dense grid:
    slopes k and 1/k for k = 1..max_k, both strictness modes, every
    boundary-valid query."""
    summary = SweepSummary()
    for k in range(1, max_k + 1):
        modes = {
            r: [(BoundaryLine(kind, k, r), strictness)
                for kind in SlopeKind for strictness in Strictness]
            for r in _INTERCEPTS
        }
        for r, a, b, m, n in _grid(max_extent):
            for line, strictness in modes[r]:
                q = PathQuery(a, b, m, n, line, strictness)
                if not validate_query(q).ok:
                    continue
                expected = dp_count(q)
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
    every grid tuple satisfying their condition blocks."""
    summary = SweepSummary()
    for k in range(1, max_k + 1):
        for r, a, b, m, n in _grid(max_extent):
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


def _intercept_cases(line: BoundaryLine) -> Iterator[PathQuery]:
    """A few queries with both endpoints strictly above the line, so both
    strictness modes are boundary-valid."""
    for m in (2, 3):
        a = 0
        b = max(0, min_ordinate_above(line, a, Strictness.STRICT))
        n = max(b, min_ordinate_above(line, m, Strictness.STRICT)) + 2
        yield PathQuery(a, b, m, n, line, Strictness.WEAK)


def intercept_normalization_sweep() -> SweepSummary:
    """For 20 non-integral intercepts: the weak and strict oracle counts
    coincide, match the oracle count under the snapped intercept, and match
    the closed form routed through the totalizing wrapper."""
    summary = SweepSummary()
    for r in NON_INTEGER_INTERCEPTS:
        lines = [integer_slope(2, r)]
        for k in (2, 3):
            if (k * r).denominator != 1:
                lines.append(inverse_slope(k, r))
        for line in lines:
            snapped = normalize_intercept(line)
            for weak_q in _intercept_cases(line):
                strict_q = PathQuery(
                    weak_q.a, weak_q.b, weak_q.m, weak_q.n, line, Strictness.STRICT
                )
                snapped_q = PathQuery(
                    weak_q.a, weak_q.b, weak_q.m, weak_q.n, snapped, Strictness.WEAK
                )
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

KOROLJUK_GRID = tuple(
    (p, c, m, n)
    for p in (1, 2, 3)
    for c in range(1, 9)
    for m in range(1, 9)
    for n in range(1, 5)
)


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
    for p, c, m, n in KOROLJUK_GRID:
        report = complement_check(p, c, m, n)
        summary.record(report.ok, report.line)
        if m + n <= max_census_steps:
            split = count_stepset(KoroljukQuery(p, c, m, n))
            summary.record(
                split.avoiding == report.values["avoiding"]
                and split.intersecting == report.values["intersecting"],
                lambda report=report, split=split: (
                    f"census disagrees with {report.line()}: "
                    f"avoiding {split.avoiding}, intersecting {split.intersecting}"
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
    for k in (1, 2, 3):
        for m in range(0, 7):
            for n in range(1, 7):
                low = max(1, (k - 1) * m, k * m - n + 1)
                for kd in range(low, (k + 1) * m + k + 3):
                    yield NiederhausenQuery(k, Fraction(kd, k), m, n)


def _bohm_grid() -> Iterator[BohmQuery]:
    """Rises 1..3, altitudes 1..4, up to five up-steps: every balanced query."""
    for rise in (1, 2, 3):
        for start_alt in range(1, 5):
            for end_alt in range(1, 5):
                for ups in range(0, 6):
                    if start_alt + rise * ups >= end_alt:
                        yield BohmQuery(rise, start_alt, end_alt, ups)


def cross_formula_sweep() -> SweepSummary:
    """The two specialized counts against the strict evaluator and the
    step-by-step census."""
    summary = SweepSummary()
    for q in _niederhausen_grid():
        report = niederhausen_forms_check(q)
        summary.record(report.ok, report.line)
        value = report.values["subtracted"]
        unit_q = PathQuery(
            0, 0, q.m, q.n, integer_slope(q.k, q.kd), Strictness.STRICT
        )
        summary.record(
            dp_count(unit_q) == value,
            lambda q=q, value=value: (
                f"oracle disagrees with strict count k={q.k} d={q.d} m={q.m} n={q.n} = {value}"
            ),
        )
        c = q.n - q.k * q.m + q.kd
        if q.m >= 1:
            split = count_stepset(KoroljukQuery(q.k, c, q.n, q.m))
            summary.record(
                split.avoiding == value,
                lambda q=q, value=value, split=split: (
                    f"walk census disagrees with strict count k={q.k} d={q.d} "
                    f"m={q.m} n={q.n}: {split.avoiding} vs {value}"
                ),
            )
    for q in _bohm_grid():
        value = bohm(q)
        direct = count_strict(q.rise, q.end_alt, 0, 0, q.ups, q.down_steps)
        census = count_stepset(q)
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


def _key(path: LatticePath) -> tuple[tuple[int, int], tuple[tuple[int, int], ...]]:
    return (path.start, path.steps)


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

    def sources(
        line: BoundaryLine, strictness: Strictness, a_range: range, b_range: range,
        width: int, height: int,
    ) -> Iterator[tuple[int, int, int, int, list[LatticePath]]]:
        """(a, b, m, n, paths) of each boundary-valid query from (a, b) to
        (m, n) within the step budget, 0 <= m - a < width, 0 <= n - b < height."""
        for a in a_range:
            for m in range(a, a + width):
                for b in b_range:
                    for n in range(b, b + height):
                        if (m - a) + (n - b) > max_steps:
                            continue
                        q = PathQuery(a, b, m, n, line, strictness)
                        if validate_query(q).ok:
                            yield a, b, m, n, enumerate_paths(q)

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
