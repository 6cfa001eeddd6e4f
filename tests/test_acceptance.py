"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every criterion is exact; there are no tolerances anywhere.  Criterion 1
is timed and must finish single-threaded in under 60 seconds.
"""

import time

from latticepaths import (
    DEFAULT_SEED,
    PathQuery,
    Strictness,
    count_weak,
    cross_formula_sweep,
    dp_count,
    formula_oracle_sweep,
    fuss_catalan,
    hagen_rothe_sweep,
    integer_slope,
    intercept_normalization_sweep,
    koroljuk_equality_sweep,
    complement_sweep,
    recurrence_shift_sweep,
    run_bijections,
    upper_negation_sweep,
)
from latticepaths.verify import NON_INTEGER_INTERCEPTS


def _report(num: int, ok: bool, detail: str) -> None:
    status = "pass" if ok else "FAIL"
    print(f"criterion {num:02d}: {status} ({detail})")


def test_criterion_01_formula_oracle_sweep():
    started = time.perf_counter()
    summary = formula_oracle_sweep(max_k=3, max_extent=8)
    elapsed = time.perf_counter() - started
    ok = summary.failures == 0 and summary.checks > 10_000 and elapsed < 60.0
    _report(1, ok, f"{summary.checks} checks, {summary.failures} failures, "
                   f"{elapsed:.1f}s single-threaded")
    assert summary.failures == 0, summary.first_failure
    assert summary.checks > 10_000
    assert elapsed < 60.0


def test_criterion_02_catalan_row():
    expected = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
    got = [count_weak(1, 0, 0, 0, m, m) for m in range(11)]
    ok = got == expected
    _report(2, ok, f"count row {got}")
    assert got == expected


def test_criterion_03_fuss_catalan_row():
    expected = [1, 1, 3, 12, 55, 273]
    got = [fuss_catalan(3, m) for m in range(6)]
    cross = all(
        fuss_catalan(3, m)
        == dp_count(PathQuery(0, 0, m, 2 * m, integer_slope(2, 0), Strictness.WEAK))
        for m in range(5)
    )
    ok = got == expected and cross
    _report(3, ok, f"row {got}, dp cross-check {'agrees' if cross else 'DISAGREES'}")
    assert got == expected
    assert cross


def test_criterion_04_koroljuk_form_equality():
    summary = koroljuk_equality_sweep()
    ok = summary.failures == 0 and summary.checks == 3 * 8 * 8 * 4
    _report(4, ok, f"{summary.checks} checks, {summary.failures} failures")
    assert summary.failures == 0, summary.first_failure
    assert summary.checks == 3 * 8 * 8 * 4


def test_criterion_05_complement_identity():
    summary = complement_sweep(max_census_steps=10)
    ok = summary.failures == 0 and summary.checks >= 3 * 8 * 8 * 4
    _report(5, ok, f"{summary.checks} checks, {summary.failures} failures")
    assert summary.failures == 0, summary.first_failure
    assert summary.checks >= 3 * 8 * 8 * 4


def test_criterion_06_bijection_suite():
    summary = run_bijections(max_steps=10)
    ok = summary.failures == 0 and summary.checks > 1_000
    _report(6, ok, f"{summary.checks} checks, {summary.failures} failures")
    assert summary.failures == 0, summary.first_failure
    assert summary.checks > 1_000


def test_criterion_07_convolution_identities():
    hagen = hagen_rothe_sweep(trials=1000, seed=DEFAULT_SEED)
    negation = upper_negation_sweep(pairs=500, seed=DEFAULT_SEED)
    ok = (hagen.failures == 0 and hagen.checks == 1000
          and negation.failures == 0 and negation.checks == 500)
    _report(7, ok, f"{hagen.checks} convolution trials, "
                   f"{negation.checks} negation pairs, "
                   f"{hagen.failures + negation.failures} failures")
    assert hagen.failures == 0, hagen.first_failure
    assert hagen.checks == 1000
    assert negation.failures == 0, negation.first_failure
    assert negation.checks == 500


def test_criterion_08_recurrence_and_shift():
    summary = recurrence_shift_sweep(max_k=3, max_extent=8)
    ok = summary.failures == 0 and summary.checks > 1_000
    _report(8, ok, f"{summary.checks} checks, {summary.failures} failures")
    assert summary.failures == 0, summary.first_failure
    assert summary.checks > 1_000


def test_criterion_09_cross_formula_agreements():
    summary = cross_formula_sweep()
    ok = summary.failures == 0 and summary.checks > 100
    _report(9, ok, f"{summary.checks} checks, {summary.failures} failures")
    assert summary.failures == 0, summary.first_failure
    assert summary.checks > 100


def test_criterion_10_non_integer_intercepts():
    assert len(NON_INTEGER_INTERCEPTS) == 20
    assert all(r.denominator > 1 for r in NON_INTEGER_INTERCEPTS)
    summary = intercept_normalization_sweep()
    ok = summary.failures == 0 and summary.checks >= 20
    _report(10, ok, f"{len(NON_INTEGER_INTERCEPTS)} intercepts, "
                    f"{summary.checks} checks, {summary.failures} failures")
    assert summary.failures == 0, summary.first_failure
    assert summary.checks >= 20
