"""Tests of the benchmark itself: every correctness check rejects a wrong
value, the independent routes agree with the library on small cases, and
tracing leaves the package as it found it.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import math

import pytest

import run

lp, workloads = run.load()


def _one_per_family(items):
    seen = {}
    for item in items:
        seen.setdefault(item[0] if item[0] != "count_weak" or item[1][0] == 2 else "small", item)
    return list(seen.values())


def test_grid_check_accepts_count_and_rejects_off_by_one():
    w = workloads.GridQueries(lp, seed=3)
    sample = w.items[:200]
    assert w.check({q: lp.count(q) for q in sample}) == []
    wrong = {q: lp.count(q) + 1 for q in sample[:5]}
    assert len(w.check(wrong)) == 5


def test_grid_stream_covers_every_stratum():
    w = workloads.GridQueries(lp, seed=3)
    strata = {(q.boundary.kind, q.strictness, q.boundary.r.denominator != 1,
               lp.validate_query(q).category) for q in w.items}
    assert len(strata) == 16
    assert len(w.items) == 16 * w.per_stratum


def test_big_counts_check_accepts_closed_forms_and_rejects_wrong_values():
    w = workloads.BigCounts(lp, seed=3)
    items = _one_per_family(w.items)
    assert len(items) == 8
    results = {item: w.run(item) for item in items}
    assert w.check(results) == []
    wrong = {item: value - 1 for item, value in results.items()}
    assert len(w.check(wrong)) >= len(items)


def test_big_counts_small_endpoint_is_also_checked_by_math_comb():
    w = workloads.BigCounts(lp, seed=3)
    item = ("count_weak", (1, 2000, 0, 0, 2, 3))
    assert w.expected(item) == [("dp_count", 10), ("math.comb", 10)]
    assert len(w.check({item: 11})) == 2


@pytest.mark.parametrize("p,c,m,n", [(1, 1, 2, 1), (2, 3, 5, 3), (1, 3, 6, 5), (3, 2, 4, 4), (2, 9, 3, 2)])
def test_koroljuk_complement_route_matches_the_census(p, c, m, n):
    w = workloads.BigCounts(lp, seed=3)
    census = lp.count_stepset(lp.KoroljukQuery(p, c, m, n))
    [(_, expected)] = w.expected(("koroljuk_reduced", (p, c, m, n)))
    assert expected == census.intersecting


@pytest.mark.parametrize("tally,errors", [
    ((("formula_oracle_sweep", 10, 0),), 0),
    ((("formula_oracle_sweep", 10, 1),), 1),
    ((("formula_oracle_sweep", 0, 0),), 1),
])
def test_verify_check_demands_zero_failures_and_positive_checks(tally, errors):
    w = workloads.VerifySweeps(lp, seed=3)
    assert len(w.check({"all-sweeps": tally})) == errors


def test_verify_round_changing_check_count_is_flagged():
    w = workloads.VerifySweeps(lp, seed=3)
    tally = run.Tally(w)
    tally.record("all-sweeps", True, (("complement_sweep", 10, 0),), 1.0)
    tally.record("all-sweeps", True, (("complement_sweep", 11, 0),), 1.0)
    assert len(tally.errors()) == 1


def test_cli_check_rejects_wrong_stdout_and_nonzero_exit():
    w = workloads.CliOneshot(lp, seed=3)
    argv = next(a for a in w.items if not w.expected_failure(a))
    good = f"{w.expected_value(argv)}\n"
    assert w.check({argv: (0, good)}) == []
    assert len(w.check({argv: (0, good.strip() + "1\n")})) == 1
    assert len(w.check({argv: (2, good)})) == 1


def test_cli_expected_values_agree_with_the_library():
    w = workloads.CliOneshot(lp, seed=3)
    for argv in w.items:
        if not w.expected_failure(argv):
            assert w.run_traced(argv) == (0, f"{w.expected_value(argv)}\n")
    query = lp.PathQuery(0, 0, 6000, 12000, lp.integer_slope(2, 0), lp.Strictness.WEAK)
    assert w.expected_value(workloads.LARGE_ANSWER_ARGS) == lp.count(query)
    with workloads.unlimited_int_digits():
        text = f"{lp.count(query)}\n"
    assert len(text) > 4301
    assert w.check({workloads.LARGE_ANSWER_ARGS: (0, text)}) == []


def test_tally_counts_declared_failures_and_flags_others():
    w = workloads.CliOneshot(lp, seed=3)
    ordinary = next(a for a in w.items if not w.expected_failure(a))
    tally = run.Tally(w)
    tally.record(workloads.LARGE_ANSWER_ARGS, False, (1, ""), 0.1)
    assert (tally.failed, tally.unexpected) == (1, [])
    tally.record(ordinary, False, (1, ""), 0.1)
    assert tally.failed == 2 and len(tally.unexpected) == 1


@pytest.mark.parametrize("count,beyond", [(1000, 10), (5000, 50), (20, 10), (11, 10), (3, 2)])
def test_tail_rank_leaves_the_stated_number_of_ops_beyond(count, beyond):
    assert count - 1 - run.tail_rank(count) == beyond


def test_round_factors_undo_the_machine_speed_around_each_round():
    nominal = run.NOMINAL_S
    assert run.round_factors([2 * nominal] * 4) == [0.5] * 3
    # A slow spell around the second round scales it fully, its neighbours
    # by half as much.
    factors = run.round_factors([nominal, 2 * nominal, 2 * nominal, nominal])
    assert factors == pytest.approx([2 / 3, 0.5, 2 / 3])


def test_tracer_counts_repeat_and_uninstall_restores_the_package():
    import tracing

    original = (lp.count, lp.formulas.binomial, lp.LatticePath.__init__)
    w = workloads.GridQueries(lp, seed=3)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer(lp)
        tracer.install()
        try:
            for q in w.items[:300]:
                lp.count(q)
            lp.enumerate_paths(w.items[0])
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics()
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
        assert metrics["formulas.count.calls"][0] == 300
        assert metrics["oracle.enumerate_paths.paths"][0] == lp.dp_count(w.items[0])
    assert counts[0] == counts[1]
    assert (lp.count, lp.formulas.binomial, lp.LatticePath.__init__) == original


def test_self_time_excludes_children():
    import tracing

    tracer = tracing.Tracer(lp)
    inner = tracer.wrap("exactmath.binomial", math.comb)
    outer = tracer.wrap("formulas.count_weak", lambda: inner(40, 20) + inner(30, 10))
    outer()
    calls, total_ns, self_ns, nested = tracer.fold()
    assert calls["exactmath.binomial"] == 2
    assert self_ns["formulas.count_weak"] == total_ns["formulas.count_weak"] - total_ns["exactmath.binomial"]
    assert nested[("formulas.count_weak", "exactmath.binomial")] == 2
