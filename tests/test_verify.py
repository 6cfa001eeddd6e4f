"""Pinned check counts of the verification sweeps, and sweeps that must
report a deliberately broken route."""

import inspect
import tracemalloc
from itertools import product
from types import SimpleNamespace

import pytest

import latticepaths.identities as identities_module
import latticepaths.verify as verify_module
from latticepaths import (
    BohmQuery,
    BoundaryLine,
    KoroljukQuery,
    PathQuery,
    SlopeKind,
    Strictness,
    complement_sweep,
    cross_formula_sweep,
    formula_oracle_sweep,
    hagen_rothe_sweep,
    intercept_normalization_sweep,
    koroljuk_equality_sweep,
    recurrence_shift_sweep,
    run_bijections,
    run_identities,
    run_sweep,
    upper_negation_sweep,
    validate_query,
)
from latticepaths.cli import main


@pytest.mark.parametrize("sweep, args, checks", [
    # defaults
    (formula_oracle_sweep, (), 56267),
    (recurrence_shift_sweep, (), 12100),
    (intercept_normalization_sweep, (), 100),
    (koroljuk_equality_sweep, (), 768),
    (complement_sweep, (), 1464),
    (hagen_rothe_sweep, (), 1000),
    (upper_negation_sweep, (), 500),
    (cross_formula_sweep, (), 3748),
    (run_identities, (), 7480),
    # the sizes of one benchmark round
    (formula_oracle_sweep, (1, 4), 1748),
    (recurrence_shift_sweep, (1, 4), 446),
    (complement_sweep, (5,), 1008),
    (run_bijections, (1,), 3745),
    (run_bijections, (6,), 19357),
    # a negative step budget leaves every instance out
    (run_bijections, (-1,), 0),
    # the instance grids are fixed: every budget from 23 steps up runs the same checks
    (run_bijections, (23,), 22981),
    (run_bijections, (40,), 22981),
], ids=lambda value: getattr(value, "__name__", None))
def test_sweep_check_counts(sweep, args, checks):
    summary = sweep(*args)
    assert (summary.checks, summary.failures, summary.first_failure) == (checks, 0, None)


@pytest.mark.parametrize("sweep, parameters", [
    (formula_oracle_sweep, [("max_k", 3), ("max_extent", 8)]),
    (recurrence_shift_sweep, [("max_k", 3), ("max_extent", 8)]),
    (intercept_normalization_sweep, []),
    (run_sweep, [("max_k", 3), ("max_extent", 8)]),
    (koroljuk_equality_sweep, []),
    (complement_sweep, [("max_census_steps", 10)]),
    (hagen_rothe_sweep, [("trials", 1000), ("seed", 7)]),
    (upper_negation_sweep, [("pairs", 500), ("seed", 7)]),
    (cross_formula_sweep, []),
    (run_identities, [("trials", 1000), ("seed", 7)]),
    (run_bijections, [("max_steps", 10)]),
], ids=lambda value: getattr(value, "__name__", None))
def test_sweep_signatures(sweep, parameters):
    # The tally wraps each sweep's generator of checks; the public function
    # keeps the generator's parameters, defaults and docstring.
    signature = inspect.signature(sweep)
    assert [(p.name, p.default) for p in signature.parameters.values()] == parameters
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in signature.parameters.values())
    assert sweep.__doc__


@pytest.mark.parametrize("k", [1, 2, 3])
def test_floor_filter_keeps_exactly_the_boundary_valid_queries(k):
    # The sweeps pick their queries by the two endpoint floors; validate_query,
    # through the rational boundary value in `above`, is the reference.
    columns, rows = verify_module._box(8)
    for r, kind, strictness in product(range(-2, 5), SlopeKind, Strictness):
        line = BoundaryLine(kind, k, r)
        kept = list(verify_module._above_floors(line, strictness, columns, rows))
        valid = [
            (a, b, m, n) for (a, m), (b, n) in product(columns, rows)
            if validate_query(PathQuery(a, b, m, n, line, strictness)).ok
        ]
        assert kept == valid, (r, kind, strictness)


def _assert_reports_failures(summary):
    assert summary.failures > 0
    assert not summary.ok
    assert summary.first_failure


def _off_by_one(monkeypatch, kind):
    """Replace the oracle table reader in verify by one whose every cell is
    one too large on queries of ``kind``."""
    table = verify_module._table

    def wrong(q):
        cols = table(q)
        return [[value + 1 for value in col] for col in cols] if isinstance(q, kind) else cols

    monkeypatch.setattr(verify_module, "_table", wrong)


# The failure tests below pin the whole first message: the tally describes a
# failure as it is yielded, so the message names the first failing instance,
# not one that a later loop pass left in the describe function's variables.


def test_formula_oracle_sweep_reports_a_wrong_oracle(monkeypatch):
    _off_by_one(monkeypatch, PathQuery)
    summary = formula_oracle_sweep(1, 3)
    _assert_reports_failures(summary)
    assert summary.first_failure == (
        "formula-vs-oracle weak (0,2)->(0,2) above y = 1*x - (-2): formula 1, oracle 2"
    )


@pytest.mark.parametrize("kind, message", [
    pytest.param(PathQuery, "oracle disagrees with strict count k=1 d=1 m=0 n=1 = 1",
                 id="PathQuery"),
    pytest.param(KoroljukQuery, "walk census disagrees with strict count k=1 d=1 m=1 n=1: 2 vs 1",
                 id="KoroljukQuery"),
    pytest.param(BohmQuery, "altitude-walk forms rise=1 start=1 end=1 ups=0: bohm 1, "
                 "alternating sum 1, subtracted form 1, census 2", id="BohmQuery"),
])
def test_cross_formula_sweep_reports_a_wrong_oracle_table(monkeypatch, kind, message):
    _off_by_one(monkeypatch, kind)
    summary = cross_formula_sweep()
    _assert_reports_failures(summary)
    assert summary.first_failure == message


def test_the_altitude_walk_record_runs_both_sums(monkeypatch, kernel_calls):
    # bohm answers (rise, start, end, ups) = (1, 1, 5, 5) by the last-passage
    # sum, one term against three; the record runs both sums by name beside
    # it, so it compares two routes with the census.
    q = BohmQuery(1, 1, 5, 5)
    monkeypatch.setattr(verify_module, "_niederhausen_grid", lambda: iter(()))
    monkeypatch.setattr(verify_module, "_bohm_grid", lambda: iter((q,)))
    summary = cross_formula_sweep()
    assert (summary.checks, summary.failures) == (1, 0)
    d, k = q.end_alt, q.rise
    assert sorted(kernel_calls) == [(-d, k + 1), (-d, k + 1), (d - 1, -k)]


def test_random_identity_sweeps_hold_one_draw_at_a_time():
    for sweep in (hagen_rothe_sweep, upper_negation_sweep):
        tracemalloc.start()
        try:
            summary = sweep(1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (summary.checks, summary.failures) == (1000, 0)
        assert peak < 100_000, (sweep.__name__, peak)


def test_complement_sweep_reports_a_wrong_census(monkeypatch):
    _off_by_one(monkeypatch, KoroljukQuery)
    summary = complement_sweep(5)
    _assert_reports_failures(summary)
    assert summary.first_failure == (
        "census disagrees with pass complement: p=1 c=1 m=1 n=1 -> total=2 intersecting=1 "
        "avoiding=1: avoiding 2, intersecting 0"
    )


def test_intercept_normalization_sweep_reports_a_wrong_strict_count(monkeypatch):
    count = verify_module.count
    monkeypatch.setattr(verify_module, "count",
                        lambda q: count(q) + (q.strictness is Strictness.STRICT))
    summary = intercept_normalization_sweep()
    assert summary.failures == 100
    assert summary.first_failure == (
        "intercept normalization weak (0,0)->(2,6) above y = 2*x - (1/2): {'weak oracle': 12, "
        "'strict oracle': 12, 'snapped oracle': 12, 'weak closed form': 12, 'strict closed form': 13}"
    )


def test_koroljuk_equality_sweep_reports_a_wrong_reduced_form(monkeypatch):
    reduced = verify_module.koroljuk_reduced
    monkeypatch.setattr(verify_module, "koroljuk_reduced", lambda q: reduced(q) + 1)
    summary = koroljuk_equality_sweep()
    assert summary.failures == 768
    assert summary.first_failure == "koroljuk forms p=1 c=1 m=1 n=1: literal 1, reduced 2"


def test_recurrence_shift_sweep_reports_a_wrong_weak_count(monkeypatch):
    count_weak = identities_module.count_weak
    monkeypatch.setattr(identities_module, "count_weak", lambda *args: count_weak(*args) + 1)
    _assert_reports_failures(recurrence_shift_sweep(1, 3))


# The bijection sweeps call each map's word-level core, built by the private
# factory of its public map; the tests below inject a wrong core there.


def _lifted(start, word):
    # Moves the start up instead of down.
    return (start[0], start[1] + 1), word


def test_run_bijections_reports_a_wrong_drop_one(monkeypatch):
    # The image leaves the target family.
    monkeypatch.setattr(verify_module, "_drop_one", lambda step_set, line: _lifted)
    summary = run_bijections(2)
    _assert_reports_failures(summary)
    assert summary.first_failure == "drop-one k=1 r=0 (0,1)->(0,1): some image leaves the target family"


def test_run_bijections_reports_families_of_different_sizes(monkeypatch):
    # The walker lists the first weak path twice: drop-one's images still lie
    # in its target and stay distinct, so only the cardinality check fails.
    keys = verify_module._keys

    def doubled(q):
        found = keys(q)
        return found + found[:1] if isinstance(q, PathQuery) and q.strictness is Strictness.WEAK else found

    monkeypatch.setattr(verify_module, "_keys", doubled)
    summary = run_bijections(1)
    assert summary.failures == 713
    assert summary.first_failure == "drop-one k=1 r=0 (0,1)->(0,1): |source| 1 != |target| 2"


def test_run_bijections_reports_walks_below_the_feasibility_line(monkeypatch):
    # The walker and the census agree on one walk, the empty one, wherever
    # c + p*n - m < 1 leaves none: the composite route and the census pass,
    # and only the feasibility check can tell.
    keys = verify_module._keys

    def phantom(q):
        if isinstance(q, KoroljukQuery) and q.c + q.p * q.n - q.m < 1:
            return [((0, 0), "")]
        return keys(q)

    monkeypatch.setattr(verify_module, "_keys", phantom)
    monkeypatch.setattr(verify_module, "count_stepset",
                        lambda q: SimpleNamespace(avoiding=len(phantom(q))))
    summary = run_bijections(3)
    assert summary.failures == 1
    assert summary.first_failure == (
        "avoiding walks exist below the feasibility line p=1 c=1 m=2 n=1: 1"
    )


@pytest.mark.parametrize("name, wrong_inverse, label", [
    # Undoing the translation leaves the source family.
    ("_lemma_translate_back", lambda step_set, line: _lifted, "lemma-translate"),
    # Keeps the path as it is instead of reversing and swapping its steps.
    ("_reflect_inverse_back", lambda step_set, line, end: lambda start, word: (start, word),
     "reflect-inverse"),
    # Forgets the steps: every unit path goes back to the empty walk.
    ("_unit_to_koroljuk", lambda step_set, p, c: lambda start, word: ((0, 0), ""),
     "koroljuk-to-unit"),
    ("_unit_to_bohm", lambda step_set, rise, end_alt: lambda start, word: ((0, end_alt), ""),
     "bohm-to-unit"),
], ids=["lemma-translate", "reflect-inverse", "koroljuk-to-unit", "bohm-to-unit"])
def test_run_bijections_reports_a_wrong_inverse(monkeypatch, name, wrong_inverse, label):
    monkeypatch.setattr(verify_module, name, wrong_inverse)
    summary = run_bijections(2)
    _assert_reports_failures(summary)
    assert summary.first_failure.startswith(label)


def test_run_bijections_reports_a_rotation_the_composite_route_rejects(monkeypatch, capsys):
    rotate = verify_module._bohm_rotate

    def lowered(step_set, c):
        # Starts the altitude walk one unit low, so bohm_to_unit rejects some images.
        core = rotate(step_set, c)

        def wrong(start, word):
            (x, y), image = core(start, word)
            return (x, y - 1), image

        return wrong

    monkeypatch.setattr(verify_module, "_bohm_rotate", lowered)
    summary = run_bijections(1)
    _assert_reports_failures(summary)
    assert summary.first_failure.startswith("composite route p=")
    assert summary.first_failure.endswith(": a map rejected its input: walk drops to altitude 0 < 1")
    assert main(["verify", "bijections", "--max-steps", "1"]) == 1
    assert f"(first failure: {summary.first_failure})" in capsys.readouterr().out
