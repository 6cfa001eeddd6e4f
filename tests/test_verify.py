"""Pinned check counts of the verification sweeps, and sweeps that must
report a deliberately broken route."""

import pytest

import latticepaths.identities as identities_module
import latticepaths.verify as verify_module
from latticepaths import (
    LatticePath,
    StepSet,
    bohm_rotate,
    complement_sweep,
    cross_formula_sweep,
    formula_oracle_sweep,
    hagen_rothe_sweep,
    intercept_normalization_sweep,
    koroljuk_equality_sweep,
    recurrence_shift_sweep,
    run_bijections,
    run_identities,
    upper_negation_sweep,
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
], ids=lambda value: getattr(value, "__name__", None))
def test_sweep_check_counts(sweep, args, checks):
    summary = sweep(*args)
    assert (summary.checks, summary.failures, summary.first_failure) == (checks, 0, None)


def _assert_reports_failures(summary):
    assert summary.failures > 0
    assert not summary.ok
    assert summary.first_failure


def test_formula_oracle_sweep_reports_a_wrong_oracle(monkeypatch):
    dp_count = verify_module.dp_count
    monkeypatch.setattr(verify_module, "dp_count", lambda q: dp_count(q) + 1)
    summary = formula_oracle_sweep(1, 3)
    _assert_reports_failures(summary)
    assert summary.first_failure.startswith("formula-vs-oracle")


def test_recurrence_shift_sweep_reports_a_wrong_weak_count(monkeypatch):
    count_weak = identities_module.count_weak
    monkeypatch.setattr(identities_module, "count_weak", lambda *args: count_weak(*args) + 1)
    _assert_reports_failures(recurrence_shift_sweep(1, 3))


def test_run_bijections_reports_a_wrong_drop_one(monkeypatch):
    def lifted(path, line):
        # Moves the start up instead of down: the image leaves the target family.
        return LatticePath((path.start[0], path.start[1] + 1), path.steps, path.step_set)

    monkeypatch.setattr(verify_module, "drop_one", lifted)
    summary = run_bijections(2)
    _assert_reports_failures(summary)
    assert summary.first_failure.startswith("drop-one")


@pytest.mark.parametrize("name, wrong_inverse, label", [
    # Moves the start up instead of down: undoing it leaves the source family.
    ("lemma_translate_back",
     lambda path, line: LatticePath(
         (path.start[0], path.start[1] + 1), path.steps, path.step_set),
     "lemma-translate"),
    # Keeps the path as it is instead of reversing and swapping its steps.
    ("reflect_inverse_back", lambda path, line, end: path, "reflect-inverse"),
    # Forgets the steps: every unit path goes back to the empty walk.
    ("unit_to_koroljuk",
     lambda path, p, c: LatticePath((0, 0), (), StepSet.koroljuk(p)),
     "koroljuk-to-unit"),
    ("unit_to_bohm",
     lambda path, rise, end_alt: LatticePath((0, end_alt), (), StepSet.bohm(rise)),
     "bohm-to-unit"),
], ids=["lemma-translate", "reflect-inverse", "koroljuk-to-unit", "bohm-to-unit"])
def test_run_bijections_reports_a_wrong_inverse(monkeypatch, name, wrong_inverse, label):
    monkeypatch.setattr(verify_module, name, wrong_inverse)
    summary = run_bijections(2)
    _assert_reports_failures(summary)
    assert summary.first_failure.startswith(label)


def test_run_bijections_reports_a_rotation_the_composite_route_rejects(monkeypatch, capsys):
    def lowered(path, c):
        # Starts the altitude walk one unit low, so bohm_to_unit rejects some images.
        image = bohm_rotate(path, c)
        return LatticePath((image.start[0], image.start[1] - 1), image.steps, image.step_set)

    monkeypatch.setattr(verify_module, "bohm_rotate", lowered)
    summary = run_bijections(1)
    _assert_reports_failures(summary)
    assert summary.first_failure.startswith("composite route p=")
    assert summary.first_failure.endswith(": a map rejected its input: walk drops to altitude 0 < 1")
    assert main(["verify", "bijections", "--max-steps", "1"]) == 1
    assert f"(first failure: {summary.first_failure})" in capsys.readouterr().out
