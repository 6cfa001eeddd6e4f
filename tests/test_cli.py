"""End-to-end tests for the command line, run in process via main(argv)."""

import contextlib
import json
import math
import sys

import pytest

from latticepaths import cli
from latticepaths.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_example(capsys):
    code, out, err = run(capsys, "count", "--slope", "1", "--intercept", "0",
                         "--from", "0,0", "--to", "2,2", "--weak")
    assert code == 0
    assert out == "2\n"


def test_count_inverse_slope_example(capsys):
    code, out, _ = run(capsys, "count", "--slope", "1/2", "--intercept", "1",
                       "--from", "0,0", "--to", "2,1", "--weak")
    assert code == 0
    assert out == "3\n"


def test_count_invalid_start_exits_2(capsys):
    code, out, err = run(capsys, "count", "--slope", "2", "--intercept", "0",
                         "--from", "1,0", "--to", "2,4", "--weak")
    assert code == 2
    assert out == ""
    assert "invalid" in err


def test_count_extended_query_warns_but_answers(capsys):
    code, out, err = run(capsys, "count", "--slope", "1", "--intercept", "1",
                         "--to", "1,2", "--strict")
    assert code == 0
    assert out == "2\n"
    assert "warning" in err


def test_count_oracle_match(capsys):
    code, out, _ = run(capsys, "count", "--slope", "2", "--intercept", "1",
                       "--to", "3,7", "--weak", "--oracle")
    assert code == 0
    assert out == "55 55 match\n"


def test_count_oracle_mismatch_exits_1(capsys, monkeypatch):
    import latticepaths.cli as cli_module
    monkeypatch.setattr(cli_module, "dp_count", lambda q: -1)
    code, out, _ = run(capsys, "count", "--slope", "1", "--intercept", "0",
                       "--to", "2,2", "--weak", "--oracle")
    assert code == 1
    assert out == "2 -1 mismatch\n"


def test_count_oracle_over_cell_budget_exits_2(capsys):
    code, out, err = run(capsys, "count", "--slope", "1", "--to", "5000,5000",
                         "--weak", "--oracle")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "cell budget" in err
    assert err.count("\n") == 1


def test_count_json_document(capsys):
    code, out, _ = run(capsys, "count", "--slope", "1", "--intercept", "0",
                       "--to", "2,2", "--weak", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "count"
    assert doc["result"] == 2
    assert doc["ok"] is True
    assert doc["parameters"]["slope"] == "1"


_USAGE_ERROR = "latticepaths count: error: argument "


@pytest.mark.parametrize("argv, message", [
    (("count", "--slope", "1", "--intercept", "x/y", "--to", "2,2", "--weak"),
     _USAGE_ERROR + "--intercept: not a rational number: 'x/y'"),
    (("count", "--slope", "2/3", "--to", "2,2", "--weak"),
     _USAGE_ERROR + "--slope: expected an integer k or 1/k, got '2/3'"),
    (("count", "--slope", "x", "--to", "2,2", "--weak"),
     _USAGE_ERROR + "--slope: expected an integer k or 1/k, got 'x'"),
    (("count", "--slope", "1", "--to", "1,2,3", "--weak"),
     _USAGE_ERROR + "--to: expected 'x,y', got '1,2,3'"),
    (("count", "--slope", "1", "--to", "a,b", "--weak"),
     _USAGE_ERROR + "--to: expected integers in 'x,y', got 'a,b'"),
    (("enumerate", "--slope", "1", "--from", "2,2", "--to", "1,1", "--weak"),
     "error: invalid query: end point not reachable from start"),
    (("enumerate", "--slope", "1", "--from", "2,1", "--to", "3,5", "--weak"),
     "error: invalid query: start violates the boundary constraint"),
], ids=["intercept-not-rational", "slope-not-1-over-k", "slope-not-a-number", "to-three-parts",
        "to-not-integers", "enumerate-unreachable-end", "enumerate-start-below-the-line"])
def test_malformed_input_exits_2_with_its_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err.splitlines()[-1]) == (2, "", message)


def test_count_out_file(tmp_path, capsys):
    target = tmp_path / "result.txt"
    code, out, _ = run(capsys, "count", "--slope", "1", "--intercept", "0",
                       "--to", "3,3", "--weak", "--out", str(target))
    assert code == 0
    assert out == "5\n"
    assert target.read_text(encoding="utf-8") == "5\n"


def test_count_out_unwritable_prints_nothing(tmp_path, capsys):
    code, out, err = run(capsys, "count", "--slope", "2", "--intercept", "1",
                         "--to", "3,7", "--weak", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert "error" in err


@contextlib.contextmanager
def _unlimited_int_digits():
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    previous = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(previous)


def test_count_prints_answers_beyond_the_int_digit_limit(capsys):
    argv = ("count", "--slope", "2", "--to", "6000,12000", "--weak")
    code, out, err = run(capsys, *argv)
    json_code, json_out, _ = run(capsys, *argv, "--json")
    assert (code, json_code, err) == (0, 0, "")
    expected = math.comb(18000, 6000) - 2 * math.comb(18000, 5999)
    with _unlimited_int_digits():
        assert out == f"{expected}\n"
        assert json.loads(json_out)["result"] == expected


def test_count_huge_intercept_small_rectangle(capsys):
    code, out, _ = run(capsys, "count", "--slope", "1", "--intercept", "100000",
                       "--to", "2,3", "--weak")
    assert code == 0
    assert out == "10\n"
    query = ("count", "--slope", "1", "--to", "3,3", "--weak", "--intercept")
    assert run(capsys, *query, "1e1000000") == (0, "20\n", "")
    # Fraction would write a larger exponent out in full, which takes seconds:
    # refused at once, for either sign and for --d too.
    for argv in [(*query, "1e1000001"), (*query, "-1E-1_000_001"), (*query, "1e10000000"),
                 ("niederhausen", "--k", "1", "--m", "3", "--n", "3", "--d", "1e1000001")]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f"exponent beyond 10**6 in magnitude: {argv[-1]!r}" in err


@pytest.mark.parametrize("argv, out", [
    (("count", "--slope", "1", "--to", "3,3", "--weak", "--intercept", "100"), "20\n"),
    (("enumerate", "--slope", "1", "--to", "1,1", "--weak", "--intercept", "1"), "HV\nVH\n"),
])
def test_query_parameters_are_built_only_for_json(capsys, monkeypatch, argv, out):
    # str() of a huge intercept costs more than the count itself; only the
    # JSON document prints the parameters.
    built = []
    query_parameters = cli._query_parameters
    monkeypatch.setattr(cli, "_query_parameters", lambda q: built.append(q) or query_parameters(q))
    assert run(capsys, *argv) == (0, out, "")
    assert built == []
    code, json_out, _ = run(capsys, *argv, "--json")
    assert (code, len(built)) == (0, 1)
    assert json.loads(json_out)["parameters"] == query_parameters(built[0])


def test_niederhausen_huge_offset(capsys):
    assert run(capsys, "niederhausen", "--k", "1", "--d", "1e100000", "--m", "3", "--n", "3") == (
        0, "20\n", ""
    )


@pytest.mark.parametrize("spaced, joined, out", [
    (("count", "--slope", "1/2", "--intercept", "3/2", "--from", "-1,0", "--to", "6,5", "--strict"),
     ("count", "--slope", "1/2", "--intercept", "3/2", "--from=-1,0", "--to", "6,5", "--strict"),
     "716\n"),
    (("count", "--slope", "1", "--intercept", "-1/3", "--from", "-1,0", "--to", "3,5", "--weak",
      "--oracle"),
     ("count", "--slope", "1", "--intercept=-1/3", "--from=-1,0", "--to", "3,5", "--weak",
      "--oracle"),
     "42 42 match\n"),
    (("enumerate", "--slope", "1", "--intercept", "-1/3", "--from", "-1,0", "--to", "-1,1",
      "--weak"),
     ("enumerate", "--slope", "1", "--intercept=-1/3", "--from=-1,0", "--to=-1,1", "--weak"),
     "V\n"),
    (("transform", "--map", "drop-one", "--slope", "1", "--intercept", "-1", "--from", "-1,1",
      "--path", "VH"),
     ("transform", "--map", "drop-one", "--slope", "1", "--intercept=-1", "--from=-1,1",
      "--path", "VH"),
     "VH @ (-1,0)\n"),
])
def test_spaced_and_joined_negative_values_read_alike(capsys, spaced, joined, out):
    spaced_run = run(capsys, *spaced)
    assert spaced_run == run(capsys, *joined)
    assert spaced_run[:2] == (0, out)


def test_a_flag_followed_by_a_flag_still_lacks_its_value(capsys):
    code, out, err = run(capsys, "count", "--slope", "1", "--from", "--to", "3,4", "--weak")
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --from: expected one argument\n")


def test_koroljuk_both_forms(capsys):
    code, out, _ = run(capsys, "koroljuk", "--p", "1", "--c", "1",
                       "--m", "2", "--n", "1", "--form", "both")
    assert code == 0
    assert out == "3 3 agree\n"


def test_koroljuk_single_form(capsys):
    code, out, _ = run(capsys, "koroljuk", "--p", "1", "--c", "2",
                       "--m", "2", "--n", "1", "--form", "literal")
    assert code == 0
    assert out == "1\n"


def test_koroljuk_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "koroljuk", "--p", "0", "--c", "1",
                       "--m", "2", "--n", "1")
    assert code == 2
    assert "error" in err


def test_bohm_example(capsys):
    code, out, _ = run(capsys, "bohm", "--rise", "1", "--start", "2",
                       "--end", "1", "--ups", "2")
    assert code == 0
    assert out == "5\n"


def test_niederhausen_example(capsys):
    code, out, _ = run(capsys, "niederhausen", "--k", "1", "--d", "1",
                       "--m", "2", "--n", "2")
    assert code == 0
    assert out == "2\n"


def test_niederhausen_fractional_d(capsys):
    code, out, _ = run(capsys, "niederhausen", "--k", "2", "--d", "1/2",
                       "--m", "1", "--n", "3")
    assert code == 0
    assert out.strip().isdigit()


def test_enumerate_strict_example(capsys):
    code, out, _ = run(capsys, "enumerate", "--slope", "1", "--intercept", "1",
                       "--to", "1,2", "--strict")
    assert code == 0
    assert out == "VHV\nVVH\n"


def test_enumerate_empty_path(capsys):
    code, out, _ = run(capsys, "enumerate", "--slope", "1", "--intercept", "0",
                       "--from", "2,2", "--to", "2,2", "--weak")
    assert code == 0
    assert out == "\n"


def test_enumerate_oversized_exits_2(capsys):
    code, _, err = run(capsys, "enumerate", "--slope", "1", "--intercept", "0",
                       "--to", "20,20", "--weak")
    assert code == 2
    assert "24" in err


def test_transform_koroljuk_to_unit(capsys):
    code, out, _ = run(capsys, "transform", "--map", "koroljuk-to-unit",
                       "--p", "1", "--c", "2", "--path", "UDU")
    assert code == 0
    assert out == "VHV @ (0,0)\n"


def test_transform_rejects_touching_walk(capsys):
    code, _, err = run(capsys, "transform", "--map", "koroljuk-to-unit",
                       "--p", "1", "--c", "2", "--path", "UUD")
    assert code == 2
    assert "error" in err


def test_transform_drop_one_empty_path(capsys):
    code, out, _ = run(capsys, "transform", "--map", "drop-one",
                       "--slope", "1", "--intercept", "0",
                       "--path", "", "--from", "0,1")
    assert code == 0
    assert out == "(empty) @ (0,0)\n"


def test_transform_lemma_translate(capsys):
    code, out, err = run(capsys, "transform", "--map", "lemma-translate",
                         "--slope", "1", "--intercept", "0", "--from", "1,1", "--path", "VH")
    assert (code, out, err) == (0, "VH @ (0,0)\n", "")


def test_transform_bohm_rotate(capsys):
    code, out, _ = run(capsys, "transform", "--map", "bohm-rotate",
                       "--p", "1", "--c", "2", "--path", "DUU")
    assert code == 0
    assert out == "UDD @ (0,2)\n"


def test_transform_unit_to_koroljuk(capsys):
    code, out, _ = run(capsys, "transform", "--map", "unit-to-koroljuk",
                       "--p", "1", "--c", "2", "--path", "VHV")
    assert code == 0
    assert out == "UDU @ (0,0)\n"


def test_transform_reflect_inverse(capsys):
    code, out, _ = run(capsys, "transform", "--map", "reflect-inverse",
                       "--slope", "1/2", "--intercept", "0", "--path", "VHH")
    assert code == 0
    assert out == "VVH @ (0,0)\n"


def test_transform_missing_family_flags(capsys):
    code, _, err = run(capsys, "transform", "--map", "koroljuk-to-unit",
                       "--path", "UDU")
    assert code == 2
    assert err == "error: --map koroljuk-to-unit needs --p, --c\n"
    assert run(capsys, "transform", "--map", "unit-to-koroljuk", "--p", "1", "--path", "VH") == (
        2, "", "error: --map unit-to-koroljuk needs --p, --c\n"
    )
    assert run(capsys, "transform", "--map", "drop-one", "--path", "VH") == (
        2, "", "error: --map drop-one needs --slope\n"
    )


def test_verify_sweep_empty_grid(capsys):
    code, out, _ = run(capsys, "verify", "sweep", "--max-extent", "0")
    assert code == 0
    assert "0 checks" in out


def test_verify_sweep_small(capsys):
    code, out, _ = run(capsys, "verify", "sweep", "--max-k", "1", "--max-extent", "3")
    assert code == 0
    assert "0 failures" in out


def test_verify_identities_small(capsys):
    code, out, _ = run(capsys, "verify", "identities", "--trials", "20", "--seed", "7")
    assert code == 0
    assert "0 failures" in out


def test_verify_bijections_small(capsys):
    code, out, _ = run(capsys, "verify", "bijections", "--max-steps", "6")
    assert code == 0
    assert "0 failures" in out


def test_verify_json_document(capsys):
    code, out, _ = run(capsys, "verify", "sweep", "--max-k", "1",
                       "--max-extent", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "verify sweep"
    assert doc["result"]["failures"] == 0
    assert doc["ok"] is True


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_main_runs_without_an_int_to_str_limit(capsys, monkeypatch):
    # Python 3.10.0-3.10.6 have no sys.set_int_max_str_digits.
    monkeypatch.delattr(sys, "set_int_max_str_digits")
    assert run(capsys, "count", "--slope", "1", "--to", "3,3", "--weak") == (0, "5\n", "")


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0


# Exact --json output of every subcommand: (argv, exit code, stdout, stderr).
GOLDEN_JSON = [
    (("count", "--slope", "2", "--intercept", "1", "--to", "3,7", "--weak"), 0,
     '{"command": "count", "parameters": {"slope": "2", "intercept": "1", "from": [0, 0], '
     '"to": [3, 7], "strictness": "weak"}, "result": 55, "ok": true}\n', ""),
    (("count", "--slope", "2", "--intercept", "1", "--to", "3,7", "--weak", "--oracle"), 0,
     '{"command": "count", "parameters": {"slope": "2", "intercept": "1", "from": [0, 0], '
     '"to": [3, 7], "strictness": "weak"}, "result": {"count": 55, "oracle": 55, '
     '"match": true}, "ok": true}\n', ""),
    (("count", "--slope", "1/2", "--intercept", "1/2", "--from", "1,1", "--to", "4,3",
      "--strict"), 0,
     '{"command": "count", "parameters": {"slope": "1/2", "intercept": "1/2", "from": [1, 1], '
     '"to": [4, 3], "strictness": "strict"}, "result": 7, "ok": true}\n', ""),
    (("enumerate", "--slope", "1", "--intercept", "1", "--to", "1,2", "--strict"), 0,
     '{"command": "enumerate", "parameters": {"slope": "1", "intercept": "1", "from": [0, 0], '
     '"to": [1, 2], "strictness": "strict"}, "result": ["VHV", "VVH"], "ok": true}\n',
     "warning: query outside the documented condition block (strict start ordinate "
     "below 1); answering anyway\n"),
    (("enumerate", "--slope", "1", "--intercept", "0", "--from", "2,2", "--to", "2,2",
      "--weak"), 0,
     '{"command": "enumerate", "parameters": {"slope": "1", "intercept": "0", "from": [2, 2], '
     '"to": [2, 2], "strictness": "weak"}, "result": [""], "ok": true}\n', ""),
    (("koroljuk", "--p", "1", "--c", "1", "--m", "2", "--n", "1", "--form", "both"), 0,
     '{"command": "koroljuk", "parameters": {"p": 1, "c": 1, "m": 2, "n": 1, "form": "both"}, '
     '"result": {"literal": 3, "reduced": 3, "agree": true}, "ok": true}\n', ""),
    (("koroljuk", "--p", "1", "--c", "2", "--m", "2", "--n", "1", "--form", "literal"), 0,
     '{"command": "koroljuk", "parameters": {"p": 1, "c": 2, "m": 2, "n": 1, '
     '"form": "literal"}, "result": 1, "ok": true}\n', ""),
    (("bohm", "--rise", "1", "--start", "2", "--end", "1", "--ups", "2"), 0,
     '{"command": "bohm", "parameters": {"rise": 1, "start": 2, "end": 1, "ups": 2}, '
     '"result": 5, "ok": true}\n', ""),
    (("niederhausen", "--k", "2", "--d", "1/2", "--m", "1", "--n", "3"), 0,
     '{"command": "niederhausen", "parameters": {"k": 2, "d": "1/2", "m": 1, "n": 3}, '
     '"result": 2, "ok": true}\n', ""),
    (("transform", "--map", "koroljuk-to-unit", "--p", "1", "--c", "2", "--path", "UDU"), 0,
     '{"command": "transform", "parameters": {"map": "koroljuk-to-unit", "path": "UDU"}, '
     '"result": {"steps": "VHV", "start": [0, 0]}, "ok": true}\n', ""),
    (("transform", "--map", "drop-one", "--slope", "1", "--intercept", "0", "--path", "",
      "--from", "0,1"), 0,
     '{"command": "transform", "parameters": {"map": "drop-one", "path": ""}, '
     '"result": {"steps": "", "start": [0, 0]}, "ok": true}\n', ""),
    (("transform", "--map", "lemma-translate", "--slope", "1", "--intercept", "0",
      "--from", "1,1", "--path", "VH"), 0,
     '{"command": "transform", "parameters": {"map": "lemma-translate", "path": "VH"}, '
     '"result": {"steps": "VH", "start": [0, 0]}, "ok": true}\n', ""),
    (("verify", "sweep", "--max-k", "1", "--max-extent", "3"), 0,
     '{"command": "verify sweep", "parameters": {"max_k": 1, "max_extent": 3}, '
     '"result": {"checks": 824, "failures": 0, "first_failure": null}, "ok": true}\n', ""),
    (("verify", "sweep", "--max-extent", "0"), 0,
     '{"command": "verify sweep", "parameters": {"max_k": 3, "max_extent": 0}, '
     '"result": {"checks": 0, "failures": 0, "first_failure": null}, "ok": true}\n', ""),
    (("verify", "identities", "--trials", "20", "--seed", "7"), 0,
     '{"command": "verify identities", "parameters": {"trials": 20, "seed": 7}, '
     '"result": {"checks": 6010, "failures": 0, "first_failure": null}, "ok": true}\n', ""),
    (("verify", "bijections", "--max-steps", "3"), 0,
     '{"command": "verify bijections", "parameters": {"max_steps": 3}, '
     '"result": {"checks": 10941, "failures": 0, "first_failure": null}, "ok": true}\n', ""),
]


@pytest.mark.parametrize("argv, code, out, err", GOLDEN_JSON,
                         ids=["-".join(case[0][:2 if case[0][0] == "verify" else 1])
                              for case in GOLDEN_JSON])
def test_json_golden(capsys, argv, code, out, err):
    assert run(capsys, *argv, "--json") == (code, out, err)


def test_json_oracle_mismatch_golden(capsys, monkeypatch):
    import latticepaths.cli as cli_module
    monkeypatch.setattr(cli_module, "dp_count", lambda q: -1)
    assert run(capsys, "count", "--slope", "1", "--to", "2,2", "--weak", "--oracle",
               "--json") == (
        1,
        '{"command": "count", "parameters": {"slope": "1", "intercept": "0", "from": [0, 0], '
        '"to": [2, 2], "strictness": "weak"}, "result": {"count": 2, "oracle": -1, '
        '"match": false}, "ok": false}\n',
        "",
    )
