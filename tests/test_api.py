"""The public surface of the package: exactly these names, each resolving."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latticepaths

PUBLIC_NAMES = """
    BohmQuery BoundaryLine CheckReport DEFAULT_SEED HagenRotheParams
    KoroljukQuery KoroljukSplit LatticePath MAX_ENUMERATION_STEPS
    NiederhausenQuery PathQuery QueryCategory QueryValidation Rational
    ResourceLimitError SlopeKind StepKind StepSet Strictness SweepSummary
    ValidationError above as_integer ballot base_case binomial bohm bohm_rotate
    bohm_to_unit bohm_unrotate complement_check complement_sweep count
    count_stepset count_strict count_strict_inv count_weak count_weak_inv
    cross_formula_sweep dp_count drop_one enumerate_paths enumerate_stepset
    formula_oracle_sweep fuss_catalan generalized_binomial hagen_rothe
    hagen_rothe_check hagen_rothe_sweep integer_slope
    intercept_normalization_sweep inverse_slope koroljuk_equality_sweep
    koroljuk_literal koroljuk_reduced koroljuk_to_unit lemma_translate
    lemma_translate_back min_ordinate_above niederhausen
    niederhausen_forms_check normalize_intercept normalize_query path_above
    raise_one recurrence_check recurrence_shift_sweep reflect_inverse
    reflect_inverse_back run_bijections run_identities run_sweep shift_check
    strictness_insensitive unit_to_bohm unit_to_koroljuk upper_negation
    upper_negation_check upper_negation_sweep validate_query
""".split()


def test_all_is_pinned():
    assert len(PUBLIC_NAMES) == 80
    assert latticepaths.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert hasattr(latticepaths, name), name


def test_shared_helpers_stay_private():
    assert not hasattr(latticepaths, "require")


def _imports(module_file):
    """{imported module: imported names} of a package module; a plain
    ``import x`` maps x to no names."""
    tree = ast.parse((Path(latticepaths.__file__).parent / module_file).read_text())
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found.setdefault(node.module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                found.setdefault(alias.name, set())
    return found


def test_two_route_rule_holds_in_the_imports():
    # The oracle imports nothing from formulas; its queries live in the model.
    assert "formulas" not in _imports("oracle.py")
    # The path correspondences build on the model alone.
    assert set(_imports("bijections.py")) == {"errors", "model"}
    # Every other module reaches the kernel through formulas' two
    # origin-form sums, which are its only callers there.
    package = Path(latticepaths.__file__).parent
    for module in sorted(package.glob("*.py")):
        if module.name != "formulas.py":
            assert all("_ballot_sum" not in names for names in _imports(module.name).values()), module
    tree = ast.parse((package / "formulas.py").read_text())
    callers = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_ballot_sum"
    }
    assert callers == {"_avoiding", "_touching"}


def _child_env():
    src = str(Path(latticepaths.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_the_root_loads_correspondences_identities_and_sweeps_on_first_use():
    code = (
        "import sys\n"
        "import latticepaths\n"
        "lazy = ('bijections', 'identities', 'verify')\n"
        "before = dir(latticepaths)\n"
        "assert not any(f'latticepaths.{m}' in sys.modules for m in lazy)\n"
        "assert latticepaths.run_sweep is latticepaths.verify.run_sweep\n"
        "assert latticepaths.DEFAULT_SEED is latticepaths.identities.DEFAULT_SEED\n"
        "assert dir(latticepaths) == before\n"
        "namespace = {}\n"
        "exec('from latticepaths import *', namespace)\n"
        "assert sorted(set(namespace) - {'__builtins__'}) == sorted(latticepaths.__all__)\n"
        "assert all(f'latticepaths.{m}' in sys.modules for m in lazy)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_a_count_process_loads_no_correspondences_identities_or_sweeps():
    code = (
        "import sys\n"
        "from latticepaths.cli import main\n"
        "main(['count', '--slope', '2', '--intercept', '1', '--to', '3,7', '--weak'])\n"
        "print(' '.join(m for m in sys.modules if m.startswith('latticepaths')))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    answer, modules = done.stdout.splitlines()
    assert answer == "55"
    loaded = set(modules.split())
    assert "latticepaths.formulas" in loaded
    assert not loaded & {"latticepaths.bijections", "latticepaths.identities", "latticepaths.verify"}


def test_dir_lists_every_public_name_and_unknown_names_raise():
    assert set(PUBLIC_NAMES) <= set(dir(latticepaths))
    assert {"bijections", "identities", "verify"} <= set(dir(latticepaths))
    with pytest.raises(AttributeError, match="no_such_name"):
        latticepaths.no_such_name


def _child_modules(code):
    """The modules loaded by a child without the site module, which would
    load its own (``.pth`` files, for one), after running ``code``."""
    done = subprocess.run([sys.executable, "-S", "-c", code + "print(' '.join(sys.modules))\n"],
                          env=_child_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    *output, modules = done.stdout.splitlines()
    return output, set(modules.split())


def test_a_count_process_loads_no_stdlib_module_beyond_argparse_and_fractions():
    # Building a parser loads what argparse imports on first use: shutil for
    # the terminal width and locale for its messages.
    _, baseline = _child_modules("import sys, argparse, fractions\nargparse.ArgumentParser()\n")
    output, loaded = _child_modules(
        "import sys\n"
        "from latticepaths.cli import main\n"
        "main(['count', '--slope', '2', '--intercept', '1', '--to', '3,7', '--weak'])\n"
    )
    assert output == ["55"]
    extra = {m for m in loaded - baseline if m != "latticepaths" and not m.startswith("latticepaths.")}
    assert extra <= {"__future__"}, sorted(extra)


def test_a_json_count_process_prints_one_json_document():
    done = subprocess.run(
        [sys.executable, "-m", "latticepaths.cli", "count", "--slope=2", "--intercept=1",
         "--to=3,7", "--weak", "--json"],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert doc["command"] == "count" and doc["result"] == 55 and doc["ok"] is True
