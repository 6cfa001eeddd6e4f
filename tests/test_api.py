"""The public surface of the package: exactly these names, each resolving."""

import ast
from pathlib import Path

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
