"""Exact enumeration of lattice paths constrained by linear boundaries.

The package counts monotone lattice paths that stay weakly or strictly
above a line y = k*x - r or y = x/k - r, entirely in integer and rational
arithmetic.  Closed-form ballot-style sums live in :mod:`.formulas`; an
independent oracle written from the step definitions (counts by dynamic
programming, listings by exhaustive enumeration) in :mod:`.oracle`;
explicit path correspondences in :mod:`.bijections`; classical identity
checks in :mod:`.identities`; and grid verification sweeps in
:mod:`.verify`.  The command line entry point is ``latticepaths``.
"""

from types import ModuleType as _Module

from .errors import DEFAULT_SEED, ResourceLimitError, ValidationError
from .exactmath import Rational, as_integer, binomial, generalized_binomial, upper_negation
from .formulas import (
    ballot,
    base_case,
    bohm,
    count,
    count_strict,
    count_strict_inv,
    count_weak,
    count_weak_inv,
    fuss_catalan,
    koroljuk_literal,
    koroljuk_reduced,
    niederhausen,
)
from .model import (
    BohmQuery,
    BoundaryLine,
    KoroljukQuery,
    LatticePath,
    NiederhausenQuery,
    PathQuery,
    QueryCategory,
    QueryValidation,
    SlopeKind,
    StepKind,
    StepSet,
    Strictness,
    above,
    integer_slope,
    inverse_slope,
    min_ordinate_above,
    normalize_intercept,
    normalize_query,
    path_above,
    strictness_insensitive,
    validate_query,
)
from .oracle import (
    MAX_ENUMERATION_STEPS,
    KoroljukSplit,
    count_stepset,
    dp_count,
    enumerate_paths,
    enumerate_stepset,
)

# Loaded on first use (PEP 562), so that ``count`` and the command line do
# not pay for the correspondences, the identity checks and the sweeps.  Each
# lazy name is written here once; ``__all__`` below takes them from here.
_LAZY = {
    name: module
    for module, names in {
        "bijections": """bohm_rotate bohm_to_unit bohm_unrotate drop_one koroljuk_to_unit
            lemma_translate lemma_translate_back raise_one reflect_inverse
            reflect_inverse_back unit_to_bohm unit_to_koroljuk""",
        "identities": """CheckReport HagenRotheParams complement_check hagen_rothe
            hagen_rothe_check niederhausen_forms_check recurrence_check shift_check
            upper_negation_check""",
        "verify": """SweepSummary complement_sweep cross_formula_sweep formula_oracle_sweep
            hagen_rothe_sweep intercept_normalization_sweep koroljuk_equality_sweep
            recurrence_shift_sweep run_bijections run_identities run_sweep
            upper_negation_sweep""",
    }.items()
    for name in (module, *names.split())
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__() -> list[str]:
    return sorted((globals().keys() - {"_LAZY", "__getattr__", "__dir__"}) | _LAZY.keys())


__version__ = "0.1.0"

# Every public name is written once: the eager imports above, less the
# submodules they bind, and the lazy names.
__all__ = sorted(
    [
        name
        for name, value in globals().items()
        if not name.startswith("_") and not isinstance(value, _Module)
    ]
    + [name for name, module in _LAZY.items() if name != module]
)
del _Module
