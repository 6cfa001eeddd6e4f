"""Exception types shared across the package.

Two failure modes are distinguished: a caller handing in parameters outside
a function's documented domain (ValidationError), and a request whose exact
answer would require more enumeration work than the hard built-in budget
allows (ResourceLimitError).  Internal arithmetic that breaks an invariant
(for instance an alternating sum that fails to collapse to an integer)
raises ArithmeticError directly; that always indicates a bug, not bad input.

``DEFAULT_SEED``, the seed of the randomized identity checks, lives here too,
in the one module that every other imports: the command line shows it in
its help without loading ``identities``, which re-exports it.
"""

from collections.abc import Callable

DEFAULT_SEED = 7


class ValidationError(ValueError):
    """Parameters violate a documented precondition or invariant."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed a hard work budget (enumeration steps or DP cells)."""


def require(condition: bool, message: str | Callable[[], str]) -> None:
    """Raise ValidationError(message) unless ``condition`` holds; a message
    given as a zero-argument function is built only then."""
    if not condition:
        raise ValidationError(message() if callable(message) else message)
