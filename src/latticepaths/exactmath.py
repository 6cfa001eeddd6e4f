"""Exact integer and rational helpers used by every counting routine.

All arithmetic in this package is exact: counts are arbitrary-precision
Python ints and intermediate ratios are ``fractions.Fraction`` values, which
stay in lowest terms by construction.  ``Rational`` is the package-level
name for ``fractions.Fraction``; the other modules import ``Fraction``
itself.

Binomial conventions, fixed here once:

* ``binomial(n, k)`` is the ordinary binomial coefficient for n >= 0.  It
  returns 0 when k < 0 or k > n and rejects n < 0 outright, so any summation
  that reaches a negative upper index fails loudly instead of silently
  picking up generalized-binomial terms.
* ``generalized_binomial(x, k)`` is the falling-factorial form
  x(x-1)...(x-k+1)/k! for rational (or integer) x and k >= 0.  On integer
  x >= 0 it agrees with ``binomial``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import ValidationError

Rational = Fraction


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the 0-outside-range convention; n >= 0."""
    if n < 0:
        raise ValidationError(f"binomial upper index must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def generalized_binomial(x: Rational | int, k: int) -> Rational:
    """Generalized binomial coefficient C(x, k) over the rationals, k >= 0."""
    if k < 0:
        raise ValidationError(f"generalized binomial lower index must be nonnegative, got {k}")
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    top = 1
    for t in range(k):
        top *= p - t * q  # q*(x - t)
    return Fraction(top, q**k * factorial(k))


def upper_negation(x: Rational | int, k: int) -> tuple[Rational, Rational]:
    """Both sides of the upper-negation reflection C(x, k) = (-1)^k C(k-x-1, k).

    Returns the pair (left, right); the two are equal for every rational x
    and integer k >= 0, which the identity checks assert.
    """
    left = generalized_binomial(x, k)
    right = generalized_binomial(k - Fraction(x) - 1, k)
    if k % 2:
        right = -right
    return left, right


def as_integer(value: Rational) -> int:
    """Collapse a rational known to be integral; ArithmeticError otherwise."""
    if value.denominator != 1:
        raise ArithmeticError(f"expected an integer, got {value!r}")
    return int(value)
