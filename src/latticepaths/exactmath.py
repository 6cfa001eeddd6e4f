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
  picking up generalized-binomial terms.  Small coefficients come from
  ``math.comb``.  Past a size test, C(n, k) with n <= ``PRIME_TABLE_LIMIT``
  is built with no division as the product of its prime powers (Kummer's
  carry theorem; P. Goetgheluck, "Computing binomial coefficients", Amer.
  Math. Monthly 94 (1987) 360-365), from a prime table kept between calls;
  ``math.comb`` spends most of its time at those sizes in big-integer
  division.  With j = min(k, n-k), every prime in (n-j, n] divides C(n, k)
  once.  A prime p in (max(sqrt(n), n/3), n/2] has n mod p = n - 2p, so it
  divides C(n, k) once exactly when p > j and 2p > n - j: those primes
  form the band (max(sqrt(n), n/3, j, (n-j)/2), n/2].  The band must start
  above sqrt(n), where no square of p divides.  The table also keeps the
  product of each run of ``_RUN`` = 16 consecutive primes, so each of those
  two ranges costs one multiplication per run inside it, plus its loose
  ends; only the primes in (sqrt(n), n/3] are tested one by one, and those
  up to sqrt(n) take Kummer's count.  At the limit the table holds 82,025
  primes and 5,126 runs: 3.7 MB under ``tracemalloc``, of which the runs
  are 0.38 MB.
* ``generalized_binomial(x, k)`` is the falling-factorial form
  x(x-1)...(x-k+1)/k! for rational (or integer) x and k >= 0.  On integer
  x >= 0 it agrees with ``binomial``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, isqrt, prod

from .errors import ValidationError

Rational = Fraction

# The largest upper index whose binomials come from the prime table.  The
# table grows by doubling to the first power of two past the largest n asked,
# so it never holds more than the 82,025 primes below 2**20 and their runs:
# about 3.7 MB, built in about 20 ms on Python 3.11.  Past it, ``binomial``
# calls ``math.comb``.
PRIME_TABLE_LIMIT = 1 << 20

# Primes per cached run: the table keeps, beside its primes, the product of
# each _RUN consecutive ones, so that a range of primes that all divide a
# binomial once costs one multiplication per run.  Of 8, 16, 24 and 32,
# timed from C(658, 329) to C(2**20, 2**19) on Python 3.11, 16 was among
# the fastest at every size.
_RUN = 16

# (bound, the primes below bound in increasing order, the products of
# primes[i:i + _RUN] for i = 0, _RUN, 2*_RUN, ... over whole runs), replaced
# whole, so that a caller reads a matching triple even while another thread
# grows it.
_table: tuple[int, list[int], list[int]] = (0, [], [])


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the 0-outside-range convention; n >= 0."""
    if 0 <= k <= n < 600:
        return comb(n, k)
    if n < 0:
        raise ValidationError(f"binomial upper index must be nonnegative, got {_shown(n)}")
    if k < 0 or k > n:
        return 0
    # The size test, from timings on Python 3.10-3.13: the prime table is the
    # faster once j = min(k, n-k) >= 300 and j >= 8*sqrt(n); math.comb is
    # the faster well below that, most of all at small j.
    j = min(k, n - k)
    if j < 300 or j * j < 64 * n or n > PRIME_TABLE_LIMIT:
        return comb(n, k)
    return _by_primes(n, j)


def _shown(value: int) -> str:
    """An integer for a message: in decimal up to 1000 bits, and past that
    as its sign and bit length, which no int-to-str limit refuses (Python's
    least limit is 640 digits)."""
    if isinstance(value, int) and value.bit_length() > 1000:
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit integer>"
    return str(value)


def _by_primes(n: int, k: int) -> int:
    """C(n, k) for 2k <= n and 4 <= n <= PRIME_TABLE_LIMIT, as a product of
    prime powers."""
    import bisect  # here, so that importing the package loads no more modules

    bound, primes, runs = _table
    if n >= bound:
        bound, primes, runs = _sieve(n, bound)
    rank = bisect.bisect_right
    root, third = rank(primes, isqrt(n)), rank(primes, n // 3)
    factors = []
    # Primes in (n-k, n] divide C(n, k) once and those in (n/2, n-k] not at all.
    cached = _span(primes, runs, rank(primes, n - k), rank(primes, n), factors)
    # For a prime p in (max(sqrt(n), n/3), n/2], n mod p = n - 2p, so p divides
    # it once exactly when p > k and 2p > n - k, and not at all otherwise.
    # The band is empty when k is near n/2.
    band = max(isqrt(n), n // 3, k, (n - k) // 2)
    if band < n // 2:
        cached += _span(primes, runs, rank(primes, band), rank(primes, n // 2), factors)
    # A prime in (sqrt(n), n/3] divides it once exactly when n mod p < k mod p.
    factors += [p for p in primes[root:third] if n % p < k % p]
    # A smaller prime p divides it once for each power q of p with
    # n mod q < k mod q (Kummer's count of the borrows in n - k, base p);
    # for p = 2 that count is a difference of bit counts.
    for p in primes[1:root]:
        e, q = 0, p
        while q <= n:
            e += n % q < k % q
            q *= p
        if e:
            factors.append(p**e)
    twos = k.bit_count() + (n - k).bit_count() - n.bit_count()
    # The other factors go into blocks of _RUN, so that every leaf of the
    # product's tree is about one size.
    cached += [prod(factors[i:i + _RUN]) for i in range(0, len(factors), _RUN)]
    return _product(cached, 0, len(cached)) << twos


def _span(primes: list[int], runs: list[int], low: int, high: int, loose: list[int]) -> list[int]:
    """The cached runs inside primes[low:high]; the primes of that range
    outside them, its loose ends, go onto ``loose``."""
    first, last = -(-low // _RUN), high // _RUN
    if first >= last:
        loose += primes[low:high]
        return []
    loose += primes[low:first * _RUN]
    loose += primes[last * _RUN:high]
    return runs[first:last]


def _product(factors: list[int], low: int, high: int) -> int:
    """The product of factors[low:high] by halves, so that the two sides of
    each large multiplication are about the same size."""
    if high - low <= 32:
        return prod(factors[low:high])
    middle = (low + high) // 2
    return _product(factors, low, middle) * _product(factors, middle, high)


def _sieve(n: int, bound: int) -> tuple[int, list[int], list[int]]:
    """Keep as the table, and return, the primes below a new bound past n
    and their runs: the bound is at least twice ``bound``, but not past
    PRIME_TABLE_LIMIT + 1."""
    global _table
    from itertools import compress

    bound = max(2 * bound, 1 << 10)
    while bound <= n:
        bound *= 2
    bound = min(bound, PRIME_TABLE_LIMIT + 1)
    odd = bytearray([1]) * (bound // 2)  # odd[i] stands for 2i + 1
    odd[0] = 0
    for p in range(3, isqrt(bound) + 1, 2):
        if odd[p // 2]:
            odd[p * p // 2::p] = bytes(len(range(p * p // 2, bound // 2, p)))
    primes = [2, *compress(range(1, bound, 2), odd)]
    runs = [prod(primes[i:i + _RUN]) for i in range(0, len(primes) - _RUN + 1, _RUN)]
    _table = (bound, primes, runs)
    return _table


def generalized_binomial(x: Rational | int, k: int) -> Rational:
    """Generalized binomial coefficient C(x, k) over the rationals, k >= 0."""
    if k < 0:
        raise ValidationError(f"generalized binomial lower index must be nonnegative, got {_shown(k)}")
    p, q = Fraction(x).as_integer_ratio()
    return Fraction(_falling(p, k, q), q**k * factorial(k))


def _falling(top: int, k: int, step: int) -> int:
    """top*(top - step)*...*(top - (k-1)*step), the numerator of C(top/step, k)."""
    return prod(range(top, top - k * step, -step))


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
