"""Tests for the exact integer and rational arithmetic layer."""

import math
import random
import sys
import threading
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latticepaths import (
    ValidationError,
    as_integer,
    binomial,
    exactmath,
    generalized_binomial,
    upper_negation,
)


def test_binomial_small_values():
    assert binomial(4, 2) == 6
    assert binomial(5, 0) == 1
    assert binomial(3, 5) == 0
    assert binomial(0, 0) == 1


def test_binomial_out_of_range_is_zero():
    assert binomial(6, -1) == 0
    assert binomial(6, 7) == 0


def test_binomial_rejects_negative_upper_index():
    with pytest.raises(ValidationError, match=r"^binomial upper index must be nonnegative, got -1$"):
        binomial(-1, 0)


_HUGE = 10**5000  # 5,001 digits, past Python's default int-to-str limit (4300, from 3.11 on)


@pytest.mark.parametrize("call, message", [
    (lambda: binomial(-_HUGE, 0), "binomial upper index must be nonnegative, got -<16610-bit integer>"),
    (lambda: generalized_binomial(1, -_HUGE),
     "generalized binomial lower index must be nonnegative, got -<16610-bit integer>"),
    (lambda: upper_negation(1, -_HUGE),
     "generalized binomial lower index must be nonnegative, got -<16610-bit integer>"),
], ids=["binomial", "generalized_binomial", "upper_negation"])
def test_a_huge_negative_index_is_refused_with_a_short_message(call, message):
    # The message gives the bit length, not the digits, of an index that
    # Python would refuse to format under its default limit.
    with pytest.raises(ValidationError) as caught:
        call()
    assert str(caught.value) == message


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=64))
def test_binomial_pascal_rule(n, k):
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


@given(st.integers(min_value=0, max_value=64))
def test_binomial_row_ends(n):
    assert binomial(n, 0) == 1
    assert binomial(n, n) == 1


@pytest.fixture
def table(monkeypatch):
    """An empty prime table for one test, and the (n, k) of every call that
    takes the table route; the kept table is restored afterwards."""
    monkeypatch.setattr(exactmath, "_table", (0, [], []))
    calls = []
    route = exactmath._by_primes

    def spy(n, k):
        calls.append((n, k))
        return route(n, k)

    monkeypatch.setattr(exactmath, "_by_primes", spy)
    return calls


def test_binomial_takes_the_prime_table_past_the_size_test(table):
    # j = min(k, n-k) >= 300 and j*j >= 64*n picks the table; at n = 3000
    # the least such j is 439.
    cases = [(600, 300, True), (599, 299, False), (1000, 299, False), (1000, 300, True),
             (1000, 700, True), (1000, 701, False), (3000, 438, False), (3000, 439, True),
             (3000, 2561, True), (3000, 2562, False), (40000, 1599, False), (40000, 1600, True)]
    for n, k, by_primes in cases:
        table.clear()
        assert binomial(n, k) == math.comb(n, k), (n, k)
        assert table == ([(n, min(k, n - k))] if by_primes else []), (n, k)
    for n in (0, 1, 2, 599, 600, 1000, 3000, 40000):
        for k in {0, 1, n - 1, n}:
            assert binomial(n, k) == (math.comb(n, k) if 0 <= k <= n else 0), (n, k)
    assert binomial(40000, -1) == binomial(40000, 40001) == 0


def test_binomial_at_prime_powers():
    for p in (2, 3, 5, 7, 11, 13):
        q = p
        while q <= 10000:
            for n in (q - 1, q, q + 1):
                # k spans the table's three prime ranges and Kummer's borrows.
                for k in {1, 2, n // 3, n // 2, (n - 1) // 2, n // p}:
                    assert binomial(n, k) == math.comb(n, k), (n, k)
                    if 4 <= n and 0 <= 2 * k <= n:
                        assert exactmath._by_primes(n, k) == math.comb(n, k), (n, k)
            q *= p


def test_band_rule_at_its_edges(table):
    # Past max(sqrt(n), n/3) and up to n/2, a prime p divides C(n, j) exactly
    # when p > j and 2p > n - j; the table route takes those primes from the
    # band.  Edges: n = 3p - 1, 3p, 3p + 1 (p against n/3), j = p and
    # 2p = n - j, each off by one; n <= 9 has sqrt(n) >= n/3.
    for p in (5, 7, 11, 101, 331, 1009, 3001):
        for n in (3 * p - 1, 3 * p, 3 * p + 1):
            for j in {p - 1, p, p + 1, n - 2 * p - 1, n - 2 * p, n - 2 * p + 1}:
                if 0 <= 2 * j <= n:
                    value = math.comb(n, j)
                    assert exactmath._by_primes(n, j) == value, (n, j)
                    primes = exactmath._table[1]
                    low = bisect_right(primes, max(math.isqrt(n), n // 3))
                    for q in primes[low:bisect_right(primes, n // 2)]:
                        assert (value % q == 0) == (q > j and 2 * q > n - j), (n, j, q)
    for n in range(4, 10):
        assert [exactmath._by_primes(n, j) for j in range(n // 2 + 1)] == \
            [math.comb(n, j) for j in range(n // 2 + 1)], n


def test_prime_ranges_on_run_boundaries(table):
    # A range of primes that all divide once is its loose ends plus the
    # cached runs inside it: ranges that start or end on a run boundary, or
    # that are shorter than two runs.
    exactmath._by_primes(20000, 10000)
    _, primes, runs = exactmath._table
    size = exactmath._RUN
    for first in (40, 41, 45):
        for length in range(0, 4 * size + 2):
            low = first * size + length % 3 - 1
            high = low + length
            loose = []
            cached = exactmath._span(primes, runs, low, high, loose)
            assert sorted(loose) == loose and math.prod(cached) * math.prod(loose) == math.prod(primes[low:high])
            assert len(cached) == max(0, high // size - -(-low // size)), (low, high)
    # (n - j, n] from the first prime of one run to the last of another.
    for start, stop in ((100, 101), (100, 102), (101, 104), (150, 151), (150, 153)):
        n = primes[stop * size - 1]
        for below in (primes[start * size - 1], primes[start * size] - 1, primes[start * size]):
            j = n - below
            assert bisect_right(primes, n - j) % size in (0, 1) and bisect_right(primes, n) % size == 0
            if 2 * j <= n:
                assert exactmath._by_primes(n, j) == math.comb(n, j), (n, j)
                assert exactmath._by_primes(n + 1, j + 1) == math.comb(n + 1, j + 1), (n, j)


def test_product_on_both_sides_of_its_flat_threshold():
    # Up to 32 factors are multiplied in one flat prod, more by halves.
    factors = list(range(1, 200))
    for low in (0, 1, 7):
        for count in (0, 1, 31, 32, 33, 64, 65, 66, 150):
            assert exactmath._product(factors, low, low + count) == math.prod(factors[low:low + count])


def test_binomial_on_a_seeded_sample(table):
    rng = random.Random(25)
    for _ in range(300):
        n = round(math.exp(rng.uniform(0, math.log(40000))))
        k = rng.randint(-2, n + 2)
        assert binomial(n, k) == (math.comb(n, k) if 0 <= k <= n else 0), (n, k)
    assert table  # the sample reached the table route


def test_table_growth_does_not_change_a_value(table):
    sizes = [600, 1023, 1024, 1025, 3000, 5000, 9000, 17000, 33000]
    bounds = []
    for n in sizes + sizes[::-1]:
        for k in (n // 2, n // 3):
            assert binomial(n, k) == math.comb(n, k), (n, k)
        bound, primes, runs = exactmath._table
        bounds.append((bound, len(primes)))
        # Every run is the product of its _RUN primes, over the whole runs.
        size = exactmath._RUN
        assert len(runs) == len(primes) // size
        assert all(run == math.prod(primes[i * size:(i + 1) * size]) for i, run in enumerate(runs))
    # The bound doubles, past each new n, and only while n rises; the table
    # holds the pi(bound) primes below it (32761 = 181**2 is not one).
    assert bounds[:len(sizes)] == [
        (1024, 172), (1024, 172), (2048, 309), (2048, 309), (4096, 564), (8192, 1028),
        (16384, 1900), (32768, 3512), (65536, 6542),
    ]
    assert bounds[len(sizes):] == [(65536, 6542)] * len(sizes)
    assert primes[:10] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_a_smaller_table_kept_meanwhile_does_not_change_a_value(table, monkeypatch):
    # Another thread may keep its smaller table between this call's growth
    # and its reads; the call must go on with the primes it built.
    grow = exactmath._sieve

    def racing(n, bound):
        kept = grow(n, bound)
        _, primes, runs = kept
        # the primes below 1024 and their whole runs
        exactmath._table = (1024, primes[:172], runs[:172 // exactmath._RUN])
        return kept

    monkeypatch.setattr(exactmath, "_sieve", racing)
    for n in (3000, 9000):
        assert binomial(n, n // 2) == math.comb(n, n // 2), n


def test_threads_growing_the_table_at_once_get_exact_values(table):
    # Each thread asks for a larger n than the last, from its own place in
    # the list; a thread switch after almost every bytecode interleaves the
    # growths and the reads.
    sizes = [600 * 2**i for i in range(6)]
    wrong = []

    def work(offset):
        for n in sizes[offset:] + sizes[:offset]:
            if binomial(n, n // 2) != math.comb(n, n // 2):
                wrong.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == [] and len(table) == 4 * len(sizes)


def test_table_stops_at_its_limit(table, monkeypatch):
    limit = exactmath.PRIME_TABLE_LIMIT
    for n, k in ((limit + 1, 0), (limit + 1, 5), (limit + 1, limit - 3), (10**7, 3), (10**30, 2)):
        assert binomial(n, k) == math.comb(n, k), (n, k)
    assert (table, exactmath._table) == ([], (0, [], []))
    # On a limit of 4096 the table holds the primes up to it and no more.
    monkeypatch.setattr(exactmath, "PRIME_TABLE_LIMIT", 4096)
    assert binomial(4096, 2048) == math.comb(4096, 2048)
    assert (table, exactmath._table[0]) == ([(4096, 2048)], 4097)
    assert binomial(4097, 2048) == math.comb(4097, 2048)
    assert (table, exactmath._table[0], exactmath._table[1][-1]) == ([(4096, 2048)], 4097, 4093)


def test_generalized_binomial_examples():
    assert generalized_binomial(-1, 2) == 1
    assert generalized_binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert generalized_binomial(6, 2) == 15
    assert generalized_binomial(Fraction(7, 3), 0) == 1


def test_generalized_binomial_rejects_negative_order():
    with pytest.raises(ValidationError):
        generalized_binomial(Fraction(1, 2), -1)


@given(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20))
def test_generalized_binomial_agrees_with_binomial(n, k):
    if k <= n:
        assert generalized_binomial(n, k) == binomial(n, k)


def test_upper_negation_examples():
    assert upper_negation(-2, 1) == (-2, -2)
    assert upper_negation(5, 2) == (10, 10)
    assert upper_negation(Fraction(1, 2), 1) == (Fraction(1, 2), Fraction(1, 2))


@given(
    st.fractions(
        min_value=-8, max_value=8, max_denominator=6
    ),
    st.integers(min_value=0, max_value=12),
)
def test_upper_negation_components_equal(x, k):
    left, right = upper_negation(x, k)
    assert left == right


def test_as_integer_accepts_integral_rationals():
    assert as_integer(Fraction(10, 2)) == 5
    assert as_integer(Fraction(0, 7)) == 0


def test_as_integer_rejects_proper_fractions():
    with pytest.raises(ArithmeticError):
        as_integer(Fraction(1, 2))
