"""Tests for the closed-form evaluators against frozen oracle values."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticepaths import (
    BohmQuery,
    BoundaryLine,
    KoroljukQuery,
    NiederhausenQuery,
    PathQuery,
    SlopeKind,
    Strictness,
    ValidationError,
    ballot,
    base_case,
    binomial,
    bohm,
    count,
    count_strict,
    count_stepset,
    count_strict_inv,
    count_weak,
    count_weak_inv,
    dp_count,
    fuss_catalan,
    integer_slope,
    inverse_slope,
    koroljuk_literal,
    koroljuk_reduced,
    min_ordinate_above,
    niederhausen,
    niederhausen_forms_check,
    validate_query,
)
from latticepaths import exactmath, formulas
from latticepaths.errors import require
from latticepaths.formulas import _avoiding, _ballot_sum, _exact, _finish, _touching
from latticepaths.verify import KOROLJUK_GRID, _niederhausen_grid

WEAK = Strictness.WEAK
STRICT = Strictness.STRICT


def test_count_weak_examples():
    assert count_weak(1, 0, 0, 0, 2, 2) == 2
    assert count_weak(1, 0, 0, 2, 2, 2) == 1
    assert count_weak(2, 3, 1, 1, 1, 1) == 1


def test_count_weak_empty_path_is_one():
    for k, r in ((1, 0), (2, 1), (3, -1)):
        m = 2
        n = max(0, k * m - r)
        assert count_weak(k, r, m, n, m, n) == 1


def test_count_weak_rejects_bad_domains():
    with pytest.raises(ValidationError):
        count_weak(0, 0, 0, 0, 1, 1)
    with pytest.raises(ValidationError):
        count_weak(1, 0, 2, 0, 1, 2)
    with pytest.raises(ValidationError):
        count_weak(1, 0, 0, 0, 3, 2)
    with pytest.raises(ValidationError):
        count_weak(1, 0, 0, 3, 3, 2)


def test_count_strict_examples():
    assert count_strict(1, 1, 0, 0, 1, 2) == 2
    assert count_strict(1, 1, 0, 0, 2, 3) == 5
    assert count_strict(1, 1, 2, 3, 2, 3) == 1


def test_count_strict_rejects_start_on_or_below_line():
    with pytest.raises(ValidationError):
        count_strict(1, 0, 0, 0, 2, 3)


# With r != 0 and b != 0 each sign of a start or end check matters: flipping
# one lets a start or end on the line through, so the message must still be raised.
@pytest.mark.parametrize("evaluator, args, message", [
    (count_strict, (1, 1, 2, 1, 3, 5), "start not strictly above the line: b+r-k*a = 0"),
    (count_strict, (1, -1, 1, 2, 3, 5), "start not strictly above the line: b+r-k*a = 0"),
    (count_strict_inv, (1, 1, 2, 1, 3, 5), "start not strictly above the line: k*b+k*r-a = 0"),
    (count_strict_inv, (1, -1, 1, 2, 3, 5), "start not strictly above the line: k*b+k*r-a = 0"),
    (count_strict_inv, (1, 1, 0, 1, 4, 3), "end not strictly above the line: k*n+k*r-m = 0"),
    (count_strict_inv, (1, -1, 0, 2, 2, 3), "end not strictly above the line: k*n+k*r-m = 0"),
], ids=["strict-start-r>0", "strict-start-r<0", "strict_inv-start-r>0", "strict_inv-start-r<0",
        "strict_inv-end-r>0", "strict_inv-end-r<0"])
def test_strict_evaluators_reject_an_endpoint_on_the_line(evaluator, args, message):
    with pytest.raises(ValidationError) as excinfo:
        evaluator(*args)
    assert str(excinfo.value) == message


def test_count_weak_inv_examples():
    assert count_weak_inv(2, 0, 0, 0, 2, 1) == 1
    assert count_weak_inv(2, 1, 0, 0, 2, 1) == 3
    assert count_weak_inv(3, 0, 2, 1, 2, 1) == 1


def test_count_weak_inv_requires_integral_k_times_r():
    with pytest.raises(ValidationError):
        count_weak_inv(2, Fraction(1, 3), 0, 0, 2, 1)


def test_count_strict_inv_examples():
    assert count_strict_inv(2, 1, 0, 1, 2, 2) == 3
    assert count_strict_inv(1, 0, 0, 1, 2, 3) == 2
    assert count_strict_inv(2, 1, 2, 2, 2, 2) == 1


def test_base_case_examples():
    assert base_case(2, 1, 2, 3, 6) == 3
    assert base_case(1, 0, 1, 2, 2) == 2
    assert base_case(2, 3, 7, 3, 7) == 1
    assert base_case(2, 100, 201, 300, 650) == count_weak(2, 0, 100, 201, 300, 650)


def test_base_case_agrees_with_count_weak():
    for k in (1, 2):
        for a in range(0, 3):
            for m in range(max(1, a), 4):
                for n in range(k * m, k * m + 4):
                    for b in range(k * a, min(n, k * a + k) + 1):
                        assert base_case(k, a, b, m, n) == count_weak(k, 0, a, b, m, n)


def test_ballot_examples():
    assert ballot(2, 2, 4) == 3
    assert ballot(1, 0, 0) == 1
    assert ballot(1, 3, 3) == 5
    assert ballot(2, 2000, 4000) == math.comb(6000, 2000) - 2 * math.comb(6000, 1999)


def test_ballot_agrees_with_count_weak():
    for k in (1, 2, 3):
        for m in range(0, 4):
            for n in range(k * m, k * m + 4):
                assert ballot(k, m, n) == count_weak(k, 0, 0, 0, m, n)


def test_fuss_catalan_examples():
    assert fuss_catalan(2, 3) == 5
    assert fuss_catalan(3, 2) == 3
    assert fuss_catalan(2, 0) == 1
    assert fuss_catalan(3, 400) == math.comb(1200, 400) // 801
    with pytest.raises(ValidationError):
        fuss_catalan(1, 3)


def test_koroljuk_literal_examples():
    assert koroljuk_literal(KoroljukQuery(1, 2, 2, 1)) == 1
    assert koroljuk_literal(KoroljukQuery(1, 1, 2, 1)) == 3
    assert koroljuk_literal(KoroljukQuery(1, 4, 2, 1)) == 0


def test_koroljuk_reduced_examples():
    assert koroljuk_reduced(KoroljukQuery(1, 1, 2, 1)) == 3
    assert koroljuk_reduced(KoroljukQuery(1, 2, 2, 1)) == 1
    assert koroljuk_reduced(KoroljukQuery(2, 7, 2, 1)) == 0


def test_koroljuk_query_requires_positive_parameters():
    with pytest.raises(ValidationError):
        KoroljukQuery(0, 1, 2, 1)
    with pytest.raises(ValidationError):
        KoroljukQuery(1, 0, 2, 1)


def test_niederhausen_examples():
    assert niederhausen(NiederhausenQuery(1, 1, 2, 2)) == 2
    assert niederhausen(NiederhausenQuery(2, 1, 1, 2)) == 2
    assert niederhausen(NiederhausenQuery(1, 1, 0, 3)) == 1


def test_niederhausen_query_requires_integral_kd():
    with pytest.raises(ValidationError, match=r"^NiederhausenQuery needs k\*d integral, got 2/3$"):
        NiederhausenQuery(2, Fraction(1, 3), 1, 2)
    q = NiederhausenQuery(2, Fraction(1, 2), 1, 3)
    assert q.kd == 1
    assert NiederhausenQuery(3, Fraction(-5, 3), 1, 3).kd == -5


def test_niederhausen_query_identity_ignores_cached_kd():
    q, fresh = NiederhausenQuery(2, Fraction(3, 2), 2, 4), NiederhausenQuery(2, Fraction(3, 2), 2, 4)
    assert q.kd == 3
    assert q == fresh and hash(q) == hash(fresh) and repr(q) == repr(fresh)
    assert repr(q) == "NiederhausenQuery(k=2, d=Fraction(3, 2), m=2, n=4)"


def test_niederhausen_rejects_outside_stated_domain():
    with pytest.raises(ValidationError):
        niederhausen(NiederhausenQuery(2, 1, 4, 20))


def test_bohm_examples():
    assert bohm(BohmQuery(1, 2, 1, 2)) == 5
    assert bohm(BohmQuery(2, 1, 1, 1)) == 1
    assert bohm(BohmQuery(1, 3, 2, 0)) == 1


def test_bohm_query_requires_enough_altitude():
    with pytest.raises(ValidationError):
        BohmQuery(1, 1, 5, 2)
    with pytest.raises(ValidationError):
        BohmQuery(1, 0, 1, 2)


def test_strict_equals_shifted_weak():
    for k, r, a, b, m, n in (
        (1, 1, 0, 1, 2, 3),
        (2, 0, 0, 1, 1, 3),
        (2, 2, 1, 3, 3, 7),
        (3, 1, 0, 1, 2, 7),
    ):
        assert count_strict(k, r, a, b, m, n) == count_weak(k, r, a, b - 1, m, n - 1)


def test_weak_count_decreasing_in_start_ordinate():
    values = [count_weak(1, 0, 0, b, 3, 5) for b in range(0, 6)]
    assert values == sorted(values, reverse=True)


def test_reflection_identity_between_slope_kinds():
    for k, r, a, b, m, n in (
        (2, 0, 0, 0, 2, 1),
        (2, 1, 0, 0, 2, 1),
        (3, 1, 1, 1, 4, 2),
        (2, 2, 0, 1, 3, 2),
    ):
        direct = count_weak_inv(k, r, a, b, m, n)
        reflected = count_weak(k, k * r, 0, k * (n + r) - m, n - b, k * (n + r) - a)
        assert direct == reflected


def test_count_wrapper_returns_zero_for_invalid_queries():
    q = PathQuery(1, 0, 2, 4, integer_slope(2, 0), WEAK)
    assert count(q) == 0


def test_count_wrapper_matches_oracle_on_extended_queries():
    cases = (
        PathQuery(0, 0, 1, 2, integer_slope(1, 1), STRICT),
        PathQuery(0, -1, 2, 2, integer_slope(1, 1), WEAK),
        PathQuery(-1, 0, 2, 3, integer_slope(1, 2), WEAK),
        PathQuery(-1, -1, 1, 2, integer_slope(1, 2), WEAK),
        PathQuery(-2, 0, 2, 2, inverse_slope(2, 1), WEAK),
    )
    for q in cases:
        assert count(q) == dp_count(q)


def test_count_wrapper_handles_non_integer_intercepts():
    line = integer_slope(1, Fraction(1, 2))
    weak = PathQuery(0, 0, 3, 3, line, WEAK)
    strict = PathQuery(0, 0, 3, 3, line, STRICT)
    assert count(weak) == dp_count(weak)
    assert count(strict) == dp_count(strict)
    assert count(weak) == count(strict)


def test_totals_are_plain_integers():
    assert isinstance(count_weak(2, 1, 0, 0, 2, 4), int)
    assert isinstance(koroljuk_reduced(KoroljukQuery(2, 3, 4, 2)), int)
    assert isinstance(bohm(BohmQuery(2, 2, 3, 3)), int)


def test_huge_intercept_costs_only_the_nonzero_terms():
    # Without truncation this sum would run over 5 * 10**11 terms.
    assert count_weak(1, 10**12, 0, 0, 2, 3) == 10


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(SlopeKind),
    k=st.integers(1, 3),
    r=st.fractions(min_value=-2, max_value=6, max_denominator=5),
    strictness=st.sampled_from(Strictness),
    a=st.integers(-2, 3),
    rise=st.integers(0, 3),
    east=st.integers(0, 6),
    north=st.integers(0, 4),
)
def test_count_matches_oracle_on_extended_domain(kind, k, r, strictness, a, rise, east, north):
    # Starts on or just above the line reach negative starts and strict
    # starts at ordinate 0; the end is put on or above the line as well.
    line = BoundaryLine(kind, k, r)
    b = min_ordinate_above(line, a, strictness) + rise
    m = a + east
    n = max(b, min_ordinate_above(line, m, strictness)) + north
    q = PathQuery(a, b, m, n, line, strictness)
    assert validate_query(q).ok
    assert count(q) == dp_count(q)


def _koroljuk_literal_reference(q):
    """The literal sum on Fractions: c/s * C(s, j) * C(m+n-s, n-j) over s = c + j*(p+1)."""
    total = Fraction(0)
    for j, s in enumerate(range(q.c, q.m + q.n + 1, q.p + 1)):
        total += Fraction(q.c, s) * binomial(s, j) * binomial(q.m + q.n - s, q.n - j)
    return total


def _collected_reference(q):
    """The collected form of the strict count on Fractions, term by term as printed."""
    k, m, n, kd = q.k, q.m, q.n, q.kd
    total = Fraction(binomial(m + n, m))
    for i in range((kd - 1) // (k + 1) + 1, m + 1):
        upper = m + n + kd - (k + 1) * i
        total -= (
            Fraction(n + kd - k * m, upper) * binomial(upper, m - i) * binomial((k + 1) * i - kd, i)
        )
    return total


def test_integer_sums_equal_their_fraction_references():
    for q in [KoroljukQuery(*t) for t in KOROLJUK_GRID] + [KoroljukQuery(2, 5, 60, 70)]:
        assert koroljuk_literal(q) == _koroljuk_literal_reference(q), q
    for q in [*_niederhausen_grid(), NiederhausenQuery(2, 125, 60, 70)]:
        assert niederhausen_forms_check(q).values["collected"] == _collected_reference(q), q


def _comb(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def test_the_literal_koroljuk_sum_is_the_last_passage_sum():
    # With v = c + p*n - m, the literal term at s = c + (p+1)*j is
    # _touching(p, v, n, m)'s term at y = n - j (where e = c), so the two
    # routes share every term and differ only in how they compute it.  For
    # v < 1 the chooser runs the alternating sum, and this reaches _touching.
    extra = [(1, 1, 12, 1), (1, 3, 9, 2), (2, 1, 20, 2), (3, 2, 30, 3), (2, 4, 10, 3)]
    for p, c, m, n in [*KOROLJUK_GRID, *extra]:
        v = c + p * n - m
        literal = {j: Fraction(c, s) * _comb(s, j) * _comb(m + n - s, n - j)
                   for j, s in enumerate(range(c, m + n + 1, p + 1))}
        touching = {n - y: Fraction(c, c + p * (n - y)) * _comb(c + (p + 1) * (n - y) - 1, n - y)
                    * _comb((p + 1) * y - v, y) for y in range(n + 1)}
        nonzero = [{j: t for j, t in terms.items() if t} for terms in (literal, touching)]
        assert nonzero[0] == nonzero[1], (p, c, m, n)
        assert koroljuk_literal(KoroljukQuery(p, c, m, n)) == _touching(p, v, n, m), (p, c, m, n)


@pytest.mark.parametrize("p, c", [(1, 3), (2, 5)])
def test_koroljuk_forms_agree_at_size(p, c):
    q = KoroljukQuery(p, c, 200, 200)
    assert koroljuk_reduced(q) == koroljuk_literal(q)


@pytest.mark.parametrize("k, kd, m, n", [(1, 200, 200, 200), (1, 150, 200, 210), (2, 250, 200, 210)])
def test_niederhausen_matches_collected_form_at_size(k, kd, m, n):
    report = niederhausen_forms_check(NiederhausenQuery(k, Fraction(kd, k), m, n))
    assert report.ok, report.line()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_count_weak_from_the_origin_is_the_ballot_number_at_size(k):
    m = 500
    expected = math.comb(m + k * m, m) - k * math.comb(m + k * m, m - 1)
    assert count_weak(k, 0, 0, 0, m, k * m) == expected


def test_rectangle_above_the_line_counts_every_path():
    # y = 2x - 1000 lies below the whole rectangle [0, 40] x [0, 50].
    assert count_weak(2, 1000, 0, 0, 40, 50) == math.comb(90, 40)
    assert count_strict(2, 1000, 0, 0, 40, 50) == math.comb(90, 40)


def test_inexact_binomial_step_raises():
    assert _exact(10, 3, 5) == 6
    with pytest.raises(ArithmeticError):
        _exact(10, 3, 4)


def stepping_ballot_sum(k, e, total, x0, dx, alternate):
    """Reference kernel: the same sum, with both binomials stepped from term
    to term by unit moves of their indices, one exact division per move."""
    low, high = 0, total
    if dx < 1:
        high = min(high, x0 // (1 - dx))
    else:
        low = max(low, -(x0 // (dx - 1)))
    if low > high:
        return 0
    y, j = low, total - low
    t, x = e + (k + 1) * j - 1, x0 + dx * low
    lead, walk = binomial(t, j), binomial(x, y)
    acc = 0
    while True:
        left = _exact(lead, j, t - j + 1)  # C(t, j-1)
        term = (lead - k * left) * walk
        acc += -term if alternate and y & 1 else term
        if y == high:
            return _finish(acc)
        j -= 1
        for _ in range(k + 1):  # C(t, j) down to C(t-k-1, j)
            left = _exact(left, t - j, t)
            t -= 1
        lead = left
        for _ in range(-dx):  # C(x, y) down to C(x+dx, y) when dx < 0
            walk = _exact(walk, x - y, x)
            x -= 1
        for _ in range(dx):  # C(x, y) up to C(x+dx, y) when dx > 0
            x += 1
            walk = _exact(walk, x, x - y)
        walk = _exact(walk, x - y, y + 1)  # C(x, y+1)
        y += 1


def _outcome(kernel, *args):
    try:
        return kernel(*args)
    except ArithmeticError as exc:
        return ("ArithmeticError", str(exc))


def _kernels_agree(args):
    return _outcome(_ballot_sum, *args) == _outcome(stepping_ballot_sum, *args)


DXS = (-4, -3, -2, -1, 0, 2, 3, 4, 5)


def test_ballot_sum_matches_stepping_kernel_on_small_tuples():
    tuples = [
        (k, e, total, x0, dx, alternate)
        for k in range(1, 5)
        for e in range(1, 10)
        for total in range(0, 11)
        for x0 in range(-4, 18)
        for dx in DXS
        for alternate in (False, True)
    ]
    assert len(tuples) == 156_816
    outcomes = [(args, _outcome(_ballot_sum, *args)) for args in tuples]
    assert [args for args, got in outcomes if got != _outcome(stepping_ballot_sum, *args)] == []
    # Alternating sums from arbitrary x0 go negative, and both kernels raise.
    assert any(isinstance(got, tuple) for _, got in outcomes)


def test_ballot_sum_matches_stepping_kernel_on_a_seeded_sample():
    rng = random.Random(20131)
    for _ in range(200):
        k, e, total, dx = rng.randint(1, 4), rng.randint(1, 400), rng.randint(0, 300), rng.choice(DXS)
        # x0 ranges over starts that keep many terms nonzero, and a little past.
        reach = (1 - dx) * total if dx < 1 else (dx - 1) * total
        x0 = rng.randint(-20, reach + 20) if dx < 1 else rng.randint(-reach - 20, 20)
        args = (k, e, total, x0, dx, rng.random() < 0.5)
        assert _kernels_agree(args), args


def test_ballot_sum_matches_stepping_kernel_at_n_1000():
    # count_weak(2, N, 0, N, N, 3N) at N = 1000, a sum of 667 terms.
    n = 1000
    args = (2, 2 * n + 1, n, 2 * n, -2, True)
    assert _ballot_sum(*args) == stepping_ballot_sum(*args) == count_weak(2, n, 0, n, n, 3 * n)


def test_ballot_sum_matches_stepping_kernel_in_the_last_passage_direction_at_n_1000():
    # _touching(1, 330, 1000, 1000): dx = k + 1 = 2, a sum of 671 terms.
    args = (1, 330, 1000, -330, 2, False)
    assert _ballot_sum(*args) == stepping_ballot_sum(*args) == _touching(1, 330, 1000, 1000)
    assert math.comb(2000, 1000) - _ballot_sum(*args) == _avoiding(1, 330, 1000, 1000)


@pytest.mark.parametrize("fault", [
    lambda n, k: math.perm(n + 1, k),
    lambda n, k: math.perm(n, k) + 1,
], ids=["argument-off-by-one", "product-off-by-one"])
def test_a_wrong_term_ratio_raises_instead_of_counting(monkeypatch, fault):
    monkeypatch.setattr(formulas, "perm", fault)
    for call in (
        lambda: _ballot_sum(2, 2001, 1000, 2000, -2, True),
        lambda: _ballot_sum(1, 330, 1000, -330, 2, False),
        lambda: count_weak_inv(2, 150, 150, 0, 450, 150),
        lambda: koroljuk_reduced(KoroljukQuery(1, 4, 150, 150)),
        # d = 2: a one-term kernel, so only the derived total C(300, 150) steps by perm.
        lambda: koroljuk_reduced(KoroljukQuery(1, 2, 150, 150)),
    ):
        with pytest.raises(ArithmeticError, match="inexact binomial step: remainder"):
            call()


@pytest.mark.parametrize("n", [148, 150])
def test_walk_and_inverse_slope_counts_match_the_oracle_at_size(n):
    # The big-counts benchmark shapes at about a third of their size.
    for evaluator, strictness in ((count_weak_inv, WEAK), (count_strict_inv, STRICT)):
        q = PathQuery(n, 0, 3 * n, n, inverse_slope(2, n), strictness)
        assert evaluator(2, n, n, 0, 3 * n, n) == dp_count(q), (n, strictness)
    for start in (3, 7):
        q = BohmQuery(2, start, n, n)
        assert bohm(q) == count_stepset(q), (n, start)


def _strict_form(k, r, a, b, m, n, strictness):
    """(d, M, N): the query moved to the origin, strictly above y = k*x - d."""
    return b + r - k * a + (strictness is WEAK), m - a, n - b


def _last_passage_form(k, d, m, n):
    return math.comb(m + n, m) - _touching(k, d, m, n)


def _evaluator_queries(ks=(1, 2, 3)):
    """Every query of a small grid inside count_weak's or count_strict's
    block: slopes ``ks``, both modes, starts (a, b) off the origin."""
    for k, strictness in product(ks, Strictness):
        evaluator = count_weak if strictness is WEAK else count_strict
        for r, a, b in product(range(-1, 7), range(0, 3), range(0, 5)):
            for m, n in product(range(a, a + 5), range(b, b + 6)):
                d, M, N = _strict_form(k, r, a, b, m, n, strictness)
                if d >= 1 and N + d - k * M >= 1:
                    yield evaluator, (k, r, a, b, m, n), strictness, (d, M, N)


def test_both_unit_path_sums_match_the_oracle_for_every_d():
    # Niederhausen's stated domain d >= (k-1)*M does not bind the
    # last-passage sum: both sums hold for every d >= 1.
    checked = outside = 0
    for _, (k, r, a, b, m, n), strictness, (d, M, N) in _evaluator_queries(range(1, 6)):
        expected = dp_count(PathQuery(a, b, m, n, integer_slope(k, r), strictness))
        assert _avoiding(k, d, M, N) == expected, (k, r, a, b, m, n, strictness)
        assert _last_passage_form(k, d, M, N) == expected, (k, r, a, b, m, n, strictness)
        checked += 1
        outside += d < (k - 1) * M
    assert checked > 10_000 and outside > 500
    # And from the origin, every 1 <= d < (k-1)*M with the end just above the line.
    for k, M in product(range(2, 6), range(1, 12)):
        for d, e in product(range(1, (k - 1) * M), range(1, 7)):
            N = k * M - d + e
            expected = dp_count(PathQuery(0, 0, M, N, integer_slope(k, d), STRICT))
            assert _avoiding(k, d, M, N) == _last_passage_form(k, d, M, N) == expected, (k, d, M, N)
            outside += 1
    assert outside > 4_000


def _nonzero_terms(total, x0, dx):
    """Terms of the kernel's sum with both binomials nonzero, counted one by one."""
    return sum(1 for y in range(total + 1) if 0 <= y <= x0 + dx * y)


def test_unit_path_count_runs_the_shorter_sum(kernel_calls):
    chosen = {"alternating": 0, "last-passage": 0}
    for evaluator, args, _, (d, M, N) in _evaluator_queries():
        k = args[0]
        alternating = _nonzero_terms(M, d - 1, -k)
        last_passage = _nonzero_terms(M, -d, k + 1)
        expected = _avoiding(k, d, M, N)
        kernel_calls.clear()
        assert evaluator(*args) == expected
        if last_passage < alternating:
            assert kernel_calls == [(-d, k + 1)], args
            chosen["last-passage"] += 1
        else:
            assert kernel_calls == [(d - 1, -k)], args
            chosen["alternating"] += 1
    assert min(chosen.values()) > 500


def test_unit_path_count_runs_the_last_passage_sum_outside_the_domain(kernel_calls):
    # From the origin to (10, 12) strictly above y = 3x - 19: d = 19 < (k-1)*M = 20,
    # outside Niederhausen's stated domain, and the last-passage sum has 4
    # nonzero terms against 5.
    k, d, M, N = 3, 19, 10, 12
    assert _nonzero_terms(M, -d, k + 1) == 4 and _nonzero_terms(M, d - 1, -k) == 5
    value = count_strict(k, d, 0, 0, M, N)
    assert kernel_calls == [(-d, k + 1)]
    assert value == dp_count(PathQuery(0, 0, M, N, integer_slope(k, d), STRICT))


def test_inverse_slope_counts_reach_the_chooser(kernel_calls):
    # (0, 0) -> (10, 5) strictly above y = x/2 - 5 turns into the origin form
    # (k, d, M, N) = (2, 10, 5, 10), where the last-passage sum has 1 nonzero
    # term against 4.
    k, r, m, n = 2, 5, 10, 5
    d, M = k * n + k * r - m, n
    assert _nonzero_terms(M, -d, k + 1) == 1 and _nonzero_terms(M, d - 1, -k) == 4
    value = count_strict_inv(k, r, 0, 0, m, n)
    assert kernel_calls == [(-d, k + 1)]
    assert value == dp_count(PathQuery(0, 0, m, n, inverse_slope(k, r), STRICT))


@pytest.mark.parametrize("evaluate, q, chosen, other_route", [
    # 2 alternating terms against 298 last-passage terms
    (koroljuk_reduced, KoroljukQuery(1, 3, 300, 300), (2, -1), koroljuk_literal),
    # 1 last-passage term against 1,000 alternating terms
    (bohm, BohmQuery(1, 1, 2000, 2000), (-2000, 2),
     lambda q: _avoiding(q.rise, q.end_alt, q.ups, q.down_steps)),
    # 1 alternating term against 2,000 last-passage terms
    (niederhausen, NiederhausenQuery(1, 1, 2000, 2000), (0, -1),
     lambda q: math.comb(q.m + q.n, q.m) - _touching(q.k, q.kd, q.m, q.n)),
], ids=["koroljuk_reduced", "bohm", "niederhausen"])
def test_walk_counts_reach_the_chooser(kernel_calls, evaluate, q, chosen, other_route):
    value = evaluate(q)
    assert kernel_calls == [chosen]
    assert value == other_route(q)


@pytest.mark.parametrize("c, expected", [(10**5, 1), (15 * 10**4, 0)])
def test_koroljuk_reduced_takes_no_total_on_the_last_passage_route(monkeypatch, kernel_calls, c, expected):
    # At m = n = 10**5 the walks that meet x = c are the paths not strictly
    # above y = x - c: the last-passage sum has one nonzero term at c = 10**5
    # and none at 1.5*10**5, so the count is that sum alone and
    # C(m+n, n) = C(200000, 100000) is never taken.
    taken = []
    take = formulas.binomial

    def spy(n, k):
        taken.append((n, k))
        return take(n, k)

    monkeypatch.setattr(formulas, "binomial", spy)
    assert koroljuk_reduced(KoroljukQuery(1, c, 10**5, 10**5)) == expected
    assert kernel_calls == [(-c, 2)]
    assert not [call for call in taken if call[0] == 2 * 10**5], taken


def _spy_binomials(monkeypatch):
    """The (n, k) of every binomial ``formulas`` takes."""
    taken = []
    take = formulas.binomial

    def spy(n, k):
        taken.append((n, k))
        return take(n, k)

    monkeypatch.setattr(formulas, "binomial", spy)
    return taken


def test_koroljuk_reduced_builds_one_large_binomial_on_the_alternating_route(monkeypatch, kernel_calls):
    # d = c + p*n - m = 3: the alternating sum's leading binomial is
    # C(200002, 100000), and C(m+n, n) = C(200000, 100000) is derived from it
    # by two falling factors on each side, not built.
    taken = _spy_binomials(monkeypatch)
    large = []
    by_primes = exactmath._by_primes

    def spy(n, k):
        large.append((n, k))
        return by_primes(n, k)

    monkeypatch.setattr(exactmath, "_by_primes", spy)
    value = koroljuk_reduced(KoroljukQuery(1, 3, 10**5, 10**5))
    assert kernel_calls == [(2, -1)]
    assert taken == [(200002, 10**5), (2, 0)]
    assert large == [(200002, 10**5)]
    assert value == math.comb(2 * 10**5, 10**5) - _avoiding(1, 3, 10**5, 10**5)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("d", [-2, 0, 1, 2, 300])
def test_koroljuk_reduced_derives_its_total_at_every_positive_d(monkeypatch, p, d):
    # The walks that avoid x = c are the paths from the origin to (n, m)
    # strictly above y = p*x - d, d = c + p*n - m; n is the least that keeps
    # the alternating sum the shorter, plus 2.
    n = max(1, -(-d // p) + (d - 1) // (p + 1) + 2)
    c = 3
    m = p * n + c - d
    q = KoroljukQuery(p, c, m, n)
    taken = _spy_binomials(monkeypatch)
    value = koroljuk_reduced(q)
    if d < 1:  # no walk avoids x = c
        assert taken == [(m + n, n)]
    else:
        assert taken == [(m + n + d - 1, n), (d - 1, 0)]
    avoiding = dp_count(PathQuery(0, 0, n, m, integer_slope(p, d), STRICT)) if d >= 1 else 0
    assert value == koroljuk_literal(q) == math.comb(m + n, n) - avoiding


def test_a_line_that_clips_the_rectangle_costs_one_binomial_at_size():
    N = 10**4
    assert count_weak(2, N, 0, N, N, 3 * N) == math.comb(3 * N, N)
    assert count_strict(2, N, 0, N, N, 3 * N) == math.comb(3 * N, N) - 1
    assert count_weak_inv(2, N, 0, 0, 2 * N, N) == math.comb(3 * N, N)
    assert count_strict_inv(2, N, 0, 0, 2 * N, N) == math.comb(3 * N, N) - 1
    for N in (5, 7):
        for evaluator, strictness in ((count_weak_inv, WEAK), (count_strict_inv, STRICT)):
            q = PathQuery(0, 0, 2 * N, N, inverse_slope(2, N), strictness)
            assert evaluator(2, N, 0, 0, 2 * N, N) == dp_count(q), (N, strictness)


def test_the_two_koroljuk_sums_agree_across_the_binomial_size_test():
    # The literal sum's per-term binomials C(s, j) and C(4000 - s, 2000 - j)
    # fall on both sides of binomial's size test, as does the reduced form's
    # C(4000, 2000).
    q = KoroljukQuery(1, 3, 2000, 2000)
    assert koroljuk_literal(q) == koroljuk_reduced(q)


def test_a_catalan_count_past_the_binomial_size_test():
    N = 3 * 10**4
    assert count_weak(1, 0, 0, 0, N, N) == math.comb(2 * N, N) // (N + 1)


@pytest.mark.parametrize("call, message", [
    (lambda: base_case(0, 0, 0, 1, 1), "need k, m >= 1, got k=0, m=1"),
    (lambda: base_case(1, 2, 0, 1, 1), "need 0 <= a <= m, got a=2, m=1"),
    (lambda: base_case(1, 0, 3, 1, 2), "need 0 <= b <= n, got b=3, n=2"),
    (lambda: base_case(2, 0, 0, 2, 3), "need n >= k*m, got n=3, k*m=4"),
    (lambda: base_case(1, 0, 2, 1, 3), "need 0 <= b - k*a <= k, got 2"),
    (lambda: ballot(0, 1, 1), "need k >= 1, got 0"),
    (lambda: ballot(1, -1, 1), "need m >= 0, got -1"),
    (lambda: ballot(2, 2, 3), "need n >= k*m, got n=3, k*m=4"),
    (lambda: fuss_catalan(1, 3), "need k >= 2, got 1"),
    (lambda: fuss_catalan(2, -1), "need m >= 0, got -1"),
    (lambda: niederhausen(NiederhausenQuery(2, 1, 4, 20)),
     "outside the stated domain: need k*d >= (k-1)*m, got 2 < 4"),
    (lambda: niederhausen(NiederhausenQuery(1, 0, 0, 2)),
     "origin not strictly above the line: need k*d >= 1, got 0"),
    (lambda: niederhausen(NiederhausenQuery(1, 1, 3, 2)),
     "end not strictly above the line: need n > k*m - k*d = 2"),
])
def test_precondition_messages_off_the_count_path(call, message):
    with pytest.raises(ValidationError) as caught:
        call()
    assert str(caught.value) == message


def test_require_builds_a_function_message_only_on_failure():
    require(True, lambda: pytest.fail("a passing check built its message"))
    with pytest.raises(ValidationError) as caught:
        require(False, lambda: "built")
    assert str(caught.value) == "built"


@pytest.mark.parametrize("call", [
    lambda: count(PathQuery(0, 0, 3, 3, integer_slope(1, 10**5000), Strictness.WEAK)),
    lambda: count_weak(1, 10**5000, 0, 0, 3, 3),
    lambda: count_strict_inv(2, 10**5000, 0, 0, 3, 3),
    lambda: niederhausen(NiederhausenQuery(1, 10**5000, 3, 3)),
], ids=["count", "count_weak", "count_strict_inv", "niederhausen"])
def test_a_huge_intercept_passes_the_preconditions(call):
    # 10**5000 has more digits than Python's default int-to-str limit (4300,
    # from 3.11 on), so a precondition that formatted its message before
    # testing would raise ValueError here.
    assert call() == 20
