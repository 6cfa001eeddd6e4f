"""Tests for the identity checks and their reports."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latticepaths import (
    DEFAULT_SEED,
    HagenRotheParams,
    NiederhausenQuery,
    ValidationError,
    complement_check,
    generalized_binomial,
    hagen_rothe,
    hagen_rothe_check,
    niederhausen_forms_check,
    recurrence_check,
    shift_check,
    upper_negation_check,
)
from latticepaths.identities import CheckReport, random_hagen_rothe, random_upper_negation


def test_hagen_rothe_examples():
    assert hagen_rothe(HagenRotheParams(1, 2, 1, 2)) == (15, 15)
    assert hagen_rothe(HagenRotheParams(0, Fraction(1, 2), Fraction(1, 2), 1)) == (1, 1)
    assert hagen_rothe(HagenRotheParams(3, -2, 5, 0)) == (1, 1)


def test_hagen_rothe_params_reject_vanishing_denominator():
    with pytest.raises(ValidationError):
        HagenRotheParams(1, -1, 2, 3)


@pytest.mark.parametrize("beta, gamma, n, i", [
    (0, 0, 0, 0),  # beta = gamma = 0: the factor vanishes at every i, reported at i = 0
    (3, 0, 2, 0),  # gamma = 0: the root -gamma/beta is 0
    (-1, 2, 3, 2),
    (Fraction(1, 2), Fraction(-3, 2), 3, 3),  # the root is the last index
    (Fraction(-2, 3), Fraction(4, 3), 5, 2),
])
def test_hagen_rothe_params_report_where_the_leading_factor_vanishes(beta, gamma, n, i):
    with pytest.raises(ValidationError) as excinfo:
        HagenRotheParams(1, beta, gamma, n)
    assert str(excinfo.value) == (
        f"gamma + beta*i vanishes at i={i}; the leading factor would divide by zero"
    )


@pytest.mark.parametrize("beta, gamma, n", [
    (0, Fraction(1, 2), 4),  # beta = 0, gamma != 0: no root
    (-1, 2, 1),  # the root 2 lies past n
    (1, 2, 5),  # the root -2 lies below 0
    (2, -3, 6),  # the root 3/2 is not an integer
    (Fraction(2, 3), Fraction(-1, 2), 4),  # the root 3/4 is not an integer
])
def test_hagen_rothe_params_accept_a_factor_without_a_root_in_range(beta, gamma, n):
    params = HagenRotheParams(1, beta, gamma, n)
    assert all(params.gamma + params.beta * i != 0 for i in range(n + 1))


def _fraction_hagen_rothe(params):
    """Both sides of the identity summed in Fractions over generalized binomials."""
    alpha, beta, gamma, n = params.alpha, params.beta, params.gamma, params.n
    lhs = Fraction(0)
    for i in range(n + 1):
        head = gamma + beta * i
        lhs += (
            (gamma / head)
            * generalized_binomial(head, i)
            * generalized_binomial(alpha + beta * (n - i), n - i)
        )
    return lhs, generalized_binomial(alpha + gamma + beta * n, n)


def test_hagen_rothe_equals_the_fraction_sum_on_seeded_draws():
    rng = random.Random(DEFAULT_SEED)
    for _ in range(1200):
        params = random_hagen_rothe(rng)
        lhs, rhs = hagen_rothe(params)
        assert (lhs, rhs) == _fraction_hagen_rothe(params), params
        assert type(lhs) is type(rhs) is Fraction


@given(
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    st.integers(min_value=0, max_value=8),
)
def test_hagen_rothe_property(alpha, beta, gamma, n):
    if any(gamma + beta * i == 0 for i in range(n + 1)):
        return
    lhs, rhs = hagen_rothe(HagenRotheParams(alpha, beta, gamma, n))
    assert lhs == rhs


def test_hagen_rothe_check_report_shape():
    report = hagen_rothe_check(HagenRotheParams(1, 2, 1, 2))
    assert report.name == "hagen-rothe"
    assert report.ok
    assert report.values["lhs"] == report.values["rhs"] == 15
    assert report.line().startswith("pass hagen-rothe:")
    json.dumps(report.as_dict())


def test_report_as_dict_renders_every_kind_of_value():
    report = CheckReport("mixed", {"flag": True, "none": None, "pair": (1, [Fraction(1, 2), None])},
                         {"count": 2, "word": "VH", "set": frozenset()}, False)
    assert json.loads(json.dumps(report.as_dict())) == {
        "name": "mixed",
        "parameters": {"flag": True, "none": None, "pair": [1, ["1/2", None]]},
        "values": {"count": 2, "word": "VH", "set": "frozenset()"},
        "ok": False,
    }


def test_upper_negation_check():
    report = upper_negation_check(Fraction(-7, 3), 4)
    assert report.ok
    assert report.values["direct"] == report.values["negated"]


def test_complement_check_examples():
    report = complement_check(1, 2, 2, 1)
    assert (report.values["total"], report.values["intersecting"],
            report.values["avoiding"]) == (3, 1, 2)
    assert report.ok

    report = complement_check(1, 1, 2, 1)
    assert (report.values["total"], report.values["intersecting"],
            report.values["avoiding"]) == (3, 3, 0)
    assert report.ok

    report = complement_check(1, 10, 2, 1)
    assert (report.values["total"], report.values["intersecting"],
            report.values["avoiding"]) == (3, 0, 3)
    assert report.ok


def test_recurrence_check_examples():
    report = recurrence_check(1, 0, 0, 1, 2, 2)
    assert report.ok
    assert (report.values["start_up"], report.values["start"],
            report.values["start_right"]) == (1, 2, 1)

    report = recurrence_check(2, 0, 0, 2, 1, 3)
    assert report.ok
    assert report.values["start_up"] == report.values["start"] - report.values["start_right"]


def test_recurrence_check_rejects_outside_condition_block():
    with pytest.raises(ValidationError):
        recurrence_check(2, 0, 0, 1, 1, 3)


def test_shift_check_small_grid():
    for k, r, a, b, m, n in (
        (1, 1, 0, 1, 2, 3),
        (2, 0, 0, 1, 1, 3),
        (1, 0, 1, 2, 3, 4),
    ):
        report = shift_check(k, r, a, b, m, n)
        assert report.ok
        assert report.values["strict"] == report.values["weak"]


def test_niederhausen_forms_check_examples():
    report = niederhausen_forms_check(NiederhausenQuery(1, 1, 2, 2))
    assert report.ok
    assert (report.values["subtracted"], report.values["collected"],
            report.values["direct"]) == (2, 2, 2)

    report = niederhausen_forms_check(NiederhausenQuery(2, 1, 1, 2))
    assert report.ok
    assert report.values["subtracted"] == 2

    report = niederhausen_forms_check(NiederhausenQuery(1, 1, 0, 3))
    assert report.ok
    assert report.values["direct"] == 1


def test_failing_report_line_is_marked():
    report = recurrence_check(1, 0, 0, 1, 2, 2)
    assert report.line().startswith("pass ")
    broken = type(report)(report.name, report.parameters, report.values, False)
    assert broken.line().startswith("FAIL ")


def test_random_generators_are_deterministic():
    first = [random_hagen_rothe(random.Random(DEFAULT_SEED)) for _ in range(5)]
    second = [random_hagen_rothe(random.Random(DEFAULT_SEED)) for _ in range(5)]
    assert first == second

    rng = random.Random(11)
    pairs = [random_upper_negation(rng) for _ in range(10)]
    for x, k in pairs:
        assert 0 <= k <= 12
        report = upper_negation_check(x, k)
        assert report.ok


def test_niederhausen_forms_check_takes_the_direct_value_by_the_alternating_sum(kernel_calls):
    # niederhausen answers the first query by the last-passage sum and the
    # second by the alternating sum; either way the check runs both sums by
    # name, so it compares two routes beside the collected form.
    for (k, kd, m, n), chosen in (((2, 60, 30, 60), (-60, 3)), ((1, 1, 20, 20), (0, -1))):
        kernel_calls.clear()
        report = niederhausen_forms_check(NiederhausenQuery(k, Fraction(kd, k), m, n))
        assert report.ok, report.line()
        assert sorted(kernel_calls) == sorted([chosen, (-kd, k + 1), (kd - 1, -k)])


def test_complement_check_takes_the_avoiding_count_by_the_alternating_sum(kernel_calls):
    # count_strict(p, v, 0, 0, n, m) and koroljuk_reduced answer this query
    # by the last-passage sum; the split must take its avoiding count from
    # the alternating sum to compare two routes.
    from latticepaths import (
        KoroljukQuery,
        PathQuery,
        Strictness,
        count_strict,
        dp_count,
        integer_slope,
        koroljuk_reduced,
    )

    p, c, m, n = 3, 8, 7, 4
    v = c + p * n - m
    count_strict(p, v, 0, 0, n, m)
    assert kernel_calls == [(-v, p + 1)]
    kernel_calls.clear()
    report = complement_check(p, c, m, n)
    assert report.ok, report.line()
    assert sorted(kernel_calls) == [(m - c - p * n, p + 1), (v - 1, -p)]
    avoiding = dp_count(PathQuery(0, 0, n, m, integer_slope(p, v), Strictness.STRICT))
    assert report.values["avoiding"] == avoiding
    assert report.values["intersecting"] == koroljuk_reduced(KoroljukQuery(p, c, m, n))


@pytest.mark.parametrize("call, message", [
    (lambda: recurrence_check(0, 0, 0, 0, 1, 1), "need k, m >= 1, got k=0, m=1"),
    (lambda: recurrence_check(1, 0, 2, 2, 1, 3), "need 0 <= a <= m, got a=2, m=1"),
    (lambda: recurrence_check(2, 0, 0, 2, 2, 3), "need n >= k*m - r: 3 < 4"),
    (lambda: recurrence_check(1, 0, 1, 1, 2, 4), "need k*(a+1) - r <= b <= n - 1, got b=1"),
    (lambda: recurrence_check(2, 4, 0, 1, 1, 3),
     "translated start ordinate b - k must be >= 0, got b=1, k=2"),
    (lambda: shift_check(1, 1, 0, 0, 1, 2), "need b >= 1, got 0"),
    (lambda: HagenRotheParams(1, 1, 1, -1), "need n >= 0, got -1"),
])
def test_identity_precondition_messages(call, message):
    with pytest.raises(ValidationError) as caught:
        call()
    assert str(caught.value) == message
