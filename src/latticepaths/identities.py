"""Runnable checks for the algebraic identities behind the counting formulas.

Each check evaluates both sides of one identity exactly and returns a
``CheckReport`` carrying the parameters, the computed values, and a pass
flag.  Reports serialize to one-line text (``line``) and to JSON-ready
dictionaries (``as_dict``) with rationals rendered as "p/q" strings.

Randomized checks (the convolution identity and the upper-negation rule)
draw parameters from seeded generators so every run is reproducible;
``DEFAULT_SEED`` fixes the default stream.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from contextlib import suppress
from fractions import Fraction

from .errors import DEFAULT_SEED, ValidationError, require
from .exactmath import (
    Rational,
    binomial,
    generalized_binomial,
    upper_negation,
)
from .formulas import _avoiding, _exact, count_strict, count_weak, koroljuk_reduced, niederhausen
from .model import KoroljukQuery, NiederhausenQuery, _record_class

HAGEN_ROTHE_MAX_N = 12  # largest n of a random convolution draw
UPPER_NEGATION_MAX_K = 12  # largest lower index of a random upper-negation draw


def _plain(value: object) -> str:
    return repr(value) if isinstance(value, str) else str(value)


def _jsonable(value: object):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    return str(value)


@_record_class
class CheckReport:
    """Outcome of one identity check: what was checked, on what, with what values."""

    name: str
    parameters: Mapping[str, object]
    values: Mapping[str, object]
    ok: bool

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        params = " ".join(f"{key}={_plain(val)}" for key, val in self.parameters.items())
        values = " ".join(f"{key}={_plain(val)}" for key, val in self.values.items())
        return f"{status} {self.name}: {params} -> {values}"

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "parameters": {key: _jsonable(val) for key, val in self.parameters.items()},
            "values": {key: _jsonable(val) for key, val in self.values.items()},
            "ok": self.ok,
        }


@_record_class
class HagenRotheParams:
    """Parameters of the rational convolution identity.

    The leading factor gamma/(gamma + beta*i) must be well defined for every
    summation index, so gamma + beta*i may not vanish for 0 <= i <= n.
    """

    alpha: Rational
    beta: Rational
    gamma: Rational
    n: int

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.n < 0:
            raise ValidationError(f"need n >= 0, got {self.n}")
        for i in range(self.n + 1):
            if self.gamma + self.beta * i == 0:
                raise ValidationError(
                    f"gamma + beta*i vanishes at i={i}; the leading factor would divide by zero"
                )


def hagen_rothe(params: HagenRotheParams) -> tuple[Rational, Rational]:
    """Both sides of the convolution identity
    sum_i gamma/(gamma+beta*i) * C(gamma+beta*i, i) * C(alpha+beta*(n-i), n-i)
    = C(alpha+gamma+beta*n, n), over generalized binomials."""
    alpha, beta, gamma, n = params.alpha, params.beta, params.gamma, params.n
    lhs = Fraction(0)
    for i in range(n + 1):
        head = gamma + beta * i
        lhs += (
            (gamma / head)
            * generalized_binomial(head, i)
            * generalized_binomial(alpha + beta * (n - i), n - i)
        )
    rhs = generalized_binomial(alpha + gamma + beta * n, n)
    return (lhs, rhs)


def hagen_rothe_check(params: HagenRotheParams) -> CheckReport:
    lhs, rhs = hagen_rothe(params)
    return CheckReport(
        "hagen-rothe",
        {"alpha": params.alpha, "beta": params.beta, "gamma": params.gamma, "n": params.n},
        {"lhs": lhs, "rhs": rhs},
        lhs == rhs,
    )


def upper_negation_check(x: Rational | int, k: int) -> CheckReport:
    """Compare C(x, k) with (-1)^k C(k-x-1, k) over generalized binomials."""
    direct, negated = upper_negation(Fraction(x), k)
    return CheckReport(
        "upper-negation",
        {"x": Fraction(x), "k": k},
        {"direct": direct, "negated": negated},
        direct == negated,
    )


def complement_check(p: int, c: int, m: int, n: int) -> CheckReport:
    """Split the C(m+n, n) two-letter walks by whether they meet x = c.

    The intersecting count comes from the reduced sum; the avoiding count is
    the strict unit-path count above y = p*x - v with v = c + p*n - m, taken
    as 0 when v < 1 (the origin itself would not clear the line, so no walk
    avoids x = c).  The avoiding count is the alternating sum
    ``_avoiding(p, v, n, m)``, not ``count_strict(p, v, 0, 0, n, m)``: that
    may answer by the last-passage sum ``_touching(p, v, n, m)``, which is
    ``koroljuk_reduced``'s own, and would make the split hold by
    construction.
    """
    query = KoroljukQuery(p, c, m, n)
    total = binomial(m + n, n)
    intersecting = koroljuk_reduced(query)
    v = c + p * n - m
    avoiding = _avoiding(p, v, n, m) if v >= 1 else 0
    return CheckReport(
        "complement",
        {"p": p, "c": c, "m": m, "n": n},
        {"total": total, "intersecting": intersecting, "avoiding": avoiding},
        total == intersecting + avoiding,
    )


def recurrence_check(k: int, r: int, a: int, b: int, m: int, n: int) -> CheckReport:
    """First-step decomposition of the weak count by its starting point.

    Paths from (a, b) either step up to (a, b+1) or right to (a+1, b), and
    the right-neighbor family translates to (a, b-k; m-1, n-k), giving
    count(a, b+1; m, n) = count(a, b; m, n) - count(a, b-k; m-1, n-k).

    Conditions: k, m >= 1, 0 <= a <= m, n >= k*m - r,
    k*(a+1) - r <= b <= n - 1, and b >= k so the translated family stays in
    the first quadrant (tuples with b - k < 0 are rejected).  When a = m the
    right-neighbor family is empty and the translated term is 0.
    """
    require(k >= 1 and m >= 1, f"need k, m >= 1, got k={k}, m={m}")
    require(0 <= a <= m, f"need 0 <= a <= m, got a={a}, m={m}")
    require(n >= k * m - r, f"need n >= k*m - r: {n} < {k * m - r}")
    require(k * (a + 1) - r <= b <= n - 1, f"need k*(a+1) - r <= b <= n - 1, got b={b}")
    require(b >= k, f"translated start ordinate b - k must be >= 0, got b={b}, k={k}")
    start_up = count_weak(k, r, a, b + 1, m, n)
    start = count_weak(k, r, a, b, m, n)
    start_right = count_weak(k, r, a, b - k, m - 1, n - k) if a <= m - 1 else 0
    return CheckReport(
        "recurrence",
        {"k": k, "r": r, "a": a, "b": b, "m": m, "n": n},
        {"start_up": start_up, "start": start, "start_right": start_right},
        start_up == start - start_right,
    )


def shift_check(k: int, r: int, a: int, b: int, m: int, n: int) -> CheckReport:
    """Strict-to-weak shift: lowering the start by one vertical unit turns
    the strict count into a weak count, count_strict(k,r,a,b,m,n) =
    count_weak(k,r,a,b-1,m,n-1).

    Conditions: the strict evaluator's block with b >= 1.
    """
    require(b >= 1, f"need b >= 1, got {b}")
    strict = count_strict(k, r, a, b, m, n)
    weak = count_weak(k, r, a, b - 1, m, n - 1)
    return CheckReport(
        "strict-to-weak-shift",
        {"k": k, "r": r, "a": a, "b": b, "m": m, "n": n},
        {"strict": strict, "weak": weak},
        strict == weak,
    )


def niederhausen_forms_check(q: NiederhausenQuery) -> CheckReport:
    """Agreement of the two printed forms of the strict count with the
    direct evaluator.

    The subtracted form is ``niederhausen`` itself; the collected form
    recomputes the correction sum with the leading factor folded into the
    larger binomial, (n+kd-km)/(m+n+kd-(k+1)i) * C(m+n+kd-(k+1)i, m-i)
    * C((k+1)i-kd, i); the direct value is the alternating sum
    ``_avoiding(k, kd, m, n)``, not ``count_strict(k, kd, 0, 0, m, n)``,
    which may answer by the subtracted form.  With
    e = n+kd-km >= 1 (``niederhausen`` demands it) and j = m-i, the first
    two factors are the Raney number e/(e+(k+1)j) * C(e+(k+1)j, j), an
    integer taken by one exact division, so the sum runs in integers.
    """
    subtracted = niederhausen(q)
    k, m, n, kd = q.k, q.m, q.n, q.kd
    e = n + kd - k * m
    collected = binomial(m + n, m)
    for i in range((kd - 1) // (k + 1) + 1, m + 1):
        upper = m + n + kd - (k + 1) * i
        collected -= _exact(binomial(upper, m - i), e, upper) * binomial((k + 1) * i - kd, i)
    direct = _avoiding(k, kd, m, n)
    return CheckReport(
        "strict-count-forms",
        {"k": k, "d": q.d, "m": m, "n": n},
        {"subtracted": subtracted, "collected": collected, "direct": direct},
        subtracted == collected == direct,
    )


def random_hagen_rothe(rng: random.Random) -> HagenRotheParams:
    """Draw numerators and denominators in [-6, 6] and 0 <= n <= HAGEN_ROTHE_MAX_N,
    again while HagenRotheParams rejects the leading factor's division by zero."""
    while True:
        n = rng.randint(0, HAGEN_ROTHE_MAX_N)
        alpha, beta, gamma = (Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(3))
        with suppress(ValidationError):
            return HagenRotheParams(alpha, beta, gamma, n)


def random_upper_negation(rng: random.Random) -> tuple[Fraction, int]:
    """Draw a rational upper index with numerator/denominator in [-6, 6] and
    a lower index 0 <= k <= UPPER_NEGATION_MAX_K."""
    x = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    return (x, rng.randint(0, UPPER_NEGATION_MAX_K))
