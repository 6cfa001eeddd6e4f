"""Closed-form counting formulas, evaluated in integer arithmetic.

The four core evaluators count monotone unit paths from (a, b) to (m, n)
kept above a boundary line:

* ``count_weak``       above y = k*x - r        (on the line allowed)
* ``count_strict``     strictly above y = k*x - r
* ``count_weak_inv``   above y = x/k - r
* ``count_strict_inv`` strictly above y = x/k - r

Each of them, and the walk counts named after Böhm, Koroljuk and
Niederhausen, is one ballot-style sum, evaluated by the private kernel
``_ballot_sum``:

    sum over y of (+-1) * e/(e+k*j) * C(e+(k+1)*j-1, j) * C(x0+dx*y, y),

with j = L - y, and a sign that is (-1)^y or constant.  In the paper's
indexing e + k*j is the ballot denominator D, j and y are affine in the
summation index i, and e = D - k*j does not depend on i.  Each evaluator
is a thin map onto the kernel's parameters (k, e, L, x0, dx, sign):

==================  =====  ============  =====  =============  =====  =====
evaluator           k      e             L      x0             dx     sign
==================  =====  ============  =====  =============  =====  =====
count_weak          k      n+r+1-k*m     m-a    b+r-k*a        -k     alt
count_strict        k      n+r-k*m       m-a    b+r-1-k*a      -k     alt
count_weak_inv      k      k*b+k*r-a+1   n-b    k*n+k*r-m      -k     alt
count_strict_inv    k      k*b+k*r-a     n-b    k*n+k*r-m-1    -k     alt
bohm                rise   start_alt     ups    end_alt-1      -rise  alt
koroljuk_reduced    p      c             n      m-c-p*n        p+1    +
niederhausen        k      n-k*m+k*d     m      -k*d           k+1    +
==================  =====  ============  =====  =============  =====  =====

(``niederhausen`` subtracts its sum from C(m+n, m); ``koroljuk_reduced``
runs over y = n - i.)  Every term is an integer, because
e/(e+k*j) * C(t, j) = C(t, j) - k*C(t, j-1) for t = e+(k+1)*j-1.

The kernel visits only the y at which both binomials are nonzero
(0 <= j and 0 <= y <= x0+dx*y), so its work is bounded by the nonzero
terms, not by an unrelated parameter such as a huge intercept.  It takes
the first term's binomials from ``exactmath.binomial`` (a negative upper
index raises) and each later term from the one before by a ratio of
k + |dx| + 2 small factors, in one exact multiply-then-divide that raises
ArithmeticError on a remainder; a negative total raises too, so a
transcription slip cannot produce a silently wrong count.

The remaining evaluators are specializations and relatives: generalized
ballot counts, Fuss-Catalan numbers, the literal Koroljuk sum (kept on
Fractions as a second route for the cross-checks), and a totalizing
``count`` wrapper for parameter sweeps.

Preconditions are enforced exactly as documented on each function; the
evaluators demand validated queries, while ``count`` accepts anything and
returns 0 when no paths exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ValidationError, require
from .exactmath import Rational, as_integer, binomial
from .model import (
    BoundaryLine,
    PathQuery,
    SlopeKind,
    Strictness,
    normalize_query,
    validate_query,
)


def _finish(total: Fraction | int) -> int:
    value = as_integer(total)
    if value < 0:
        raise ArithmeticError(f"count collapsed to a negative value: {value}")
    return value


def _exact(value: int, num: int, den: int) -> int:
    """value*num/den for a quotient known to be an integer; ArithmeticError
    if the division leaves a remainder."""
    quotient, remainder = divmod(value * num, den)
    if remainder:
        raise ArithmeticError(f"inexact binomial step: remainder {remainder} modulo {den}")
    return quotient


def _ballot_sum(k: int, e: int, total: int, x0: int, dx: int, alternate: bool) -> int:
    """Sum over y of [C(t, j) - k*C(t, j-1)] * C(x, y), negated at odd y if
    ``alternate``, where j = total - y, t = e + (k+1)*j - 1, x = x0 + dx*y.

    Needs e >= 1 and dx != 1.  Only the y with 0 <= j and 0 <= y <= x are
    visited: those are exactly the terms with both binomials nonzero.
    """
    low, high = 0, total
    if dx < 1:
        high = min(high, x0 // (1 - dx))
    else:
        low = max(low, -(x0 // (dx - 1)))  # least y with (dx-1)*y >= -x0
    if low > high:
        return 0
    y, j = low, total - low
    t, x = e + (k + 1) * j - 1, x0 + dx * low
    term = _exact(binomial(t, j) * binomial(x, y), e, t - j + 1)  # e + k*j = t - j + 1
    acc = 0
    while True:
        acc += -term if alternate and y & 1 else term
        if y == high:
            return _finish(acc)
        # num/den = T(y+1)/T(y): lead factor at (j-1, t-k-1) over (j, t), times C(x+dx, y+1)/C(x, y)
        num, den = j * (t - j + 1), t * (t - j + 1 - k) * (y + 1)
        for i in range(k):
            num *= t - j - i
            den *= t - 1 - i
        if dx > 0:
            for i in range(1, dx + 1):
                num *= x + i
            for i in range(1, dx):
                den *= x - y + i
        else:
            num *= x - y
            for i in range(-dx):
                num *= x - y - 1 - i
                den *= x - i
        term = _exact(term, num, den)
        j, t, x, y = j - 1, t - k - 1, x + dx, y + 1


def count_weak(k: int, r: int, a: int, b: int, m: int, n: int) -> int:
    """Paths from (a,b) to (m,n) staying on or above y = k*x - r.

    Conditions: k >= 1, 0 <= a <= m, n >= k*m - r, max(0, k*a - r) <= b <= n.
    """
    require(k >= 1, f"need k >= 1, got {k}")
    require(0 <= a <= m, f"need 0 <= a <= m, got a={a}, m={m}")
    require(n >= k * m - r, f"need n >= k*m - r: {n} < {k * m - r}")
    require(max(0, k * a - r) <= b <= n, f"need max(0, k*a-r) <= b <= n, got b={b}")
    return _ballot_sum(k, n + r + 1 - k * m, m - a, b + r - k * a, -k, True)


def count_strict(k: int, r: int, a: int, b: int, m: int, n: int) -> int:
    """Paths from (a,b) to (m,n) staying strictly above y = k*x - r.

    Conditions: k >= 1, 0 <= a <= m, 0 <= b <= n with b + r - k*a > 0, and
    n > k*m - r.  (The start bound is the strictly-above requirement itself,
    slightly wider than b > max(0, k*a - r): b = 0 is fine when r > k*a.)
    Equals count_weak(k, r, a, b-1, m, n-1) whenever b >= 1.
    """
    require(k >= 1, f"need k >= 1, got {k}")
    require(0 <= a <= m, f"need 0 <= a <= m, got a={a}, m={m}")
    require(0 <= b <= n, f"need 0 <= b <= n, got b={b}, n={n}")
    require(b + r - k * a > 0, f"start not strictly above the line: b+r-k*a = {b + r - k * a}")
    require(n > k * m - r, f"end not strictly above the line: need n > k*m - r = {k * m - r}")
    return _ballot_sum(k, n + r - k * m, m - a, b + r - 1 - k * a, -k, True)


def count_weak_inv(k: int, r: Rational | int, a: int, b: int, m: int, n: int) -> int:
    """Paths from (a,b) to (m,n) staying on or above y = x/k - r.

    Conditions: k >= 1, k*r integral, 0 <= a <= m,
    max(0, a/k - r) <= b <= n, n >= m/k - r.
    """
    require(k >= 1, f"need k >= 1, got {k}")
    kr = Fraction(r) * k
    require(kr.denominator == 1, f"need k*r integral, got k*r = {kr}")
    kr = int(kr)
    require(0 <= a <= m, f"need 0 <= a <= m, got a={a}, m={m}")
    require(b >= 0, f"need b >= 0, got {b}")
    require(k * b >= a - kr, f"start below the line: k*b = {k * b} < a - k*r = {a - kr}")
    require(b <= n, f"need b <= n, got b={b}, n={n}")
    require(k * n >= m - kr, f"end below the line: k*n = {k * n} < m - k*r = {m - kr}")
    return _ballot_sum(k, k * b + kr - a + 1, n - b, k * n + kr - m, -k, True)


def count_strict_inv(k: int, r: Rational | int, a: int, b: int, m: int, n: int) -> int:
    """Paths from (a,b) to (m,n) staying strictly above y = x/k - r.

    Conditions: k >= 1, k*r integral, 0 <= a <= m, 0 <= b <= n with
    k*b + k*r - a > 0 (start strictly above), and k*n + k*r - m > 0.
    """
    require(k >= 1, f"need k >= 1, got {k}")
    kr = Fraction(r) * k
    require(kr.denominator == 1, f"need k*r integral, got k*r = {kr}")
    kr = int(kr)
    require(0 <= a <= m, f"need 0 <= a <= m, got a={a}, m={m}")
    require(0 <= b <= n, f"need 0 <= b <= n, got b={b}, n={n}")
    require(k * b + kr - a > 0, f"start not strictly above the line: k*b+k*r-a = {k * b + kr - a}")
    require(k * n + kr - m > 0, f"end not strictly above the line: k*n+k*r-m = {k * n + kr - m}")
    return _ballot_sum(k, k * b + kr - a, n - b, k * n + kr - m - 1, -k, True)


def base_case(k: int, a: int, b: int, m: int, n: int) -> int:
    """Single-product count for starts within one slope-run of y = k*x.

    Conditions: k, m >= 1, 0 <= a <= m, 0 <= b <= n, n >= k*m, and
    0 <= b - k*a <= k.  Agrees with count_weak(k, 0, a, b, m, n) there.
    """
    require(k >= 1 and m >= 1, f"need k, m >= 1, got k={k}, m={m}")
    require(0 <= a <= m, f"need 0 <= a <= m, got a={a}, m={m}")
    require(0 <= b <= n, f"need 0 <= b <= n, got b={b}, n={n}")
    require(n >= k * m, f"need n >= k*m, got n={n}, k*m={k * m}")
    require(0 <= b - k * a <= k, f"need 0 <= b - k*a <= k, got {b - k * a}")
    return _exact(binomial(m + n - (k + 1) * a, m - a), n + 1 - k * m, n + 1 - k * a)


def ballot(k: int, m: int, n: int) -> int:
    """Generalized ballot count: C(m+n, m) - k*C(m+n, m-1), for n >= k*m."""
    require(k >= 1, f"need k >= 1, got {k}")
    require(m >= 0, f"need m >= 0, got {m}")
    require(n >= k * m, f"need n >= k*m, got n={n}, k*m={k * m}")
    return binomial(m + n, m) - k * binomial(m + n, m - 1)


def fuss_catalan(k: int, m: int) -> int:
    """Order-k Fuss-Catalan number C(km, m)/((k-1)m + 1), k >= 2, m >= 0.

    Equals count_weak(k-1, 0, 0, 0, m, (k-1)*m); order 2 gives the Catalan
    numbers.
    """
    require(k >= 2, f"need k >= 2, got {k}")
    require(m >= 0, f"need m >= 0, got {m}")
    return _exact(binomial(k * m, m), 1, (k - 1) * m + 1)


@dataclass(frozen=True)
class KoroljukQuery:
    """Walks with m steps (1,1) and n steps (-p,1) from the origin, classified
    against the vertical line x = c."""

    p: int
    c: int
    m: int
    n: int

    def __post_init__(self) -> None:
        for name in ("p", "c", "m", "n"):
            if getattr(self, name) < 1:
                raise ValidationError(f"KoroljukQuery needs {name} >= 1, got {getattr(self, name)}")


def koroljuk_literal(q: KoroljukQuery) -> int:
    """Count of the walks that meet x = c, as a sum over abscissae s ≡ c
    (mod p+1) up to c + floor((m+n-c)/(p+1))*(p+1); empty when c > m+n."""
    p, c, m, n = q.p, q.c, q.m, q.n
    total = Fraction(0)
    top = c + ((m + n - c) // (p + 1)) * (p + 1)
    for s in range(c, top + 1):
        if (s - c) % (p + 1):
            continue
        j = (s - c) // (p + 1)
        total += Fraction(c, s) * binomial(s, j) * binomial(m + n - s, n - j)
    return _finish(total)


def koroljuk_reduced(q: KoroljukQuery) -> int:
    """Same count as koroljuk_literal, reindexed over i = (s - c)/(p+1)."""
    p, c, m, n = q.p, q.c, q.m, q.n
    return _ballot_sum(p, c, n, m - c - p * n, p + 1, False)


@dataclass(frozen=True)
class NiederhausenQuery:
    """Paths from (0,0) to (m,n) strictly above y = k*(x - d), with k*d integral."""

    k: int
    d: Rational
    m: int
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", Fraction(self.d))
        if self.k < 1:
            raise ValidationError(f"NiederhausenQuery needs k >= 1, got {self.k}")
        if self.n < 1:
            raise ValidationError(f"NiederhausenQuery needs n >= 1, got {self.n}")
        if self.m < 0:
            raise ValidationError(f"NiederhausenQuery needs m >= 0, got {self.m}")
        if (self.k * self.d).denominator != 1:
            raise ValidationError(f"NiederhausenQuery needs k*d integral, got {self.k * self.d}")

    @cached_property
    def kd(self) -> int:
        return int(self.k * self.d)


def niederhausen(q: NiederhausenQuery) -> int:
    """Total binomial count minus the below-line corrections.

    Conditions beyond the query invariants: d >= (k-1)m/k (the stated
    domain; validity outside it is an open question and not guessed at),
    and both endpoints strictly above y = k*(x-d), i.e. k*d >= 1 and
    n > k*m - k*d.  Equals count_strict(k, k*d, 0, 0, m, n).
    """
    k, m, n, kd = q.k, q.m, q.n, q.kd
    require(
        kd >= (k - 1) * m,
        f"outside the stated domain: need k*d >= (k-1)*m, got {kd} < {(k - 1) * m}",
    )
    require(kd >= 1, f"origin not strictly above the line: need k*d >= 1, got {kd}")
    require(n > k * m - kd, f"end not strictly above the line: need n > k*m - k*d = {k * m - kd}")
    return _finish(binomial(m + n, m) - _ballot_sum(k, n - k * m + kd, m, -kd, k + 1, False))


@dataclass(frozen=True)
class BohmQuery:
    """Walks with `ups` steps (1,rise) and the forced number of (1,-1) steps
    from altitude start_alt to altitude end_alt, all altitudes kept >= 1."""

    rise: int
    start_alt: int
    end_alt: int
    ups: int

    def __post_init__(self) -> None:
        if self.rise < 1:
            raise ValidationError(f"BohmQuery needs rise >= 1, got {self.rise}")
        if self.start_alt < 1 or self.end_alt < 1:
            raise ValidationError("BohmQuery needs both altitudes >= 1")
        if self.ups < 0:
            raise ValidationError(f"BohmQuery needs ups >= 0, got {self.ups}")
        if self.down_steps < 0:
            raise ValidationError(
                f"altitude balance broken: start + rise*ups - end = {self.down_steps} < 0"
            )

    @property
    def down_steps(self) -> int:
        return self.start_alt + self.rise * self.ups - self.end_alt


def bohm(q: BohmQuery) -> int:
    """Count of the positive-altitude walks of q.

    The alternating sum stops at floor((end_alt - 1)/(rise + 1)), the last
    term whose binomials are nonzero.  Equals count_strict(rise, end_alt, 0, 0, ups,
    start_alt + rise*ups - end_alt).
    """
    t = q.rise
    return _ballot_sum(t, q.start_alt, q.ups, q.end_alt - 1, -t, True)


def _shift_up(q: PathQuery, s: int) -> PathQuery:
    """Translate a query vertically by s units (same paths, smaller intercept)."""
    line = q.boundary
    shifted = BoundaryLine(line.kind, line.k, line.r - s)
    return PathQuery(q.a, q.b + s, q.m, q.n + s, shifted, q.strictness)


def _shift_right(q: PathQuery, s: int) -> PathQuery:
    """Translate a query horizontally by s units (same paths, larger intercept).

    Moving every abscissa up by s raises the line's value at the image
    points by k*s (integer slope) or s/k (inverse slope); bumping r by the
    same amount restores the original constraint, and k*r stays integral
    for the inverse kind.
    """
    line = q.boundary
    bump = line.k * s if line.kind is SlopeKind.INTEGER else Fraction(s, line.k)
    shifted = BoundaryLine(line.kind, line.k, line.r + bump)
    return PathQuery(q.a + s, q.b, q.m + s, q.n, shifted, q.strictness)


def _evaluate(q: PathQuery) -> int:
    """The core evaluator matching q's slope kind and strictness, applied to
    q as it stands (integral intercept for the integer kind); the
    evaluator's preconditions apply."""
    k, r = q.boundary.k, q.boundary.r
    if q.boundary.kind is SlopeKind.INTEGER:
        evaluator = count_weak if q.strictness is Strictness.WEAK else count_strict
        r = int(r)
    else:
        evaluator = count_weak_inv if q.strictness is Strictness.WEAK else count_strict_inv
    return evaluator(k, r, q.a, q.b, q.m, q.n)


def count(q: PathQuery) -> int:
    """Totalizing wrapper over the four evaluators.

    Returns 0 for queries with no paths (endpoint unreachable or below the
    boundary), snaps non-integral intercepts to their canonical form, and
    translates negative start coordinates into the evaluators' domain.
    Translation preserves the path count, so every boundary-valid query is
    answered.
    """
    if not validate_query(q).ok:
        return 0
    eff = normalize_query(q)
    if eff.a < 0:
        eff = _shift_right(eff, -eff.a)
    if eff.b < 0:
        eff = _shift_up(eff, -eff.b)
    return _evaluate(eff)
