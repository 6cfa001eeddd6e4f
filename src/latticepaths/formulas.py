"""Closed-form counting formulas, evaluated in integer arithmetic.

The four core evaluators count monotone unit paths from (a, b) to (m, n)
kept above a boundary line:

* ``count_weak``       above y = k*x - r        (on the line allowed)
* ``count_strict``     strictly above y = k*x - r
* ``count_weak_inv``   above y = x/k - r
* ``count_strict_inv`` strictly above y = x/k - r

Each of them, and the walk counts named after Böhm, Koroljuk and
Niederhausen, is a count in origin form (k, d, M, N): paths from (0, 0) to
(M, N) strictly above y = k*x - d, with d >= 1 and e = N + d - k*M >= 1.
Two private sums give it, both through the kernel ``_ballot_sum``,

    sum over y of (+-1) * e/(e+k*j) * C(e+(k+1)*j-1, j) * C(x0+dx*y, y),

with j = M - y (in the paper's indexing, e + k*j is the ballot denominator):

* ``_avoiding``, the alternating sum (x0 = d-1, dx = -k), is the count; it
  has min(M, (d-1)//(k+1)) + 1 nonzero terms;
* ``_touching``, the last-passage sum (x0 = -d, dx = k+1, sign +), counts
  the paths that are not strictly above; it has max(0, M - ceil(d/k) + 1).

Each evaluator is one map onto (k, d, M, N):

==================  ===============================================
evaluator           call
==================  ===============================================
count_weak          _unit_count(k, b+r+1-k*a, m-a, n-b)
count_strict        _unit_count(k, b+r-k*a, m-a, n-b)
count_weak_inv      _unit_count(k, k*n+k*r+1-m, n-b, m-a)
count_strict_inv    _unit_count(k, k*n+k*r-m, n-b, m-a)
bohm                _unit_count(rise, end_alt, ups, down_steps)
koroljuk_reduced    _unit_count(p, c+p*n-m, n, m, touching=True)
niederhausen        _unit_count(k, k*d, m, n)
==================  ===============================================

The inverse rows turn the rectangle by 180 degrees and swap the axes, as
``bijections.reflect_inverse`` does to paths.  ``_unit_count`` runs
``_touching``, subtracted from C(M+N, M), when it has strictly fewer
nonzero terms, so a line that only clips the rectangle costs one binomial.
With ``touching=True`` it returns the complement, the paths not strictly
above, and needs C(M+N, M) only on the alternating route; that is
``koroljuk_reduced``'s count of the walks that meet x = c.  There the
alternating sum's first term holds L = C(M+N+d-1, M); when d >= 1, L is
built once, handed to the kernel, and C(M+N, M) =
L * P(N+d-1, d-1) / P(M+N+d-1, d-1) is derived from it in one exact
division (P = perm); for d < 1 no path is strictly above.
It is the only caller of the two sums here; a check that compares routes
calls them by name (``identities``, ``verify``).

``_touching`` holds for every d >= 1, not only in Niederhausen's stated
domain d >= (k-1)*M, which ``niederhausen`` keeps as its precondition:

* A path that ends above the line but is not strictly above it has a
  last point on y - k*x = -d: an up step raises y - k*x by exactly 1, so
  the path cannot skip over the line.
* Before that point (X, k*X - d) the path is free, C((k+1)*X - d, X) ways.
  After it the path stays strictly above: e/(e+k*j) * C(e+(k+1)*j-1, j)
  ways with j = M - X, by the cycle lemma.
* These are exactly ``_touching``'s terms, at y = X.

Every term is an integer, as e/(e+k*j) * C(t, j) = C(t, j) - k*C(t, j-1)
for t = e+(k+1)*j-1.  The kernel visits only the y at which both binomials
are nonzero, so its work is bounded by the nonzero terms, not by a huge
intercept.  It steps each term from the one before by the reduced term
ratio, four falling factorials (``math.perm``) and two small factors, in one
exact divmod; a remainder or a negative total raises ArithmeticError.

The remaining evaluators are specializations and relatives: generalized
ballot counts, Fuss-Catalan numbers, the one literal Koroljuk sum ``_literal``
(term j is ``_touching(p, c+p*n-m, n, m)``'s at y = n-j, from fresh
binomials: a check of the kernel's steps and the chooser; ``identities``
takes the collected Niederhausen form from it too), and the totalizing
``count``.  The evaluators enforce the preconditions each documents.
"""

from __future__ import annotations

from math import perm

from .errors import require
from .exactmath import Rational, binomial
from .model import (
    BohmQuery,
    KoroljukQuery,
    NiederhausenQuery,
    PathQuery,
    SlopeKind,
    Strictness,
    _k_times_r,
    normalize_query,
    validate_query,
)


def _finish(total: int) -> int:
    if total < 0:
        raise ArithmeticError(f"count collapsed to a negative value: {total}")
    return total


def _exact(value: int, num: int, den: int) -> int:
    """value*num/den for a quotient known to be an integer; ArithmeticError
    if the division leaves a remainder."""
    quotient, remainder = divmod(value * num, den)
    if remainder:
        raise ArithmeticError(f"inexact binomial step: remainder {remainder} modulo {den}")
    return quotient


def _ballot_sum(k: int, e: int, total: int, x0: int, dx: int, alternate: bool,
                lead: int | None = None) -> int:
    """Sum over y of [C(t, j) - k*C(t, j-1)] * C(x, y), negated at odd y if
    ``alternate``, where j = total - y, t = e + (k+1)*j - 1, x = x0 + dx*y.

    Needs e >= 1 and dx != 1.  Only the y with 0 <= j and 0 <= y <= x are
    visited: those are exactly the terms with both binomials nonzero.  A
    caller that holds C(t, j) of the first visited y passes it as ``lead``.
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
    sign = -1 if alternate else 1
    if lead is None:
        lead = binomial(t, j)
    term = acc = sign**y * _exact(lead * binomial(x, y), e, t - j + 1)  # e+k*j = t-j+1
    # T(y+1)/T(y) = sign*j*P(t-j+1, k)*X+ / ((y+1)*P(t, k+1)*X-), with P = perm and
    # X+/X- = P(x+dx, dx)/P(x-y+dx-1, dx-1), or P(x-y, 1-dx)/P(x, -dx) for dx <= 0.
    # Every perm argument is >= 0 and den > 0: e >= 1; j >= 1 inside the loop; x >= y
    # when dx > 1; x >= y + 1 - dx before a step when dx <= 0, since y + 1 is visited.
    while y < high:
        if dx > 0:
            up, down = perm(x + dx, dx), perm(x - y + dx - 1, dx - 1)
        else:
            up, down = perm(x - y, 1 - dx), perm(x, -dx)
        den = (y + 1) * perm(t, k + 1) * down
        term, remainder = divmod(term * (sign * j * perm(t - j + 1, k) * up), den)
        if remainder:
            raise ArithmeticError(f"inexact binomial step: remainder {remainder} modulo {den}")
        acc += term
        j, t, x, y = j - 1, t - k - 1, x + dx, y + 1
    return _finish(acc)


def _avoiding(k: int, d: int, m: int, n: int, lead: int | None = None) -> int:
    """Paths from the origin to (m, n) strictly above y = k*x - d, by the
    alternating sum; ``lead``, if given, is its first binomial C(m+n+d-1, m)."""
    return _ballot_sum(k, n + d - k * m, m, d - 1, -k, True, lead)


def _touching(k: int, d: int, m: int, n: int) -> int:
    """The paths to (m, n) not strictly above y = k*x - d, by their last point on it."""
    return _ballot_sum(k, n + d - k * m, m, -d, k + 1, False)


def _unit_count(k: int, d: int, m: int, n: int, touching: bool = False) -> int:
    """``_avoiding(k, d, m, n)``, or if ``touching`` the C(m+n, m) paths less
    those, ``_touching(k, d, m, n)``, by the shorter of the two sums (the
    alternating one on a tie).  As ceil(d/k) >= 1, ``_touching`` is the
    shorter exactly when m - ceil(d/k) < (d-1)//(k+1).  C(m+n, m) is taken
    only when the shorter sum is not the count asked for, and derived from
    the alternating sum's leading binomial when d >= 1."""
    if m + (-d // k) < (d - 1) // (k + 1):
        count, asked = _touching(k, d, m, n), touching
    elif touching and d >= 1:
        lead = binomial(m + n + d - 1, m)
        total = _exact(lead, perm(n + d - 1, d - 1), perm(m + n + d - 1, d - 1))
        return _finish(total - _avoiding(k, d, m, n, lead))
    else:
        count, asked = _avoiding(k, d, m, n), not touching
    return count if asked else _finish(binomial(m + n, m) - count)


def _integral(r: Rational | int) -> int:
    """r as an int, if it is integral."""
    require(r.denominator == 1, lambda: f"need r integral, got r = {r}")
    return r.numerator


def count_weak(k: int, r: Rational | int, a: int, b: int, m: int, n: int) -> int:
    """Paths from (a,b) to (m,n) staying on or above y = k*x - r.

    Conditions: k >= 1, r integral, a <= m, n >= k*m - r, k*a - r <= b <= n.
    """
    require(k >= 1, lambda: f"need k >= 1, got {k}")
    r = _integral(r)
    require(a <= m, lambda: f"need a <= m, got a={a}, m={m}")
    require(n >= k * m - r, lambda: f"need n >= k*m - r: {n} < {k * m - r}")
    require(k * a - r <= b <= n, lambda: f"need k*a-r <= b <= n, got b={b}")
    return _unit_count(k, b + r + 1 - k * a, m - a, n - b)


def count_strict(k: int, r: Rational | int, a: int, b: int, m: int, n: int) -> int:
    """Paths from (a,b) to (m,n) staying strictly above y = k*x - r.

    Conditions: k >= 1, r integral, a <= m, b <= n with b + r - k*a > 0, and
    n > k*m - r.  Equals count_weak(k, r, a, b-1, m, n-1).
    """
    require(k >= 1, lambda: f"need k >= 1, got {k}")
    r = _integral(r)
    require(a <= m, lambda: f"need a <= m, got a={a}, m={m}")
    require(b <= n, lambda: f"need b <= n, got b={b}, n={n}")
    require(b + r - k * a > 0, lambda: f"start not strictly above the line: b+r-k*a = {b + r - k * a}")
    require(n > k * m - r, lambda: f"end not strictly above the line: need n > k*m - r = {k * m - r}")
    return _unit_count(k, b + r - k * a, m - a, n - b)


def count_weak_inv(k: int, r: Rational | int, a: int, b: int, m: int, n: int) -> int:
    """Paths from (a,b) to (m,n) staying on or above y = x/k - r.

    Conditions: k >= 1, k*r integral, a <= m, a/k - r <= b <= n,
    n >= m/k - r.
    """
    require(k >= 1, lambda: f"need k >= 1, got {k}")
    kr = _k_times_r(k, r)
    require(a <= m, lambda: f"need a <= m, got a={a}, m={m}")
    require(k * b >= a - kr, lambda: f"start below the line: k*b = {k * b} < a - k*r = {a - kr}")
    require(b <= n, lambda: f"need b <= n, got b={b}, n={n}")
    require(k * n >= m - kr, lambda: f"end below the line: k*n = {k * n} < m - k*r = {m - kr}")
    return _unit_count(k, k * n + kr - m + 1, n - b, m - a)


def count_strict_inv(k: int, r: Rational | int, a: int, b: int, m: int, n: int) -> int:
    """Paths from (a,b) to (m,n) staying strictly above y = x/k - r.

    Conditions: k >= 1, k*r integral, a <= m, b <= n with
    k*b + k*r - a > 0 (start strictly above), and k*n + k*r - m > 0.
    """
    require(k >= 1, lambda: f"need k >= 1, got {k}")
    kr = _k_times_r(k, r)
    require(a <= m, lambda: f"need a <= m, got a={a}, m={m}")
    require(b <= n, lambda: f"need b <= n, got b={b}, n={n}")
    require(k * b + kr - a > 0,
            lambda: f"start not strictly above the line: k*b+k*r-a = {k * b + kr - a}")
    require(k * n + kr - m > 0,
            lambda: f"end not strictly above the line: k*n+k*r-m = {k * n + kr - m}")
    return _unit_count(k, k * n + kr - m, n - b, m - a)


def base_case(k: int, a: int, b: int, m: int, n: int) -> int:
    """Single-product count for starts within one slope-run of y = k*x.

    Conditions: k, m >= 1, 0 <= a <= m, 0 <= b <= n, n >= k*m, and
    0 <= b - k*a <= k.  Agrees with count_weak(k, 0, a, b, m, n) there.
    """
    require(k >= 1 and m >= 1, lambda: f"need k, m >= 1, got k={k}, m={m}")
    require(0 <= a <= m, lambda: f"need 0 <= a <= m, got a={a}, m={m}")
    require(0 <= b <= n, lambda: f"need 0 <= b <= n, got b={b}, n={n}")
    require(n >= k * m, lambda: f"need n >= k*m, got n={n}, k*m={k * m}")
    require(0 <= b - k * a <= k, lambda: f"need 0 <= b - k*a <= k, got {b - k * a}")
    return _exact(binomial(m + n - (k + 1) * a, m - a), n + 1 - k * m, n + 1 - k * a)


def ballot(k: int, m: int, n: int) -> int:
    """Generalized ballot count: C(m+n, m) - k*C(m+n, m-1), for n >= k*m.
    As C(m+n, m-1) = C(m+n, m)*m/(n+1), it is C(m+n, m)*(n+1-k*m)/(n+1)."""
    require(k >= 1, lambda: f"need k >= 1, got {k}")
    require(m >= 0, lambda: f"need m >= 0, got {m}")
    require(n >= k * m, lambda: f"need n >= k*m, got n={n}, k*m={k * m}")
    return _exact(binomial(m + n, m), n + 1 - k * m, n + 1)


def fuss_catalan(k: int, m: int) -> int:
    """Order-k Fuss-Catalan number C(km, m)/((k-1)m + 1), k >= 2, m >= 0.

    Equals count_weak(k-1, 0, 0, 0, m, (k-1)*m); order 2 gives the Catalan
    numbers.
    """
    require(k >= 2, lambda: f"need k >= 2, got {k}")
    require(m >= 0, lambda: f"need m >= 0, got {m}")
    return _exact(binomial(k * m, m), 1, (k - 1) * m + 1)


def _literal(p: int, c: int, m: int, n: int) -> int:
    """The sum of c/s * C(s, j) * C(m+n-s, n-j) over s = c + j*(p+1) <= m+n,
    j = 0, 1, ...; empty when c > m+n.  Each c/s * C(s, j) is an integer (a
    Raney number) for c >= 1, taken by one exact division."""
    total = 0
    for j, s in enumerate(range(c, m + n + 1, p + 1)):
        total += _exact(binomial(s, j), c, s) * binomial(m + n - s, n - j)
    return _finish(total)


def koroljuk_literal(q: KoroljukQuery) -> int:
    """Count of the walks that meet x = c, by Koroljuk's literal sum."""
    return _literal(q.p, q.c, q.m, q.n)


def koroljuk_reduced(q: KoroljukQuery) -> int:
    """Same count as koroljuk_literal: the C(m+n, n) walks less those that
    avoid x = c, the unit paths strictly above y = p*x - (c + p*n - m)."""
    p, c, m, n = q.p, q.c, q.m, q.n
    return _unit_count(p, c + p * n - m, n, m, touching=True)


def niederhausen(q: NiederhausenQuery) -> int:
    """Total binomial count minus the below-line corrections.

    Conditions beyond the query invariants: d >= (k-1)m/k (the stated
    domain; validity outside it is an open question and not guessed at),
    and both endpoints strictly above y = k*(x-d), i.e. k*d >= 1 and
    n > k*m - k*d.  Equals count_strict(k, k*d, 0, 0, m, n).
    """
    k, m, n, kd = q.k, q.m, q.n, q.kd
    require(kd >= (k - 1) * m,
            lambda: f"outside the stated domain: need k*d >= (k-1)*m, got {kd} < {(k - 1) * m}")
    require(kd >= 1, lambda: f"origin not strictly above the line: need k*d >= 1, got {kd}")
    require(n > k * m - kd,
            lambda: f"end not strictly above the line: need n > k*m - k*d = {k * m - kd}")
    return _unit_count(k, kd, m, n)


def bohm(q: BohmQuery) -> int:
    """Count of the positive-altitude walks of q.  Equals
    count_strict(rise, end_alt, 0, 0, ups, start_alt + rise*ups - end_alt)."""
    return _unit_count(q.rise, q.end_alt, q.ups, q.down_steps)


def _evaluate(q: PathQuery) -> int:
    """The core evaluator matching q's slope kind and strictness, applied to
    q as it stands; the evaluator's preconditions apply."""
    if q.boundary.kind is SlopeKind.INTEGER:
        evaluator = count_weak if q.strictness is Strictness.WEAK else count_strict
    else:
        evaluator = count_weak_inv if q.strictness is Strictness.WEAK else count_strict_inv
    return evaluator(q.boundary.k, q.boundary.r, q.a, q.b, q.m, q.n)


def count(q: PathQuery) -> int:
    """Totalizing wrapper over the four evaluators.

    Returns 0 for queries with no paths (endpoint unreachable or below the
    boundary), and answers every other query, from any integer start, by
    the evaluator of its kind and mode once non-integral intercepts are
    snapped to their canonical form.  A query of another kind raises
    TypeError.
    """
    if not validate_query(q).ok:
        return 0
    return _evaluate(normalize_query(q))
