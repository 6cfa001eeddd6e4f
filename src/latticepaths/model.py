"""Domain model: boundary lines, path queries, step sets, lattice paths.

Conventions used throughout the package:

* A boundary line is either y = k*x - r (integer slope k >= 1) or
  y = x/k - r (inverse slope 1/k, k >= 1), with a rational intercept
  parameter r.  Larger r moves the line down.
* A point satisfies a WEAK constraint when it lies on or above the line and
  a STRICT constraint when it lies strictly above.  Comparisons are done in
  cross-multiplied integer arithmetic; no floating point anywhere.  The
  path tests use one integer linear form per line: (x, y) is above it when
  A*y - B*x + C >= s, with s = 0 for WEAK and 1 for STRICT.  Two private
  primitives serve every region bounded by such a form a*y - b*x + c >= 0:
  ``_floors`` gives the least y at each x (``min_ordinate_above``), and
  ``_exit_level`` runs the form along a word, each letter adding the
  constant that ``_rises`` gives it (``path_above``, and the checks of
  every map in ``bijections``).  ``above`` keeps the rational boundary
  value as the reference they are tested against.
* A PathQuery asks for monotone unit paths (steps east (1,0) and north
  (0,1)) from (a, b) to (m, n) whose every visited point satisfies the
  constraint.  Start ordinates below zero are legal; they arise from
  vertically shifted queries.
* The walk queries are line regions too, with the numbers of steps of each
  kind on the axes.  KoroljukQuery: a walk of u steps (1,1) and d steps
  (-p,1) from the origin avoids x = c exactly when it stays left of it,
  u - p*d <= c - 1, weakly above d = (u - c + 1)/p.  BohmQuery: altitude
  start + rise*u - d >= 1, weakly above u = (d - start + 1)/rise.
  NiederhausenQuery: unit paths strictly above y = k*(x - d).
* Step strings use one letter per step: H/V for unit paths, U/D for the
  two-letter families ((1,1)/(-p,1) diagonal-with-backjump walks and
  (1,rise)/(1,-1) altitude walks).  A LatticePath stores its steps as this
  word; the step vectors are derived from it.

Both intercept rules read the weak form (A, B, C).  Every A*y - B*x is a
multiple of g = gcd(A, B), so a lattice point lies on the line exactly when
g divides C (``strictness_insensitive`` is the negation: then strict and
weak coincide), and C constrains lattice points exactly as g*floor(C/g)
does (``normalize_intercept``'s snap, floor(r) for the integer slope and
floor(k*r)/k for the inverse slope).  A translated query moves the line
with it by adding B*dx - A*dy to C.  In this module only ``_form``,
``value_at`` and ``describe`` branch on the slope kind.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property
from math import gcd

from .errors import ValidationError
from .exactmath import Rational


class Strictness(Enum):
    WEAK = "weak"
    STRICT = "strict"


class SlopeKind(Enum):
    INTEGER = "integer"
    INVERSE = "inverse"


def _record_class(cls: type, frozen: bool = True) -> type:
    """Give a class the methods of a value type over its annotated fields,
    written once per class as ``dataclasses`` writes them, less any the class
    defines: ``__init__`` in field order (class attributes are defaults;
    ``__post_init__`` runs last), a ``Name(field=value, ...)`` repr, ``==`` on
    the field tuples of one class, and when frozen a field-tuple hash and no
    setattr or delattr; a mutable record is unhashable."""
    names = list(cls.__annotations__)
    mine = "".join(f"self.{name}, " for name in names)
    store = " _set(self, {0!r}, {0})" if frozen else " self.{0} = {0}"
    source = [
        f"def __init__(self, {', '.join(names)}):", *map(store.format, names),
        " self.__post_init__()" if hasattr(cls, "__post_init__") else "",
        "def __eq__(self, other):",
        " if other.__class__ is not self.__class__: return NotImplemented",
        f" return ({mine}) == ({mine.replace('self.', 'other.')})",
        f"def __hash__(self): return hash(({mine}))",
        "__setattr__ = __delattr__ = _frozen" if frozen else "__hash__ = None",
    ]
    methods = {"__repr__": _repr}
    exec("\n".join(source), {"_set": object.__setattr__, "_frozen": _frozen}, methods)
    methods["__init__"].__defaults__ = tuple(cls.__dict__[n] for n in names if n in cls.__dict__)
    methods["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__annotations__)
    return f"{self.__class__.__qualname__}({fields})"


def _frozen(self, name: str, *value) -> None:
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


@_record_class
class BoundaryLine:
    """The line y = k*x - r (INTEGER kind) or y = x/k - r (INVERSE kind)."""

    kind: SlopeKind
    k: int
    r: Rational

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValidationError(f"slope parameter k must be >= 1, got {self.k}")
        object.__setattr__(self, "r", Fraction(self.r))

    def value_at(self, x: int) -> Rational:
        """Ordinate of the line at abscissa x."""
        if self.kind is SlopeKind.INTEGER:
            return self.k * x - self.r
        return Fraction(x, self.k) - self.r

    def _form(self, strictness: Strictness) -> tuple[int, int, int]:
        """Integers (A, B, C - s), A > 0, with (x, y) above the line exactly
        when A*y - B*x + C >= s, s = 0 for WEAK and 1 for STRICT: the line
        cross-multiplied by the intercept's denominator (and by k for the
        inverse slope)."""
        r_num, r_den = self.r.numerator, self.r.denominator
        s = 1 if strictness is Strictness.STRICT else 0
        if self.kind is SlopeKind.INTEGER:
            return r_den, self.k * r_den, r_num - s
        return self.k * r_den, r_den, self.k * r_num - s

    def describe(self) -> str:
        slope = str(self.k) if self.kind is SlopeKind.INTEGER else f"1/{self.k}"
        return f"y = {slope}*x - ({self.r})"


def integer_slope(k: int, r: Rational | int = 0) -> BoundaryLine:
    return BoundaryLine(SlopeKind.INTEGER, k, r)


def inverse_slope(k: int, r: Rational | int = 0) -> BoundaryLine:
    return BoundaryLine(SlopeKind.INVERSE, k, r)


def above(point: tuple[int, int], line: BoundaryLine, strictness: Strictness) -> bool:
    """Whether the lattice point lies (weakly or strictly) above the line."""
    x, y = point
    value = line.value_at(x)
    # Cross-multiplied integer comparison: y >= num/den with den > 0.
    lhs = y * value.denominator
    rhs = value.numerator
    return lhs >= rhs if strictness is Strictness.WEAK else lhs > rhs


def min_ordinate_above(line: BoundaryLine, x: int, strictness: Strictness) -> int:
    """Smallest integer y with (x, y) above the line."""
    return _floors(*line._form(strictness))(x)


def _floors(a: int, b: int, c: int) -> Callable[[int], int]:
    """The least y with a*y - b*x + c >= 0 as a function of x, a > 0: the
    ceiling of (b*x - c)/a."""
    return lambda x: -((c - b * x) // a)


def _k_times_r(k: int, r: Rational | int) -> int:
    """k*r as an int, if it is integral, built from r's numerator and denominator."""
    if k * r.numerator % r.denominator:
        raise ValidationError(f"need k*r integral, got k*r = {k * r}")
    return k * r.numerator // r.denominator


def normalize_intercept(line: BoundaryLine) -> BoundaryLine:
    """Snap a non-integral intercept to its canonical equivalent.

    With (A, B, C) the weak form and g = gcd(A, B), every value A*y - B*x
    is a multiple of g, so C constrains lattice points exactly as
    g*floor(C/g) does: r = floor(C/g)/(A/g), which is floor(r) for the
    integer slope and floor(k*r)/k for the inverse slope.  Integral cases
    come back equal.
    """
    a, b, c = line._form(Strictness.WEAK)
    g = gcd(a, b)
    return BoundaryLine(line.kind, line.k, Fraction(c // g, a // g))


def strictness_insensitive(line: BoundaryLine) -> bool:
    """True when no lattice point lies on the line: with (A, B, C) the weak
    form, A*y - B*x + C = 0 has an integer solution exactly when gcd(A, B)
    divides C."""
    a, b, c = line._form(Strictness.WEAK)
    return c % gcd(a, b) != 0


@_record_class
class PathQuery:
    """Monotone unit paths from (a, b) to (m, n) kept above a boundary line."""

    a: int
    b: int
    m: int
    n: int
    boundary: BoundaryLine
    strictness: Strictness


@_record_class
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


@_record_class
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
        if self.k * self.d.numerator % self.d.denominator:
            raise ValidationError(f"NiederhausenQuery needs k*d integral, got {self.k * self.d}")

    @cached_property
    def kd(self) -> int:
        return self.k * self.d.numerator // self.d.denominator


@_record_class
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


def normalize_query(q: PathQuery) -> PathQuery:
    """Equivalent query with a canonical intercept.

    When the raw intercept is non-integral (in the sense relevant to the
    slope kind) the constraint cannot be met with equality, so the strict
    and weak versions coincide; the normalized query is the weak one.
    """
    if not strictness_insensitive(q.boundary):
        return q
    line = normalize_intercept(q.boundary)
    return PathQuery(q.a, q.b, q.m, q.n, line, Strictness.WEAK)


def _moved(q: PathQuery, dx: int, dy: int) -> PathQuery:
    """q translated by (dx, dy): the same paths, the line moved with them.

    The moved line is A*(y-dy) - B*(x-dx) + C >= 0, so the weak form's
    constant gains B*dx - A*dy; for both slope kinds that form's C/A is the
    intercept.
    """
    a, b, c = q.boundary._form(Strictness.WEAK)
    line = BoundaryLine(q.boundary.kind, q.boundary.k, Fraction(c + b * dx - a * dy, a))
    return PathQuery(q.a + dx, q.b + dy, q.m + dx, q.n + dy, line, q.strictness)


class QueryCategory(Enum):
    STANDARD = "standard"  # meets the closed form's documented condition block
    EXTENDED = "extended"  # boundary-valid, but outside that block
    INVALID = "invalid"  # no paths: endpoint violates the constraint or is unreachable


@_record_class
class QueryValidation:
    category: QueryCategory
    reason: str

    @property
    def ok(self) -> bool:
        return self.category is not QueryCategory.INVALID


def validate_query(q: PathQuery) -> QueryValidation:
    """Classify a query for the closed-form evaluators.

    STANDARD queries satisfy the full condition block documented on the
    matching evaluator in ``formulas``.  EXTENDED queries are still
    countable (both endpoints satisfy the constraint, the end is reachable)
    but fall outside that block, e.g. strict queries starting at ordinate 0
    that clear the line only thanks to the intercept, or shifted queries
    with a negative start ordinate.  INVALID queries have no paths at all.
    """
    if q.a > q.m or q.b > q.n:
        return QueryValidation(QueryCategory.INVALID, "end point not reachable from start")
    if not above((q.a, q.b), q.boundary, q.strictness):
        return QueryValidation(QueryCategory.INVALID, "start violates the boundary constraint")
    if not above((q.m, q.n), q.boundary, q.strictness):
        return QueryValidation(QueryCategory.INVALID, "end violates the boundary constraint")

    # Endpoint validity and reachability already imply most block conditions
    # (the end above the line gives the n-side inequality, the start above
    # gives the b-vs-line inequality).  What remains live is the sign side of
    # the start, in the mode that ``normalize_query`` would give the query.
    problems: list[str] = []
    if q.a < 0:
        problems.append("start abscissa below 0")
    if q.strictness is Strictness.WEAK or strictness_insensitive(q.boundary):
        if q.b < 0:
            problems.append("start ordinate below 0 (vertically shifted query)")
    else:
        if q.b < 1:
            problems.append("strict start ordinate below 1")
    if problems:
        return QueryValidation(QueryCategory.EXTENDED, "; ".join(problems))
    return QueryValidation(QueryCategory.STANDARD, "meets the documented condition block")


class StepKind(Enum):
    UNIT = "unit"
    KOROLJUK = "koroljuk"
    BOHM = "bohm"


@_record_class
class StepSet:
    """A named two-step alphabet together with its letter encoding.  The
    factories ``unit``, ``koroljuk`` and ``bohm`` share one instance per argument."""

    kind: StepKind
    param: int = 0  # p for KOROLJUK, rise for BOHM, unused for UNIT

    def __post_init__(self) -> None:
        if self.kind is StepKind.UNIT:
            if self.param:
                raise ValidationError("unit step set takes no parameter")
            vectors = {"H": (1, 0), "V": (0, 1)}
        elif self.param < 1:
            raise ValidationError(f"{self.kind.value} step set needs a parameter >= 1")
        elif self.kind is StepKind.KOROLJUK:
            vectors = {"U": (1, 1), "D": (-self.param, 1)}
        else:
            vectors = {"U": (1, self.param), "D": (1, -1)}
        object.__setattr__(self, "_vectors", vectors)  # built once; letters() hands out copies
        object.__setattr__(self, "_letters", {vec: letter for letter, vec in vectors.items()})

    @staticmethod
    @cache
    def unit() -> "StepSet":
        return StepSet(StepKind.UNIT)

    @staticmethod
    @cache
    def koroljuk(p: int) -> "StepSet":
        return StepSet(StepKind.KOROLJUK, p)

    @staticmethod
    @cache
    def bohm(rise: int) -> "StepSet":
        return StepSet(StepKind.BOHM, rise)

    def letters(self) -> dict[str, tuple[int, int]]:
        return dict(self._vectors)

    def vector_for(self, letter: str) -> tuple[int, int]:
        try:
            return self._vectors[letter]
        except KeyError:
            raise ValidationError(f"unknown step letter {letter!r} for {self.kind.value} steps") from None

    def letter_for(self, step: tuple[int, int]) -> str:
        try:
            return self._letters[step]
        except (KeyError, TypeError):  # an unhashable step is not a vector of the set either
            raise ValidationError(f"step {step} does not belong to the {self.kind.value} step set") from None


@_record_class
class LatticePath:
    """A start point plus a word of step letters from a declared step set.

    ``steps`` may be step vectors or the word of their letters; a step outside
    the set raises ValidationError.  Equality follows (start, word, step set).
    """

    start: tuple[int, int]
    word: str
    step_set: StepSet

    def __init__(
        self, start: tuple[int, int], steps: Iterable[tuple[int, int]] | str, step_set: StepSet
    ) -> None:
        if not isinstance(steps, str):
            steps = "".join([step_set.letter_for(tuple(step)) for step in steps])
        elif not set(steps) <= step_set._vectors.keys():
            for letter in steps:
                step_set.vector_for(letter)  # raises for the first foreign letter
        object.__setattr__(self, "start", tuple(start))
        object.__setattr__(self, "word", steps)
        object.__setattr__(self, "step_set", step_set)

    @property
    def steps(self) -> tuple[tuple[int, int], ...]:
        """The step vectors, spelled out from the word."""
        return tuple(map(self.step_set._vectors.__getitem__, self.word))

    def __repr__(self) -> str:
        return f"LatticePath(start={self.start!r}, steps={self.steps!r}, step_set={self.step_set!r})"

    def points(self) -> list[tuple[int, int]]:
        """All visited points, start included, in traversal order."""
        x, y = self.start
        out = [(x, y)]
        vectors = self.step_set._vectors
        for letter in self.word:
            dx, dy = vectors[letter]
            x += dx
            y += dy
            out.append((x, y))
        return out

    @property
    def end(self) -> tuple[int, int]:
        """The last point: the start moved by each step vector times its letter's count."""
        x, y = self.start
        for letter, (dx, dy) in self.step_set._vectors.items():
            times = self.word.count(letter)
            x += times * dx
            y += times * dy
        return (x, y)

    def encode(self) -> str:
        return self.word

    @classmethod
    def decode(cls, text: str, step_set: StepSet, start: tuple[int, int] = (0, 0)) -> "LatticePath":
        return cls(start, text, step_set)


def _rises(step_set: StepSet, a: int, b: int) -> dict[str, int]:
    """What each letter of ``step_set`` adds to the form a*y - b*x."""
    return {letter: a * dy - b * dx for letter, (dx, dy) in step_set._vectors.items()}


def _exit_level(level: int, rises: dict[str, int], word: str) -> int | None:
    """The first negative value of a running form that starts at ``level``
    and adds ``rises[letter]`` for each letter of ``word``, or None."""
    if level < 0:
        return level
    for letter in word:
        level += rises[letter]
        if level < 0:
            return level
    return None


def path_above(path: LatticePath, line: BoundaryLine, strictness: Strictness) -> bool:
    """Whether every visited point lies above the line."""
    a, b, c = line._form(strictness)
    x, y = path.start
    return _exit_level(a * y - b * x + c, _rises(path.step_set, a, b), path.word) is None
