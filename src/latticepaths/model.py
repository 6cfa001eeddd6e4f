"""Domain model: boundary lines, path queries, step sets, lattice paths.

Conventions used throughout the package:

* A boundary line is either y = k*x - r (integer slope k >= 1) or
  y = x/k - r (inverse slope 1/k, k >= 1), with a rational intercept
  parameter r.  Larger r moves the line down.
* A point satisfies a WEAK constraint when it lies on or above the line and
  a STRICT constraint when it lies strictly above.  Comparisons are done in
  cross-multiplied integer arithmetic; no floating point anywhere.
* A PathQuery asks for monotone unit paths (steps east (1,0) and north
  (0,1)) from (a, b) to (m, n) whose every visited point satisfies the
  constraint.  Start ordinates below zero are legal; they arise from
  vertically shifted queries.
* Step strings use one letter per step: H/V for unit paths, U/D for the
  two-letter families ((1,1)/(-p,1) diagonal-with-backjump walks and
  (1,rise)/(1,-1) altitude walks).

Non-integral intercepts never change which lattice points satisfy the
constraint compared to a canonical snapped value; ``normalize_intercept``
computes that canonical form, and for genuinely non-integral cases the
strict and weak constraints coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import ValidationError
from .exactmath import Rational


class Strictness(Enum):
    WEAK = "weak"
    STRICT = "strict"


class SlopeKind(Enum):
    INTEGER = "integer"
    INVERSE = "inverse"


@dataclass(frozen=True)
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

    def describe(self) -> str:
        slope = str(self.k) if self.kind is SlopeKind.INTEGER else f"1/{self.k}"
        return f"y = {slope}*x - ({self.r})"


def integer_slope(k: int, r: Rational | int = 0) -> BoundaryLine:
    return BoundaryLine(SlopeKind.INTEGER, k, Fraction(r))


def inverse_slope(k: int, r: Rational | int = 0) -> BoundaryLine:
    return BoundaryLine(SlopeKind.INVERSE, k, Fraction(r))


def above(point: tuple[int, int], line: BoundaryLine, strictness: Strictness) -> bool:
    """Whether the lattice point lies (weakly or strictly) above the line."""
    x, y = point
    value = line.value_at(x)
    # Cross-multiplied integer comparison: y >= num/den with den > 0.
    lhs = y * value.denominator
    rhs = value.numerator
    return lhs >= rhs if strictness is Strictness.WEAK else lhs > rhs


def min_ordinate_above(line: BoundaryLine, x: int, strictness: Strictness) -> int:
    """Smallest integer y with (x, y) above the line; exact ceiling arithmetic.

    The boundary value is num/den with den > 0, formed in integers from k and
    the intercept's numerator and denominator: (k*x*r_den - r_num)/r_den for
    the integer slope, (x*r_den - k*r_num)/(k*r_den) for the inverse slope.
    """
    r_num, r_den = line.r.numerator, line.r.denominator
    if line.kind is SlopeKind.INTEGER:
        num, den = line.k * x * r_den - r_num, r_den
    else:
        num, den = x * r_den - line.k * r_num, line.k * r_den
    if strictness is Strictness.WEAK:
        return -((-num) // den)  # ceil(num/den)
    return num // den + 1  # floor(num/den) + 1


def normalize_intercept(line: BoundaryLine) -> BoundaryLine:
    """Snap a non-integral intercept to its canonical equivalent.

    Integer slope: a non-integer r constrains lattice points exactly as
    floor(r) does.  Inverse slope: a non-integer k*r constrains exactly as
    floor(k*r)/k does.  Integral cases are returned unchanged.
    """
    if line.kind is SlopeKind.INTEGER:
        if line.r.denominator == 1:
            return line
        return BoundaryLine(line.kind, line.k, Fraction(line.r.numerator // line.r.denominator))
    kr = line.k * line.r
    if kr.denominator == 1:
        return line
    return BoundaryLine(line.kind, line.k, Fraction(kr.numerator // kr.denominator, line.k))


def strictness_insensitive(line: BoundaryLine) -> bool:
    """True when no lattice point can land exactly on the line."""
    if line.kind is SlopeKind.INTEGER:
        return line.r.denominator != 1
    return (line.k * line.r).denominator != 1


@dataclass(frozen=True)
class PathQuery:
    """Monotone unit paths from (a, b) to (m, n) kept above a boundary line."""

    a: int
    b: int
    m: int
    n: int
    boundary: BoundaryLine
    strictness: Strictness


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


class QueryCategory(Enum):
    STANDARD = "standard"  # meets the closed form's documented condition block
    EXTENDED = "extended"  # boundary-valid, but outside that block
    INVALID = "invalid"  # no paths: endpoint violates the constraint or is unreachable


@dataclass(frozen=True)
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
    # gives the b-vs-line inequality).  What remains live is the sign side.
    eff = normalize_query(q)
    problems: list[str] = []
    if eff.a < 0:
        problems.append("start abscissa below 0")
    if eff.strictness is Strictness.WEAK:
        if eff.b < 0:
            problems.append("start ordinate below 0 (vertically shifted query)")
    else:
        if eff.b < 1:
            problems.append("strict start ordinate below 1")
    if problems:
        return QueryValidation(QueryCategory.EXTENDED, "; ".join(problems))
    return QueryValidation(QueryCategory.STANDARD, "meets the documented condition block")


class StepKind(Enum):
    UNIT = "unit"
    KOROLJUK = "koroljuk"
    BOHM = "bohm"


@dataclass(frozen=True)
class StepSet:
    """A named two-step alphabet together with its letter encoding."""

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
    def unit() -> "StepSet":
        return StepSet(StepKind.UNIT)

    @staticmethod
    def koroljuk(p: int) -> "StepSet":
        return StepSet(StepKind.KOROLJUK, p)

    @staticmethod
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


@dataclass(frozen=True)
class LatticePath:
    """A start point plus a finite step sequence from a declared step set."""

    start: tuple[int, int]
    steps: tuple[tuple[int, int], ...]
    step_set: StepSet

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", tuple(self.start))
        object.__setattr__(self, "steps", tuple(tuple(s) for s in self.steps))
        for step in self.steps:
            self.step_set.letter_for(step)  # raises ValidationError for a foreign step

    def points(self) -> list[tuple[int, int]]:
        """All visited points, start included, in traversal order."""
        x, y = self.start
        out = [(x, y)]
        for dx, dy in self.steps:
            x += dx
            y += dy
            out.append((x, y))
        return out

    @property
    def end(self) -> tuple[int, int]:
        return self.points()[-1]

    def encode(self) -> str:
        return "".join(map(self.step_set.letter_for, self.steps))

    @classmethod
    def decode(cls, text: str, step_set: StepSet, start: tuple[int, int] = (0, 0)) -> "LatticePath":
        steps = tuple(step_set.vector_for(ch) for ch in text)
        return cls(start, steps, step_set)


def path_above(path: LatticePath, line: BoundaryLine, strictness: Strictness) -> bool:
    """Whether every visited point (x, y) has y >= ``min_ordinate_above`` at x."""
    return all(y >= min_ordinate_above(line, x, strictness) for x, y in path.points())
