"""The four benchmark workloads: seeded inputs, one op kind each, and checks.

Every workload subclasses ``Workload``, the surface ``run.py`` drives:

* ``items``: the ops of one round, in order.  A run repeats whole rounds.
* ``run(item)``: one op.  This is the only code inside the timed region.
* ``warm_up()``: untimed work done once before the first timed op.
* ``expected_failure(item)``: whether the op is a known failing one.
* ``check(results)``: compare each distinct op's result with a computation
  made apart from ``formulas`` (``dp_count``, ``math.comb`` or a sweep that
  compares two routes itself); returns a list of error strings.

The library is driven only through its public names and its command line,
looked up on the package at call time so that the traced run sees every
call.  Inputs depend on the seed alone.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Command-line argument vector of the count whose answer has 4,970 digits:
# C(18000, 6000) - 2*C(18000, 5999) paths weakly above y = 2x.
LARGE_ANSWER_ARGS = ("count", "--slope", "2", "--to", "6000,12000", "--weak")


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift Python's int/str conversion limit for the enclosed block only."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def _unit_query(lp, a, b, m, n, kind, k, r, strictness):
    line = lp.integer_slope(k, r) if kind == "integer" else lp.inverse_slope(k, r)
    return lp.PathQuery(a, b, m, n, line, strictness)


def _below_rectangle(kind: str, k: int, r, b: int, m: int, strict: bool) -> bool:
    """Whether every point of the rectangle [a..m] x [b..n] satisfies the
    constraint.  The line rises with x, so (m, b) is the binding point."""
    value = k * m - Fraction(r) if kind == "integer" else Fraction(m, k) - Fraction(r)
    return b > value if strict else b >= value


class Workload:
    """Defaults shared by the workloads."""

    name = ""
    items: list
    trace_rounds = 1

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def run_traced(self, item):
        """The op as the traced run performs it (in this process)."""
        return self.run(item)

    def succeeded(self, result) -> bool:
        """Whether an op that returned ``result`` (without raising) succeeded."""
        return True

    def expected_failure(self, item) -> bool:
        """Whether ``item`` is a known failing op, counted but not an error."""
        return False

    def peak_rss_kib(self) -> int:
        """Peak resident size of the process that ran the ops."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def check(self, results: dict) -> list[str]:
        raise NotImplementedError


class GridQueries(Workload):
    """One op is ``count(query)`` on a small boundary-valid query.

    The pool has 16 strata of 256 queries: slope kind x strictness x
    integer or non-integral intercept x STANDARD or EXTENDED start.  Slopes
    k are 1..3, intercepts lie in [-2, 6] with denominators up to 5, and
    endpoints stay within 6 steps east and 8 steps north of the start, as
    on the acceptance grid.
    """

    name = "grid-queries"
    per_stratum = 256
    trace_rounds = 5

    def __init__(self, lp, seed: int):
        self.lp = lp
        rng = random.Random(f"{self.name}:{seed}")
        items = []
        for kind in (lp.SlopeKind.INTEGER, lp.SlopeKind.INVERSE):
            for strictness in (lp.Strictness.WEAK, lp.Strictness.STRICT):
                for rational in (False, True):
                    for category in (lp.QueryCategory.STANDARD, lp.QueryCategory.EXTENDED):
                        for _ in range(self.per_stratum):
                            items.append(self._draw(rng, kind, strictness, rational, category))
        rng.shuffle(items)
        self.items = items

    def _draw(self, rng, kind, strictness, rational, category):
        lp = self.lp
        extended = category is lp.QueryCategory.EXTENDED
        while True:
            k = rng.randint(1, 3)
            if rational:
                den = rng.randint(2, 5)
                num = rng.randint(-2 * den, 6 * den)
                if (num % den == 0) or (kind is lp.SlopeKind.INVERSE and (k * num) % den == 0):
                    continue  # snaps to an integral intercept: not a rational case
                r = Fraction(num, den)
            else:
                r = Fraction(rng.randint(-2, 6))
            a = rng.randint(-2, 0) if extended and rng.random() < 0.3 else rng.randint(0, 3)
            b = rng.randint(-3, 0) if extended else rng.randint(0, 4)
            q = lp.PathQuery(a, b, a + rng.randint(0, 6), b + rng.randint(0, 8),
                             lp.BoundaryLine(kind, k, r), strictness)
            if lp.validate_query(q).category is category:
                return q

    def warm_up(self) -> None:
        for q in self.items[:256]:
            self.lp.count(q)

    def run(self, q):
        return self.lp.count(q)

    def check(self, results: dict) -> list[str]:
        errors = []
        for q, value in results.items():
            expected = self.lp.dp_count(q)
            if value != expected:
                errors.append(f"count({q}) = {value}, dp_count = {expected}")
        return errors


class BigCounts(Workload):
    """One op is one closed-form evaluation with hundreds of terms on
    integers of hundreds of digits.

    Eight families, four queries each: ``count_weak``, ``count_strict``,
    ``count_weak_inv``, ``count_strict_inv``, ``koroljuk_reduced``, ``bohm``,
    ``niederhausen`` and ``count_weak`` on a 1..3 by 1..4 rectangle with an
    intercept of about a thousand.  Each family's size is chosen so that its
    ops cost about the same (about 10 ms here); the seed moves every size by
    up to 3%.
    """

    name = "big-counts"
    per_family = 4
    trace_rounds = 3
    # family -> centre size N (or intercept r for the small-endpoint family)
    SIZES = {
        "count_weak": 370,
        "count_strict": 375,
        "count_weak_inv": 490,
        "count_strict_inv": 490,
        "koroljuk_reduced": 330,
        "bohm": 490,
        "niederhausen": 760,
        "small_endpoint": 1000,
    }

    def __init__(self, lp, seed: int):
        self.lp = lp
        rng = random.Random(f"{self.name}:{seed}")
        items = []
        for family, centre in self.SIZES.items():
            for _ in range(self.per_family):
                size = round(centre * rng.uniform(0.97, 1.03))
                items.append(self._make(rng, family, size))
        rng.shuffle(items)
        self.items = items

    @staticmethod
    def _make(rng, family: str, size: int) -> tuple:
        if family in ("count_weak", "count_strict"):
            return (family, (2, size, 0, size, size, 3 * size))
        if family in ("count_weak_inv", "count_strict_inv"):
            return (family, (2, size, size, 0, 3 * size, size))
        if family == "koroljuk_reduced":
            return (family, (1, rng.randint(2, 6), size, size))
        if family == "bohm":
            return (family, (2, rng.randint(3, 7), size, size))
        if family == "niederhausen":
            return (family, (1, size, size, size))
        m = rng.randint(1, 3)
        return ("count_weak", (1, size, 0, 0, m, rng.randint(m, 4)))

    def warm_up(self) -> None:
        seen = set()
        for item in self.items:
            if item[0] not in seen:
                seen.add(item[0])
                self.run(item)

    def run(self, item):
        family, args = item
        lp = self.lp
        if family == "koroljuk_reduced":
            return lp.koroljuk_reduced(lp.KoroljukQuery(*args))
        if family == "bohm":
            return lp.bohm(lp.BohmQuery(*args))
        if family == "niederhausen":
            return lp.niederhausen(lp.NiederhausenQuery(*args))
        return getattr(lp, family)(*args)

    def expected(self, item) -> list[tuple[str, int]]:
        """Independent values for one op, as (route, value) pairs."""
        lp = self.lp
        weak, strict = lp.Strictness.WEAK, lp.Strictness.STRICT
        family, args = item
        if family == "koroljuk_reduced":
            # Walks meeting x = c are the complement of the avoiding walks,
            # which correspond to unit paths strictly above y = p*x - v.
            p, c, m, n = args
            v = c + p * n - m
            avoiding = lp.dp_count(_unit_query(lp, 0, 0, n, m, "integer", p, v, strict)) if v >= 1 else 0
            return [("C(m+n,n) - dp_count", math.comb(m + n, n) - avoiding)]
        if family == "bohm":
            rise, start, end, ups = args
            downs = start + rise * ups - end
            return [("dp_count", lp.dp_count(_unit_query(lp, 0, 0, ups, downs, "integer", rise, end, strict)))]
        if family == "niederhausen":
            k, d, m, n = args
            return [("dp_count", lp.dp_count(_unit_query(lp, 0, 0, m, n, "integer", k, k * d, strict)))]
        k, r, a, b, m, n = args
        kind = "inverse" if family.endswith("_inv") else "integer"
        is_strict = family.startswith("count_strict")
        routes = [("dp_count", lp.dp_count(
            _unit_query(lp, a, b, m, n, kind, k, r, strict if is_strict else weak)))]
        if _below_rectangle(kind, k, r, b, m, is_strict):
            routes.append(("math.comb", math.comb((m - a) + (n - b), m - a)))
        return routes

    def check(self, results: dict) -> list[str]:
        errors = []
        for item, value in results.items():
            for route, expected in self.expected(item):
                if value != expected:
                    errors.append(f"{item[0]}{item[1]} = {value}, {route} gives {expected}")
        return errors


class VerifySweeps(Workload):
    """One op is one round of all nine public sweeps at reduced size.

    The sizes are fixed; the seed only picks the random draws of the
    convolution and upper-negation sweeps, the same in every round of a run.
    They keep a round near 0.6 s (half of it the fixed-size
    ``cross_formula_sweep``), so that a run's median rests on about 40
    rounds or more.
    """

    name = "verify-sweeps"
    trace_rounds = 2

    def __init__(self, lp, seed: int):
        self.lp = lp
        self.sweep_seed = random.Random(f"{self.name}:{seed}").randrange(2**31)
        self.items = ["all-sweeps"]

    def _sweeps(self, small: bool):
        """(name, thunk) for each sweep; ``small`` gives the warm-up sizes."""
        lp, seed = self.lp, self.sweep_seed
        extent, steps, trials = (2, 0, 4) if small else (4, 1, 50)
        return [
            ("formula_oracle_sweep", lambda: lp.formula_oracle_sweep(1, extent)),
            ("recurrence_shift_sweep", lambda: lp.recurrence_shift_sweep(1, extent)),
            ("intercept_normalization_sweep", lp.intercept_normalization_sweep),
            ("koroljuk_equality_sweep", lp.koroljuk_equality_sweep),
            ("complement_sweep", lambda: lp.complement_sweep(extent + 1)),
            ("hagen_rothe_sweep", lambda: lp.hagen_rothe_sweep(trials, seed)),
            ("upper_negation_sweep", lambda: lp.upper_negation_sweep(trials // 2, seed)),
            ("cross_formula_sweep", lp.cross_formula_sweep),
            ("run_bijections", lambda: lp.run_bijections(steps)),
        ]

    def warm_up(self) -> None:
        # Size-parameterised sweeps at their smallest sizes; the fixed-size
        # grids are left to the first timed round.
        for name, thunk in self._sweeps(small=True):
            if name not in ("koroljuk_equality_sweep", "cross_formula_sweep",
                            "intercept_normalization_sweep"):
                thunk()

    def run(self, item):
        return tuple((name, s.checks, s.failures) for name, s in
                     ((name, thunk()) for name, thunk in self._sweeps(small=False)))

    def check(self, results: dict) -> list[str]:
        errors = []
        for tallies in results.values():
            for name, checks, failures in tallies:
                if failures or checks <= 0:
                    errors.append(f"{name}: {checks} checks, {failures} failures")
        return errors


class CliOneshot(Workload):
    """One op is one fresh ``python -m latticepaths.cli count ...`` process.

    A round is eight invocations: seven seeded count queries (both slope
    kinds, both strictness modes, rational intercepts, negative starts, up
    to 40 by 80) and the count whose answer has 4,970 digits.
    """

    name = "cli-oneshot"
    ordinary = 7
    trace_rounds = 20

    def __init__(self, lp, seed: int):
        self.lp = lp
        rng = random.Random(f"{self.name}:{seed}")
        items = []
        while len(items) < self.ordinary:
            kind = rng.choice((lp.SlopeKind.INTEGER, lp.SlopeKind.INVERSE))
            k = rng.randint(1, 3)
            r = Fraction(rng.randint(-4, 24), rng.choice((1, 1, 2, 3)))
            strictness = rng.choice((lp.Strictness.WEAK, lp.Strictness.STRICT))
            a, b = rng.randint(-2, 5), rng.randint(-2, 10)
            q = lp.PathQuery(a, b, a + rng.randint(0, 40), b + rng.randint(0, 80),
                             lp.BoundaryLine(kind, k, r), strictness)
            if lp.validate_query(q).ok:
                items.append(self._argv(q))
        items.insert(rng.randrange(len(items) + 1), LARGE_ANSWER_ARGS)
        self.items = items
        self.peak_child_kib = 0

    def _argv(self, q) -> tuple[str, ...]:
        # --opt=value, because argparse would read "-3/2" or "-2,4" as a flag.
        lp = self.lp
        slope = str(q.boundary.k) if q.boundary.kind is lp.SlopeKind.INTEGER else f"1/{q.boundary.k}"
        return ("count", f"--slope={slope}", f"--intercept={q.boundary.r}",
                f"--from={q.a},{q.b}", f"--to={q.m},{q.n}", f"--{q.strictness.value}")

    def command(self, argv) -> list[str]:
        # -E and -s: the child ignores PYTHON* variables and the user site,
        # so the measured configuration does not depend on the caller's
        # environment; the package is found from the working directory.
        return [sys.executable, "-E", "-s", "-m", "latticepaths.cli", *argv]

    def warm_up(self) -> None:
        self.run(self.items[0])

    def run(self, argv):
        """(exit code, stdout) of one CLI process; tracks the peak RSS."""
        proc = subprocess.Popen(self.command(argv), cwd=SRC,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        # stderr carries at most a warning or a short traceback, well below
        # the pipe buffer, so reading stdout first cannot deadlock.
        out = proc.stdout.read()
        proc.stdout.close()
        proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kib = max(self.peak_child_kib, usage.ru_maxrss)
        return (proc.returncode, out.decode())

    def run_traced(self, argv):
        """(exit code, stdout) of ``cli.main(argv)`` in this interpreter."""
        import latticepaths.cli as cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        return (code, out.getvalue())

    def succeeded(self, result) -> bool:
        return result[0] == 0

    def peak_rss_kib(self) -> int:
        return self.peak_child_kib

    def expected_failure(self, argv) -> bool:
        return argv == LARGE_ANSWER_ARGS

    def expected_value(self, argv) -> int:
        lp = self.lp
        if argv == LARGE_ANSWER_ARGS:
            return math.comb(18000, 6000) - 2 * math.comb(18000, 5999)
        opts = dict(arg[2:].split("=", 1) for arg in argv[1:-1])
        slope = opts["slope"]
        kind, k = ("inverse", int(slope[2:])) if "/" in slope else ("integer", int(slope))
        a, b = map(int, opts["from"].split(","))
        m, n = map(int, opts["to"].split(","))
        strictness = lp.Strictness(argv[-1][2:])
        return lp.dp_count(_unit_query(lp, a, b, m, n, kind, k, Fraction(opts["intercept"]), strictness))

    def check(self, results: dict) -> list[str]:
        errors = []
        with unlimited_int_digits():
            for argv, (code, out) in results.items():
                expected = f"{self.expected_value(argv)}\n"
                if code != 0 or out != expected:
                    errors.append(f"{' '.join(argv)}: exit {code}, stdout {out[:60]!r}, "
                                  f"expected {expected[:60]!r}")
        return errors


WORKLOADS = {w.name: w for w in (GridQueries, BigCounts, VerifySweeps, CliOneshot)}
