"""Spans around every public function of the package, from outside it.

``Tracer.install`` replaces each public function of each ``latticepaths``
module, in every package namespace that holds it (``formulas.binomial`` and
``exactmath.binomial`` are the same object, so both names are rebound), by
a wrapper that records one span: name, start, end and parent.  Constructing
a ``LatticePath`` is recorded as the span ``model.LatticePath``.  Spans are
kept in memory in flat arrays and written out by ``write``.

A span's self time is its duration minus the durations of its direct
children.  ``layer_metrics`` folds the spans and the work counters into the
per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict

MODULES = ("exactmath", "model", "formulas", "oracle", "bijections", "identities", "verify", "cli")

EVALUATORS = (
    "count_weak", "count_strict", "count_weak_inv", "count_strict_inv",
    "koroljuk_literal", "koroljuk_reduced", "bohm", "niederhausen",
)
# Evaluators whose direct binomial calls make up formulas.binomials_per_call.
SUM_EVALUATORS = EVALUATORS + ("base_case", "ballot", "fuss_catalan")

SWEEPS = (
    "formula_oracle_sweep", "recurrence_shift_sweep", "intercept_normalization_sweep",
    "koroljuk_equality_sweep", "complement_sweep", "hagen_rothe_sweep",
    "upper_negation_sweep", "cross_formula_sweep", "run_bijections",
)

ROOT_SPAN = "bench.op"


def _rectangle_cells(args, result) -> int:
    q = args[0]
    if q.a > q.m or q.b > q.n:
        return 0
    return (q.m - q.a + 1) * (q.n - q.b + 1)


def _stepset_paths(args, result) -> int:
    if isinstance(result, int):
        return result
    if isinstance(result, tuple):  # KoroljukSplit
        return sum(result)
    return len(result)


# span name -> {counter suffix: function(args, result) -> amount}
WORK_COUNTERS = {
    "exactmath.binomial": {
        "nonzero": lambda args, result: 1 if result else 0,
        "result_bits": lambda args, result: result.bit_length(),
    },
    "oracle.dp_count": {"cells": _rectangle_cells},
    "oracle.enumerate_paths": {"paths": lambda args, result: len(result)},
    "oracle.count_stepset": {"paths": _stepset_paths},
    "oracle.enumerate_stepset": {"paths": _stepset_paths},
    **{f"verify.{name}": {"checks": lambda args, result: result.checks} for name in SWEEPS},
}


class Tracer:
    """Spans and work counters for one traced run of ``package``."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.work: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn):
        """``fn`` recording one span called ``name`` per call."""
        span_id = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter_ns
        counters = [(f"{name}.{suffix}", count) for suffix, count in WORK_COUNTERS.get(name, {}).items()]
        work = self.work

        def traced(*args, **kwargs):
            index = len(names)
            names.append(span_id)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[index] = start
                ends[index] = end
            for key, count in counters:
                work[key] += count(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        modules = {name: importlib.import_module(f"{self.package.__name__}.{name}") for name in MODULES}
        wrappers = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for namespace in (self.package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._restore.append((namespace, attr, obj))
                    setattr(namespace, attr, wrappers[id(obj)])
        path_cls = modules["model"].LatticePath
        self._restore.append((path_cls, "__init__", path_cls.__init__))
        path_cls.__init__ = self.wrap("model.LatticePath", path_cls.__init__)

    def uninstall(self) -> None:
        while self._restore:
            namespace, attr, original = self._restore.pop()
            setattr(namespace, attr, original)

    def root(self, fn):
        """``fn`` wrapped in the root span of one benchmark op."""
        return self.wrap(ROOT_SPAN, fn)

    # -- analysis -------------------------------------------------------

    def fold(self):
        """Per span name: calls, total ns and self ns; plus, per name, the
        calls of each direct-child name (for binomials per evaluator call)."""
        count = len(self.span_name)
        duration = [self.span_end[i] - self.span_start[i] for i in range(count)]
        children_ns = [0] * count
        child_calls: dict[tuple[int, int], int] = defaultdict(int)
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                children_ns[parent] += duration[i]
                child_calls[(self.span_name[parent], self.span_name[i])] += 1
        calls: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for i in range(count):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            total_ns[name] += duration[i]
            self_ns[name] += duration[i] - children_ns[i]
        nested = {(self.names[p], self.names[c]): n for (p, c), n in child_calls.items()}
        return calls, total_ns, self_ns, nested

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, as name -> (value, unit)."""
        calls, total_ns, self_ns, nested = self.fold()
        work = self.work

        def ms(ns: int) -> float:
            return ns / 1e6

        def layer_self_ms(prefix: str, names=None) -> float:
            return ms(sum(v for k, v in self_ns.items()
                          if k.startswith(prefix) and (names is None or k in names)))

        out: dict[str, tuple[float, str]] = {}
        b_calls = calls["exactmath.binomial"]
        out["exactmath.binomial.calls"] = (b_calls, "count")
        out["exactmath.binomial.nonzero_ratio"] = (
            work["exactmath.binomial.nonzero"] / b_calls if b_calls else 0.0, "ratio")
        out["exactmath.binomial.result_bits"] = (work["exactmath.binomial.result_bits"], "bits")
        out["exactmath.binomial.self_ms"] = (ms(self_ns["exactmath.binomial"]), "ms")
        out["exactmath.generalized_binomial.calls"] = (calls["exactmath.generalized_binomial"], "count")
        out["exactmath.generalized_binomial.self_ms"] = (ms(self_ns["exactmath.generalized_binomial"]), "ms")
        for fn in ("validate_query", "normalize_query"):
            out[f"model.{fn}.calls"] = (calls[f"model.{fn}"], "count")
            out[f"model.{fn}.self_ms"] = (ms(self_ns[f"model.{fn}"]), "ms")
        out["model.LatticePath.built"] = (calls["model.LatticePath"], "count")
        out["model.LatticePath.self_ms"] = (ms(self_ns["model.LatticePath"]), "ms")
        for fn in ("count",) + EVALUATORS:
            out[f"formulas.{fn}.calls"] = (calls[f"formulas.{fn}"], "count")
            out[f"formulas.{fn}.self_ms"] = (ms(self_ns[f"formulas.{fn}"]), "ms")
        evaluator_calls = sum(calls[f"formulas.{fn}"] for fn in SUM_EVALUATORS)
        evaluator_binomials = sum(nested.get((f"formulas.{fn}", "exactmath.binomial"), 0)
                                  for fn in SUM_EVALUATORS)
        out["formulas.binomials_per_call"] = (
            evaluator_binomials / evaluator_calls if evaluator_calls else 0.0, "1/call")
        out["oracle.dp_count.calls"] = (calls["oracle.dp_count"], "count")
        out["oracle.dp_count.cells"] = (work["oracle.dp_count.cells"], "count")
        out["oracle.dp_count.self_ms"] = (ms(self_ns["oracle.dp_count"]), "ms")
        out["oracle.enumerate_paths.calls"] = (calls["oracle.enumerate_paths"], "count")
        out["oracle.enumerate_paths.paths"] = (work["oracle.enumerate_paths.paths"], "count")
        out["oracle.enumerate_paths.self_ms"] = (ms(self_ns["oracle.enumerate_paths"]), "ms")
        stepset = ("oracle.count_stepset", "oracle.enumerate_stepset")
        out["oracle.stepset.calls"] = (sum(calls[k] for k in stepset), "count")
        out["oracle.stepset.paths"] = (sum(work[f"{k}.paths"] for k in stepset), "count")
        out["oracle.stepset.self_ms"] = (ms(sum(self_ns[k] for k in stepset)), "ms")
        out["bijections.transform.calls"] = (
            sum(v for k, v in calls.items() if k.startswith("bijections.")), "count")
        out["bijections.transform.self_ms"] = (layer_self_ms("bijections."), "ms")
        out["identities.check.calls"] = (
            sum(v for k, v in calls.items() if k.startswith("identities.") and k.endswith("_check")),
            "count")
        out["identities.check.self_ms"] = (layer_self_ms("identities."), "ms")
        for sweep in SWEEPS:
            out[f"verify.{sweep}.checks"] = (work[f"verify.{sweep}.checks"], "count")
            out[f"verify.{sweep}.s"] = (total_ns[f"verify.{sweep}"] / 1e9, "s")
        out["verify.self_ms"] = (layer_self_ms("verify."), "ms")
        out["trace.spans"] = (len(self.span_name), "count")
        return out

    def write(self, path) -> None:
        """All spans as tab-separated lines: id, name, parent id, start ns, end ns."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tparent\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.span_name)):
                handle.write(f"{i}\t{names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                             f"{self.span_start[i]}\t{self.span_end[i]}\n")
