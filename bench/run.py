"""Benchmark of latticepaths: four closed-loop workloads and a traced run.

Run from the repository root:

    python3 bench/run.py --workload grid-queries --seed 1 --seconds 30 --trace 0

Workloads: grid-queries, big-counts, verify-sweeps, cli-oneshot (see
bench/README.md).  Each is one client in one process with no threads; the
CLI workload runs one child process at a time.  A run times whole rounds of
ops until ``--seconds`` have passed, then checks every distinct op's result
against a route that does not use ``formulas``.

``--trace 0`` prints the end-to-end metrics, their times scaled to a
nominal machine speed by a calibration run between rounds (see
calibration.py), and the same metrics unscaled on standard error.
``--trace 1`` runs a fixed number of rounds, each once plain and once with
every public function of the package wrapped in a span, and prints the
per-layer metrics; the spans are written to ``.bench_out/``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from calibration import NOMINAL_S, calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 5
WORKLOAD_NAMES = ("grid-queries", "big-counts", "verify-sweeps", "cli-oneshot")


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load():
    """Import the package from this checkout's ``src``, and the workloads."""
    if not (SRC / "latticepaths" / "__init__.py").is_file():
        _fail(f"no latticepaths package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import latticepaths
    import workloads

    if Path(latticepaths.__file__).resolve().parent != SRC / "latticepaths":
        _fail(f"imported latticepaths from {latticepaths.__file__}, not from {SRC}")
    return latticepaths, workloads


def tail_rank(count: int) -> int:
    """Index, in sorted latencies, of op_tail_ms: the 99th percentile, or in
    runs of fewer than 1,000 ops the op with exactly ten slower ones."""
    if count >= 1000:
        return round(0.99 * count) - 1
    return max(0, count - 11)


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: one workload's set-up, then "ready" on stdout."""
    lp, workloads = load()
    workloads.WORKLOADS[workload](lp, seed).warm_up()
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median seconds from spawning a fresh interpreter to the end of its
    import, input generation and warm-up, over SETUP_SAMPLES processes:
    (scaled to the nominal machine speed, raw).  The scale is NOMINAL_S over
    the median of a calibration before each probe and one after the last."""
    samples, calibrations = [], []
    for _ in range(SETUP_SAMPLES):
        calibrations.append(calibrate())
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-s", str(BENCH / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            _fail(f"set-up probe for {workload} exited with {proc.returncode}")
        samples.append(elapsed)
    calibrations.append(calibrate())
    raw = statistics.median(samples)
    return raw * NOMINAL_S / statistics.median(calibrations), raw


class Tally:
    """The ops of a run: latencies, failures, the result of each distinct
    op, and anything unexpected (a failure not declared by the workload,
    or a result that changed between repeats of one op)."""

    def __init__(self, w):
        self.w = w
        # A flat array keeps the memory of a long run small and nearly
        # independent of its op count, so peak_rss_mb does not track speed.
        self.latencies = array("d")
        self.failed = 0
        self.unexpected: list[str] = []
        self.results: dict = {}

    def record(self, item, ok: bool, result, seconds: float) -> None:
        self.latencies.append(seconds)
        if not ok:
            self.failed += 1
            if not self.w.expected_failure(item):
                self.unexpected.append(f"{item!r} failed: {result!r}"[:300])
            return
        if self.results.setdefault(item, result) != result:
            self.unexpected.append(f"{item!r}: result changed between repeats"[:300])

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def errors(self) -> list[str]:
        return self.unexpected + self.w.check(self.results)


def run_round(w, op, tally: Tally) -> float:
    """Run ``op`` once over ``w.items``; return the wall seconds taken."""
    clock = time.perf_counter
    begin = clock()
    for item in w.items:
        start = clock()
        try:
            result = op(item)
        except Exception as exc:  # a failing op is counted, not fatal
            tally.record(item, False, exc, clock() - start)
            continue
        elapsed = clock() - start
        tally.record(item, w.succeeded(result), result, elapsed)
    return clock() - begin


def timings(latencies, succeeded: int) -> dict:
    lat = sorted(latencies)
    return {
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (lat[tail_rank(len(lat))] * 1e3, "ms"),
        "ops_per_s": (succeeded / sum(lat), "1/s"),
    }


def round_factors(calibrations: list[float]) -> list[float]:
    """The scale factor of each round: NOMINAL_S over the mean of the
    calibrations just before and just after it.  The machine's speed
    changes within seconds, so wider windows followed it worse."""
    return [2 * NOMINAL_S / (before + after)
            for before, after in zip(calibrations, calibrations[1:])]


def end_to_end(w, setup: tuple[float, float], seconds: float):
    """The end-to-end metrics, with every time scaled to the nominal machine
    speed, and the same metrics unscaled."""
    w.warm_up()
    tally = Tally(w)
    # A calibration before the first round and after every round.
    calibrations = [calibrate()]
    ends = []
    begin = time.perf_counter()
    while True:
        run_round(w, w.run, tally)
        ends.append(tally.attempted)
        calibrations.append(calibrate())
        if time.perf_counter() - begin >= seconds:
            break
    peak = (w.peak_rss_kib() / 1024, "MB")
    # Built only now, so that it does not count in the peak resident size.
    scaled = array("d")
    first = 0
    for end, factor in zip(ends, round_factors(calibrations)):
        scaled.extend(t * factor for t in tally.latencies[first:end])
        first = end
    succeeded = tally.attempted - tally.failed
    metrics = {"setup_s": (setup[0], "s"), **timings(scaled, succeeded), "peak_rss_mb": peak}
    raw = {"setup_s": (setup[1], "s"), **timings(tally.latencies, succeeded), "peak_rss_mb": peak}
    return tally, metrics, raw


def cli_probe(lp, workloads, seed: int) -> dict:
    """cli.import_ms and cli.modules_loaded in fresh interpreters, and
    cli.main_ms in this one over the ordinary invocations of the
    cli-oneshot round for this seed."""
    code = ("import sys, time\n"
            "t = time.perf_counter()\n"
            "import latticepaths.cli\n"
            "t = time.perf_counter() - t\n"
            "n = sum(1 for m in sys.modules if m == 'latticepaths' or m.startswith('latticepaths.'))\n"
            "print(t, n)\n")
    times, loaded = [], 0
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-E", "-s", "-c", code], cwd=SRC, check=True,
                             stdin=subprocess.DEVNULL, capture_output=True, text=True).stdout
        seconds, modules = out.split()
        times.append(float(seconds))
        loaded = max(loaded, int(modules))
    cli = workloads.CliOneshot(lp, seed)
    mains = []
    for argv in cli.items:
        if not cli.expected_failure(argv):
            start = time.perf_counter()
            cli.run_traced(argv)
            mains.append(time.perf_counter() - start)
    return {
        "cli.import_ms": (statistics.median(times) * 1e3, "ms"),
        "cli.modules_loaded": (loaded, "count"),
        "cli.main_ms": (statistics.median(mains) * 1e3, "ms"),
    }


def traced(lp, workloads, w, seed: int):
    import tracing

    w.warm_up()
    tracer = tracing.Tracer(lp)
    tally = Tally(w)
    plain_s = traced_s = 0.0
    # Plain and traced rounds alternate, so that drift in the machine's
    # speed falls on both sides of the overhead ratio alike.
    for _ in range(w.trace_rounds):
        plain_s += run_round(w, w.run_traced, Tally(w))
        tracer.install()
        try:
            traced_s += run_round(w, tracer.root(w.run_traced), tally)
        finally:
            tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_pct"] = ((traced_s / plain_s - 1) * 100, "%")
    metrics.update(cli_probe(lp, workloads, seed))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{w.name}-seed{seed}.tsv")
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # Measure the default configuration whatever the caller's environment;
    # child processes inherit this.
    os.environ.pop("LATTICEPATHS_THREADS", None)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    lp, workloads = load()
    make = workloads.WORKLOADS[args.workload]
    if args.trace:
        tally, metrics = traced(lp, workloads, make(lp, args.seed), args.seed)
    else:
        setup = measure_setup(args.workload, args.seed)
        tally, metrics, raw = end_to_end(make(lp, args.seed), setup, args.seconds)
        print("unscaled:", json.dumps({name: value for name, (value, _) in raw.items()}),
              file=sys.stderr)
    errors = tally.errors()
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
