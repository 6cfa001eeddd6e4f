"""The machine's speed, measured with fixed work that does not use latticepaths.

This host's speed drifts by up to ±25% over seconds to minutes, and the
drift is shared by every pure-Python workload (see README.md).  The timed
phase therefore runs ``calibrate()`` between rounds, and ``run.py`` scales
each op's time by ``NOMINAL_S`` over the calibration time around it: the
timings it reports are those of a machine on which the calibration work
takes ``NOMINAL_S``.  A change to the library moves them as it moves raw
times; a change in the machine's speed moves them far less.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The kernel's usual time on the 2-vCPU machine the reference figures come
# from.  Fixed, so that scaled timings compare across runs and commits.
NOMINAL_S = 0.005


def kernel() -> tuple:
    """Interpreter-bound work of the kinds the workloads do: a dictionary
    walk over a grid with tuple keys, rational sums and big-integer
    products."""
    ways = {(0, 0): 1}
    for x in range(72):
        for y in range(72):
            if x or y:
                ways[x, y] = ways.get((x - 1, y), 0) + ways.get((x, y - 1), 0)
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(i, i + 1)
    product = 1
    for i in range(1, 2000):
        product *= i
    return ways[71, 71], total, product.bit_length()


def calibrate() -> float:
    """Seconds that one run of the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
