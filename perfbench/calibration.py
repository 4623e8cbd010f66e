"""Machine-speed reference for the reported times.

The machines this benchmark runs on share their cores with other
tenants, and their speed drifts in phases of seconds to minutes: the
same job list has run 1.6 times slower in one run than in the next.
Every job time follows that drift closely, so the benchmark times a
fixed reference kernel between jobs (outside the timer) and scales each
measured time by NOMINAL_S / reference time.  Reported times are then
seconds on a machine where the reference kernel takes NOMINAL_S; the
raw wall times are printed beside them.

The kernel is the benchmark's own exact elimination over all principal
minors of a fixed 8x8 integer matrix: pure-Python integer arithmetic
and list handling, like the package's own hot loops.  Nothing in it
depends on principal_minors, so a change to the package cannot move it.
"""

from __future__ import annotations

import statistics
import time

from . import exact

NOMINAL_S = 0.004
_REFERENCE_MATRIX = [
    [3, -2, 5, 1, -7, 4, 2, -1],
    [-2, -6, 3, 8, 1, -5, 7, 2],
    [5, 3, 4, -3, 6, 2, -8, 5],
    [1, 8, -3, -1, 2, 9, 4, -6],
    [-7, 1, 6, 2, 7, -4, 3, 1],
    [4, -5, 2, 9, -4, -2, -1, 3],
    [2, 7, -8, 4, 3, -1, 5, -9],
    [-1, 2, 5, -6, 1, 3, -9, 8],
]


def reference_seconds(repeats: int = 3) -> float:
    """Median wall time of the reference kernel over a few repeats."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        exact.all_minors(_REFERENCE_MATRIX)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(reference_s: float) -> float:
    """Factor that turns a time measured now into nominal seconds."""
    return NOMINAL_S / reference_s
