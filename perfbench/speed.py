"""Calibration against the speed of the CPU the benchmark runs on.

On a shared host the CPU speed seen by one process swings by +-30 % over
seconds to minutes (on a 2-vCPU x86 host, a fixed pure-Python loop took
3.7-6.4 ms in the 2 s windows of one 80 s run), which is more than the
regressions the benchmark must catch.  Every timing is therefore taken
next to a short, fixed calibration loop with the library's instruction mix
(small-integer tuple arithmetic, set lookups), on a single pinned CPU, and
scaled by ``NOMINAL_S / calibration time``: the result is the time the
operation takes when the calibration loop takes NOMINAL_S.  A change to
torfan moves these scaled times as it moves wall time; a change of machine
speed does not.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

# Time of one calibration pass at the typical speed of a 2-vCPU x86 host.
NOMINAL_S = 0.003
_N = 4000


def _work() -> int:
    seen = set()
    acc = 0
    for i in range(_N):
        a = (i % 7, i % 11, i % 13)
        b = (i % 5 + 1, i % 3, 2)
        c = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
        if c not in seen:
            seen.add(c)
        acc += c[0] * a[0] + c[1] * a[1] + c[2] * a[2]
    return acc + len(seen)


def calibration_s() -> float:
    """Seconds for one pass of the calibration loop, now."""
    start = perf_counter()
    _work()
    return perf_counter() - start


def scale(seconds: float, calibrations: list[float]) -> float:
    """Wall seconds expressed at nominal speed, from nearby calibrations."""
    return seconds * NOMINAL_S / statistics.median(calibrations)


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, where calibration runs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
