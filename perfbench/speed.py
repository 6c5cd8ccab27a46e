"""Machine-speed calibration.

The benchmark shares its machine with other tenants, and the speed a
single thread gets swings by a third or more within seconds.  A fixed
piece of interpreter-bound work, independent of the program under test,
is timed between jobs, about once per ``EVERY_S`` of run time.  A job's
time divided by its speed factor (the median calibration time near the
job over the nominal ``NOMINAL_S``) is the time it would have taken on a
machine that runs the calibration in exactly ``NOMINAL_S``.  A slower
program still shows in full, because the calibration runs none of its
code.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

NOMINAL_S = 0.002   # the calibration's time at nominal speed
EVERY_S = 0.05      # one sample per this much run time
MAX_BURST = 20      # samples taken at once after a long job
WINDOW_S = 0.1      # samples this close to a job, or as close as the job
NEAREST = 3         # is long, set its factor; at least this many


def work():
    """Fraction arithmetic, tuple-keyed dict stores and int bit operations,
    the mix the library itself runs."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        table[(i, i & 7)] = acc.numerator & 0xFF
    x = 0
    for i in range(3000):
        x = (x * 31 + i) & 0xFFFFFFFF
        x ^= x >> 3
    return acc, x, len(table)


class Calibrator:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.times = []      # sample midpoints, increasing
        self.durations = []
        self._last = None

    def sample(self, count: int = 1):
        for _ in range(count):
            t0 = self.clock()
            work()
            t1 = self.clock()
            self.times.append((t0 + t1) / 2)
            self.durations.append(t1 - t0)
        self._last = self.clock()

    def catch_up(self):
        """Sample once per EVERY_S elapsed since the last sample."""
        if self._last is None:
            self.sample()
            return
        due = int((self.clock() - self._last) / EVERY_S)
        if due:
            self.sample(min(due, MAX_BURST))

    def factor(self, start: float, end: float) -> float:
        """Median of the samples near [start, end] over the nominal; above
        1 the machine ran slower than nominal."""
        margin = max(WINDOW_S, end - start)
        lo = bisect_left(self.times, start - margin)
        hi = bisect_right(self.times, end + margin)
        n = len(self.times)
        while hi - lo < NEAREST and (lo > 0 or hi < n):
            lo, hi = max(lo - 1, 0), min(hi + 1, n)
        return statistics.median(self.durations[lo:hi]) / NOMINAL_S

    def slowdown(self) -> float:
        """Median of all samples over the nominal."""
        return statistics.median(self.durations) / NOMINAL_S
