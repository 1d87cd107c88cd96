"""The machine's speed, sampled through a run, and timings scaled by it.

The host is shared: a fixed piece of Python runs up to 1.9 times slower
for tens of seconds at a time when a neighbour is busy, so a wall-clock
latency mostly measures the neighbours.  A fixed calibration loop, timed
between ops, tracks that drift; an op's time divided by the loop's time
around it does not.  On 2 cores with Python 3.11.7, the per-6-second
medians of five ``cli.main`` commands spread 44-66% (max - min over the
median) in wall time and 5-16% after scaling.

Every time metric is reported at the reference speed: the op's wall time
times ``REFERENCE_S`` over the loop's time when the op ran (``scale``), or
over its median time through the run for ops that are whole child
processes (``scale_by_run``).  The loop never touches treegamekit, so a
change to the program moves only the op's side.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left, bisect_right

EVERY_S = 0.25  # a sample is due this long after the previous one
REPEATS = 3  # a sample is the median of this many loop timings
REFERENCE_S = 0.004  # the loop's time at the reference speed


def _tree(d: int):
    return (_tree(d - 1), _tree(d - 2)) if d > 1 else ()


def _size(t) -> int:
    return 1 + sum(_size(c) for c in t)


def calibration_loop() -> int:
    """Calls, tuples, a dict, a sort, big-int and small-int arithmetic: the
    mix the program's commands spend their time in.  Its time tracks their
    slow-down better than any one of those parts alone."""
    sizes = {k: _size(_tree(15)) for k in range(3)}
    xs = sorted((i * 7919) % 1009 for i in range(3000))
    p = 1
    for i in range(1, 300):
        p = p * (i | 1) + i
    s = 0
    for i in range(20000):
        s += i * i % 7
    return sizes[0] + xs[-1] + p % 7 + s


class Speed:
    """Loop timings at the moments they were taken."""

    def __init__(self):
        self.at = array("d")  # perf_counter when each sample was taken
        self.loop_s = array("d")
        self.sample()

    def sample(self) -> None:
        xs = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            calibration_loop()
            xs.append(time.perf_counter() - start)
        self.at.append(start)
        self.loop_s.append(sorted(xs)[REPEATS // 2])

    def maybe(self) -> None:
        """Sample if one is due; called between ops."""
        if time.perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def scale(self, seconds: float, start: float) -> float:
        """``seconds`` of work that began at ``start`` (perf_counter), at the
        reference speed: scaled by the median loop time over the samples
        from the last one before the work to the first one after it."""
        lo = max(bisect_right(self.at, start) - 1, 0)
        hi = min(bisect_left(self.at, start + seconds) + 1, len(self.at))
        around = sorted(self.loop_s[lo:hi])
        mid = len(around) // 2
        loop = around[mid] if len(around) % 2 else (around[mid - 1] + around[mid]) / 2
        return seconds * REFERENCE_S / loop

    def scale_by_run(self, seconds: float, start: float) -> float:
        """``seconds`` at the reference speed, scaled by the median loop time
        over the whole run.  For work in another process that runs for
        seconds: samples taken at its two ends say little about the
        machine while it ran, and scaling by them added spread."""
        loop = sorted(self.loop_s)[len(self.loop_s) // 2]
        return seconds * REFERENCE_S / loop
