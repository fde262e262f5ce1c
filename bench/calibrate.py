"""Machine-speed calibration for a shared host.

On a shared machine the same pure-Python work can run 1.4 to 1.7 times
slower for stretches of several seconds to a minute, whatever the program
does.  A background thread runs a fixed reference computation every
``PERIOD`` seconds and records its thread CPU time; the ratio of the nominal
``REFERENCE_S`` to that time is the machine's speed at that moment.  An
interval measured on the main thread is converted to reference seconds by
multiplying it with the mean speed sampled during it: the time the interval
would have taken on the machine at which the reference takes
``REFERENCE_S``.

The reference is exact rational arithmetic with dictionary updates, the
kind of work hatlab does.  Each sample holds the interpreter lock for about
2 ms every 0.2 s, a cost of about one percent that is the same for every
commit.
"""

from __future__ import annotations

import bisect
import threading
import time
from fractions import Fraction

PERIOD = 0.2
# an interval is converted with the speed samples within WINDOW of it; the
# machine's phases last seconds, and five samples average out their jitter
WINDOW = 0.5
# CPU time of one reference() on the 2-core machine the benchmark was
# written on, in its faster phases
REFERENCE_S = 0.0021


def reference() -> Fraction:
    total, counts = Fraction(0), {}
    for i in range(1, 1000):
        total += Fraction(1, i % 97 + 1)
        counts[i % 50] = counts.get(i % 50, 0) + 1
    return total


class Speedometer:
    """Samples the machine's speed in a background thread while in use."""

    def __init__(self):
        self.times: list[float] = []
        self.speeds: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _sample(self):
        while True:
            wall, cpu = time.perf_counter(), time.thread_time()
            reference()
            cpu = time.thread_time() - cpu
            self.times.append((wall + time.perf_counter()) / 2)
            self.speeds.append(REFERENCE_S / cpu)
            if self._stop.wait(PERIOD):
                return

    def reference_seconds(self, start: float, end: float) -> float:
        """The interval [start, end] of perf_counter time in reference
        seconds: its length times the mean speed sampled within WINDOW of
        it, or at the nearest sample when none is."""
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        if lo == hi:
            near = min(max(lo, 0), len(self.times) - 1)
            if lo > 0 and (lo == len(self.times)
                           or start - self.times[lo - 1] < self.times[lo] - end):
                near = lo - 1
            lo, hi = near, near + 1
        speeds = self.speeds[lo:hi]
        return (end - start) * sum(speeds) / len(speeds)
