"""Host speed, sampled while the benchmark runs, to scale wall times.

The benchmark runs on a shared host whose speed swings by up to 2x within
a few seconds, for every process on it alike: a fixed pure-Python loop
then takes up to twice as long.  A `Sampler` times such a loop on a
background thread of the measured process every SAMPLE_EVERY_S seconds
(about 1% of one CPU).  The loop only does arithmetic on small integers.
A loop that also read a 4 MiB buffer tracked the swings within a process
a little better, but its speed shifted from one process to the next, and
so did every scaled time; sampling from another process tracked them
worse.  The loop takes as long in an idle process as beside the running
program, and it does not call the program, so a change to the program
moves scaled times as it moves wall times.

An interval measured meanwhile is scaled to reference seconds: its wall
time times the mean of REFERENCE_S / loop time over the samples taken
within MARGIN_S of it, i.e. the time it would have taken on a host where
the loop takes REFERENCE_S.  REFERENCE_S is about the 5th percentile of
the sampled loop times on a shared 2-vCPU Intel Xeon VM with CPython 3.11
(the median was 198 us), so there a reference second is about a wall
second when the host runs at full speed.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

REFERENCE_S = 150e-6
SAMPLE_EVERY_S = 0.02
MARGIN_S = 0.1


def _loop() -> int:
    total = 0
    for i in range(2000):
        total += i * i % 7
    return total


class Sampler:
    """Background samples of host speed; read them only after `stop`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.times: list[float] = []  # end of each sample, ascending
        self.factors: list[float] = []  # REFERENCE_S / loop time
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def start(self) -> Sampler:
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while True:
            start = self.clock()
            _loop()
            end = self.clock()
            self.times.append(end)
            self.factors.append(REFERENCE_S / (end - start))
            if self._stop.wait(SAMPLE_EVERY_S):
                return

    def factor(self, start: float, end: float) -> float:
        """Mean speed factor around [start, end], in clock units."""
        lo = bisect.bisect_left(self.times, start - MARGIN_S)
        hi = bisect.bisect_right(self.times, end + MARGIN_S)
        if lo == hi:  # no sample near the interval: take its neighbours
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        if lo == hi:
            raise RuntimeError("no host speed samples were taken")
        return statistics.fmean(self.factors[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the interval [start, end]."""
        return (end - start) * self.factor(start, end)
