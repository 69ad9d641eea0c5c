"""Machine-speed sampling, so times from a shared machine can be compared.

On a shared 2-core machine the same pure-Python code runs at two speeds
about 1.5x apart, switching every fraction of a second to several seconds,
as other tenants load the cores.  Raw times from 20-second runs then spread
by 15-35% between runs.  While a pass runs, a SIGALRM timer runs a fixed
pure-Python loop every PROBE_INTERVAL_S; the ratio of PROBE_REFERENCE_S to
the loop's time is the machine's speed at that moment.  A time measured
between two instants is reported at reference speed: the busy time times
the mean speed sampled over the interval.  The loop's own time is taken
out of the busy time of the code it interrupted.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PROBE_INTERVAL_S = 0.005
# About the probe loop's time, run inside a pass, on a quiet core of a 2-core Xeon,
# Python 3.11; it only fixes the unit, so it stays constant across commits.
PROBE_REFERENCE_S = 120e-6


def probe_loop() -> int:
    values = []
    total = 0
    for i in range(600):
        values.append((i, i * 3))
        total += values[i >> 1][1] - values[i - 1][0]
    return total


class SpeedProbe:
    """Samples machine speed while active; scales busy time to reference speed."""

    def __init__(self):
        self.times: list[float] = []
        self.speeds: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        probe_loop()
        elapsed = time.perf_counter() - start
        self.times.append(start)
        self.speeds.append(PROBE_REFERENCE_S / elapsed)
        self.spent += elapsed

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start: float, end: float) -> float:
        """Mean sampled speed from one probe interval before `start` to one after `end`."""
        lo = bisect.bisect_left(self.times, start - PROBE_INTERVAL_S)
        hi = bisect.bisect_right(self.times, end + PROBE_INTERVAL_S)
        near = self.speeds[lo:hi] or self.speeds[max(lo - 1, 0):hi + 1] or [1.0]
        return statistics.fmean(near)
