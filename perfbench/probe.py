"""Host speed probe: scales measured seconds to a fixed reference speed.

On a shared host the same single-threaded code runs up to about twice
as slow for stretches of tens of seconds, and CPU time moves with wall
time.  A timer signal therefore interrupts the process every INTERVAL
seconds of wall time and times a small fixed interpreter kernel.  The
kernel's speed relative to REFERENCE is the host's speed at that
moment; integrating it over an interval gives the seconds that interval
would have taken at reference speed.  Probe time itself is subtracted.
The kernel does not call the library, so no change to the program can
change the probe.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

INTERVAL = 0.025
# kernel seconds at reference speed (about its fast-mode time on a
# 2-vCPU cloud VM); scaled seconds are seconds at that speed
REFERENCE = 2.4e-4
# probes this far outside an interval still count for its speed
MARGIN = 0.1


def kernel() -> Fraction:
    x = Fraction(0)
    for i in range(1, 60):
        x += Fraction(i, i + 7)
    d: dict[int, int] = {}
    for i in range(120):
        d[i & 15] = d.get(i & 15, 0) + i
    return x


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.speeds: list[float] = []
        self.probe_total = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        entered = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # a collection here would walk the program's heap
        kernel()  # warm: time the host, not the caches the program left
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.speeds.append(REFERENCE / took)
        self.probe_total += time.perf_counter() - entered

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> tuple[float, float]:
        """A reading to pass to scaled(): (wall time, probe time so far)."""
        return time.perf_counter(), self.probe_total

    def work_time(self) -> float:
        """A clock that stands still while the probe runs."""
        return time.perf_counter() - self.probe_total

    def speed(self, begin: tuple[float, float], end: tuple[float, float]) -> float:
        """Mean host speed, relative to reference, over two readings."""
        lo = bisect.bisect_left(self.starts, begin[0] - MARGIN)
        hi = bisect.bisect_right(self.starts, end[0] + MARGIN)
        speeds = self.speeds[lo:hi]
        if not speeds:
            raise RuntimeError("no speed probe near the interval")
        return sum(speeds) / len(speeds)

    @staticmethod
    def work(begin: tuple[float, float], end: tuple[float, float]) -> float:
        """Seconds between two readings, less probe time."""
        return (end[0] - begin[0]) - (end[1] - begin[1])

    def scaled(self, begin: tuple[float, float], end: tuple[float, float]) -> float:
        """Seconds between two readings, less probe time, at reference speed."""
        return self.work(begin, end) * self.speed(begin, end)
