"""Machine-speed reference for a shared, noisy host.

On a shared 2-vCPU virtual machine at 2.1 GHz, the same pure-Python
loop ran anywhere from 1.0x to 1.6x its fastest time, in stretches of
seconds to minutes, because other tenants share the physical cores. That
swing moved whole runs by more than any useful regression bound.

So while the client works, a timer interrupts it every ``PERIOD_S`` and
times a short fixed loop. A request's time is then scaled by
``REF_S / median(loop times during that request)``: it reads as the time
the request would take on a host where the loop takes ``REF_S``. The loop
is interpreter-bound, like most of mrcwpt's hot paths. Raw times are
printed next to the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.05
# short requests hold one or two samples; the window gives them about 20
WINDOW_S = 0.5
# the loop's time on the reference host: a middle state of that machine
REF_S = 2.5e-4
_LOOP = 3000


def _loop() -> int:
    s = 0
    for i in range(_LOOP):
        s += i * i % 7
    return s


class SpeedProbe:
    """Timer-driven loop samples: (start time, loop seconds)."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []

    def sample(self, *_):
        t0 = perf_counter()
        _loop()
        self.starts.append(t0)
        self.times.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def loop_time(self, t0: float, t1: float) -> float:
        """Median loop time over [t0, t1] widened by WINDOW_S on each side."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if hi > lo:
            return statistics.median(self.times[lo:hi])
        return self.times[max(hi - 1, 0)]

    def scale(self, t0: float, t1: float) -> float:
        """(t1 - t0) at reference speed."""
        return (t1 - t0) * REF_S / self.loop_time(t0, t1)
