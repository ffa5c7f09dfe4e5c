"""Host speed, sampled while a workload runs.

The benchmark runs on a shared host whose speed drifts by up to about 2x
within seconds, in process CPU time as much as in wall time, so an
operation's wall time says as much about the host as about compctrl.  A
``Sampler`` runs a fixed reference kernel from a ``SIGALRM`` handler every
``INTERVAL_S`` seconds of wall time and records how long each run of the
kernel took.  The kernel is the same kind of work as compctrl's inner loops
(small dense numpy products and solves driven from Python), so a slow spell
stretches it about as much as it stretches the workload.

``cost(start, end)`` turns one operation's wall-time interval into reference
units: the number of kernels the host could have run in that interval at the
speed the samples show, with the time the handler itself took taken out.
That number depends on compctrl, not on the spell the operation fell in.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

#: wall time between two samples
INTERVAL_S = 0.05
#: loop passes of one kernel run (about 1.5 ms on a 2-core cloud host)
KERNEL_PASSES = 40

_RNG = np.random.default_rng(20210728)
_A = _RNG.standard_normal((8, 8)) / 8.0
_Q = np.eye(8)
_R = np.eye(4) + 0.1 * np.ones((4, 4))
_B = _RNG.standard_normal((8, 4))


def kernel() -> float:
    """One reference kernel: a short Riccati-like recursion on 8x8 matrices."""
    p = _Q
    for _ in range(KERNEL_PASSES):
        bp = _B.T @ p
        gain = np.linalg.solve(_R + bp @ _B, bp @ _A)
        p = _Q + _A.T @ p @ _A - (bp @ _A).T @ gain
        p = 0.5 * (p + p.T)
    return float(p[0, 0])


def rate(n: int) -> float:
    """Mean kernels per second over n kernel runs, measured now, after one
    untimed run that loads what the kernel needs."""
    kernel()
    total = 0.0
    for _ in range(n):
        t0 = time.perf_counter()
        kernel()
        total += 1.0 / (time.perf_counter() - t0)
    return total / n


class Sampler:
    """Runs ``kernel`` every ``INTERVAL_S`` of wall time between ``start()``
    and ``stop()``; keeps (start, duration) of every run."""

    def __init__(self):
        self.starts: list = []
        self.durations: list = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def start(self) -> None:
        """Takes the first sample at once, so that every interval after this
        call has a sample at or before it."""
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _inside(self, start: float, end: float) -> list:
        lo = bisect.bisect_left(self.starts, start)
        return self.durations[lo:bisect.bisect_left(self.starts, end)]

    def net(self, start: float, end: float) -> float:
        """Wall time of [start, end] less the samples taken inside it."""
        return end - start - sum(self._inside(start, end))

    def cost(self, start: float, end: float) -> float:
        """Reference kernels of [start, end]: its net time times the mean
        kernel rate of the samples inside it (or of the nearest one when it
        holds none)."""
        inside = self._inside(start, end)
        if not inside:
            near = bisect.bisect_left(self.starts, start)
            inside = [self.durations[min(max(near - 1, 0), len(self.durations) - 1)]]
        return self.net(start, end) * sum(1.0 / d for d in inside) / len(inside)
