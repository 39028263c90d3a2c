"""A CPU-speed probe sampled while the workload runs.

The benchmark's host shares its cores with other tenants, and a run's
speed drifts with their load by 10-25 % over minutes, independently on
each core.  The probe times a fixed kernel every ``INTERVAL`` seconds from
a SIGALRM handler, on the same core and in the same time window as the
workload.  Timings scale by ``REFERENCE_KERNEL_S`` / (median kernel time
while they ran), which cancels most of that drift: work on a slowed core
reads as it would at reference speed.  An op long enough for
``MIN_SAMPLES`` samples uses its own; a shorter one uses the
``MIN_SAMPLES`` samples around it.  The probe's own time is taken out of
every op timing through ``clock``.  The kernel runs twice per tick and
only the second, cache-warm run counts, so the workload's cache footprint
does not leak into the factor.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

__all__ = ["MIN_SAMPLES", "REFERENCE_KERNEL_S", "SpeedProbe"]

INTERVAL = 0.05
REFERENCE_KERNEL_S = 0.0008   # the kernel's typical time on a 2-core Xeon host
MIN_SAMPLES = 20

_DATA = np.arange(4096, dtype=np.int64)


def _kernel() -> int:
    s = 0
    for i in range(3000):
        s += i * i % 7
    b = _DATA
    for _ in range(20):
        b = (b * 3 + 1) % 6561
    return s + int(b[0])


class SpeedProbe:
    """Context manager sampling the kernel's time while it is active."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds the probe took from the workload
        self._busy = False

    def clock(self) -> float:
        """perf_counter without the time spent in the probe."""
        spent = self.spent
        return time.perf_counter() - spent

    def _sample(self) -> None:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        _kernel()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.spent += t2 - t0

    def _tick(self, signum, frame) -> None:
        if not self._busy:  # a tick arriving inside a tick is dropped
            self._busy = True
            try:
                self._sample()
            finally:
                self._busy = False

    def __enter__(self) -> SpeedProbe:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, lo: int = 0, hi: int | None = None) -> float:
        """REFERENCE_KERNEL_S / median kernel time over samples[lo:hi].
        A range with fewer than MIN_SAMPLES samples uses all samples, and
        a run too short for MIN_SAMPLES ticks takes the missing ones now."""
        window = self.samples[lo:hi]
        if len(window) < MIN_SAMPLES:
            while len(self.samples) < MIN_SAMPLES:
                self._sample()
            window = self.samples
        return REFERENCE_KERNEL_S / statistics.median(window)
