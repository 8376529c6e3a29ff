"""Host-speed gauge: a fixed kernel timed at short intervals during a run.

The CPU speed one process gets on a shared host moves by up to a factor of
two within seconds, and every operation running at that moment moves with
it.  The gauge samples that speed: a SIGALRM timer runs `kernel()`, a fixed
piece of pure-Python work (a sparse product of two polynomials with
`Fraction` coefficients in tuple-keyed dicts, the same kind of work as
`ring.GradedClass.__mul__`), every `INTERVAL_S` seconds, in the same
process and thread as the operations.  The kernel's time is subtracted from
any operation it interrupted.

The gauge imports nothing that `evolute.cli` does not import itself, so a
set-up probe (probe.py) can run it while the package is imported.

`scale(start, end)` is the mean of REFERENCE_S / kernel time over the
samples taken during [start - WINDOW_S, end + WINDOW_S].  An operation's
time times its scale is its time at the reference speed: the speed at
which the kernel takes REFERENCE_S.  The program never runs the kernel, so
a change to the program moves operation times but not the scale.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.1
WINDOW_S = 0.5
# kernel time at the reference speed: about its median on a 2-CPU Intel
# Xeon host, Python 3.11
REFERENCE_S = 0.0017

_A = {(i % 7, i % 5, i % 3): Fraction(i + 1, i % 6 + 1) for i in range(20)}
_B = {(i % 4, i % 6, i % 5): Fraction(2 * i - 7, i % 4 + 1) for i in range(20)}


def kernel() -> dict:
    out: dict = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[key] = out.get(key, 0) + ca * cb
    return out


def kernel_seconds() -> float:
    """One timed kernel run, with the garbage collector held off, so that a
    collection of the program's heap is not charged to the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Gauge:
    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[tuple[float, float]] = []  # (midpoint, kernel seconds)
        self.spent = 0.0  # total time inside the handler
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        entered = time.perf_counter()
        seconds = kernel_seconds()
        self.samples.append((entered + seconds / 2, seconds))
        self.spent += time.perf_counter() - entered
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        ratios = [REFERENCE_S / k for t, k in self.samples
                  if start - WINDOW_S <= t <= end + WINDOW_S]
        if not ratios:  # no sample near enough: fall back to the whole run
            ratios = [REFERENCE_S / k for _, k in self.samples] or [1.0]
        return sum(ratios) / len(ratios)

    def summary(self) -> dict:
        kernels = sorted(k for _, k in self.samples)
        return {
            "samples": len(kernels),
            "kernel_median_ms": 1000 * kernels[len(kernels) // 2] if kernels else None,
            "overhead_s": self.spent,
        }
