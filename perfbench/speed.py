"""A fixed reference kernel that tracks how fast the machine runs right now.

On a shared machine the same work can take 50% longer for minutes at a time,
because other tenants contend for the host, and the slowdown comes and goes
within a single multi-second item.  While the benchmark measures, a timer
signal runs this kernel every PERIOD_S seconds and records how long it took.
Each item's time (minus the kernel runs that interrupted it) is then scaled
by REF_S / (mean kernel time over the item, or over the nearest MIN_SAMPLES
runs for a short item).  That cancels slowdowns that hit the kernel and the
item alike, while any change in gradplay's own cost shows in full, since the
kernel calls no gradplay code.

The kernel mixes the three kinds of work the workloads do: interpreted Python,
numpy calls on small arrays, and LAPACK (a real eigenproblem and a complex
SVD of the sizes the analysis uses).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# Typical time of one timer-driven kernel run on the reference machine
# (shared 2-core x86-64, Python 3.11.7, numpy 2.4.6): scaled times read as
# seconds on that machine when it is not contended.
REF_S = 4.5e-4
PERIOD_S = 0.02
MIN_SAMPLES = 15

_rng = np.random.default_rng(0)
_A = _rng.normal(size=(12, 12))
_Z = _rng.normal(size=(30, 40)) + 1j * _rng.normal(size=(30, 40))


def kernel():
    s = 0.0
    table = {}
    values = []
    for i in range(600):
        s += i * 0.5
        values.append(s)
        table[i & 63] = s
    values.sort()
    for _ in range(20):
        a = np.zeros((6, 6))
        b = np.hstack([a, a])
        np.max(np.abs(b)) + float((a @ a)[0, 0])
    for _ in range(2):
        np.linalg.eigvals(_A)
    np.linalg.svd(_Z, compute_uv=False)


class Sampler:
    """Runs the kernel from a SIGALRM handler while active; keeps (start, duration)."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0: float, t1: float) -> tuple:
        """(time spent in the kernel within [t0, t1], scale factor for that interval)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = sum(self.durations[lo:hi])
        # a short item: widen to the MIN_SAMPLES runs nearest the interval
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            if lo > 0 and (hi >= len(self.starts) or t0 - self.starts[lo - 1] <= self.starts[hi] - t1):
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            return inside, 1.0
        return inside, REF_S / statistics.fmean(self.durations[lo:hi])
