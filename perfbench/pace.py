"""Machine-speed sampling for normalising the benchmark's end-to-end times.

The benchmark shares a small machine with other work.  There, the speed of
single-threaded Python flips between regimes that differ by up to 1.8x, for
stretches from a fraction of a second to minutes, so raw wall times of
identical runs a minute apart can differ by more than any useful regression
bound.

``Pace`` times a tiny fixed kernel with the package's instruction mix (RK4
steps of a three-state system in small numpy arrays, a Python call per
stage) every PERIOD seconds while the workload runs, from a SIGALRM handler
in the workload's own thread.  The work between two samples is scaled by
NOMINAL_TICK_S over the mean kernel time of those two samples, so a
normalised time reads in seconds at the speed where the kernel takes
NOMINAL_TICK_S.  The kernel never touches the package: a change to the
package moves normalised and raw times alike.  Time spent in the kernel is
counted in ``paused`` and left out of every time the benchmark reports.
"""

import bisect
import signal
import time
from contextlib import contextmanager

import numpy as np

PERIOD = 0.025  # seconds between samples
NOMINAL_TICK_S = 0.001  # kernel time at the speed normalised times refer to
_STEPS = 40
_A = np.array([[0.0, 1.0, 0.0], [-1.0, -0.1, 0.5], [0.0, 0.0, -0.2]])


def _kernel():
    h = 1e-3
    x = np.array([1.0, 0.0, 0.5])

    def field(s):
        return _A @ s + np.array([0.0, np.sin(s[0]), 0.0])

    for _ in range(_STEPS):
        k1 = field(x)
        k2 = field(x + 0.5 * h * k1)
        k3 = field(x + 0.5 * h * k2)
        k4 = field(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


class Pace:
    """Kernel timings taken during a run, and the normalisation built on them."""

    def __init__(self):
        self.starts = []  # perf_counter at the start of each sample
        self.seconds = []  # kernel time of each sample
        self.paused = 0.0  # total time spent sampling
        _kernel()  # the first run in a process is slow; no sample should be

    def tick(self):
        """Time the kernel once, now."""
        start = time.perf_counter()
        _kernel()
        took = time.perf_counter() - start
        self.starts.append(start)
        self.seconds.append(took)
        self.paused += time.perf_counter() - start

    def _on_alarm(self, signum, frame):
        self.tick()

    @contextmanager
    def sampling(self):
        """Sample every PERIOD seconds for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def normalised(self, begin, end):
        """(raw, normalised) seconds of work in [begin, end], samples excluded.

        The interval is cut at every sample inside it; each stretch of work
        is scaled by the mean kernel time of the samples on either side of
        it, or of the one sample it has when the other side has none.
        """
        lo = bisect.bisect_left(self.starts, begin)
        hi = bisect.bisect_left(self.starts, end)
        raw = normalised = 0.0
        left = begin
        for i in range(lo, hi + 1):
            right = self.starts[i] if i < hi else end
            around = [self.seconds[j] for j in (i - 1, i) if 0 <= j < len(self.seconds)]
            work = right - left
            raw += work
            normalised += work * NOMINAL_TICK_S * len(around) / sum(around)
            if i < hi:
                left = self.starts[i] + self.seconds[i]
        return raw, normalised
