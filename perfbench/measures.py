"""Summary statistics for benchmark samples: percentiles, tails and deadlines.

Percentiles use the nearest-rank definition.  Percentile levels are kept as
decimal strings and evaluated with exact fractions, so that "99.9" of 1000
samples lands on rank 999 and not on a neighbour through rounding.
"""

import math
from fractions import Fraction

import numpy as np

# Levels a tail may be reported at, lowest first.
TAIL_LADDER = ("50", "90", "99", "99.9", "99.99", "99.999")
MIN_BEYOND = 10


def _rank(n, q):
    """1-based nearest rank of percentile ``q`` among ``n`` samples."""
    return max(1, math.ceil(Fraction(q) * n / 100))


def samples_beyond(n, q):
    """Samples ranked above the nearest-rank ``q`` percentile of ``n``."""
    return n - _rank(n, q)


def percentile(samples, q):
    """Nearest-rank percentile ``q`` (a decimal string or number) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), str(q)) - 1]


def median(samples):
    return percentile(samples, "50")


def tail_level(n):
    """Highest ladder percentile with at least MIN_BEYOND of ``n`` samples beyond it.

    Returns None when even the median leaves fewer than MIN_BEYOND samples
    above it.
    """
    level = None
    for q in TAIL_LADDER:
        if samples_beyond(n, q) >= MIN_BEYOND:
            level = q
    return level


def tail(samples):
    """(level, value) of the highest percentile with MIN_BEYOND samples beyond it."""
    level = tail_level(len(samples))
    if level is None:
        return None, None
    return float(level), percentile(samples, level)


def deadline_misses(latencies, deadline):
    """Number of latencies strictly longer than ``deadline``."""
    return int(np.count_nonzero(np.asarray(latencies, dtype=float) > deadline))


def fail_ratio(attempted, failed):
    """Failed operations over attempted ones; nothing attempted counts as all failed."""
    if attempted <= 0:
        return 1.0
    return failed / attempted


class LatencyHistogram:
    """Latency counts in geometric bins 0.1 % wide, from 100 ns to 100 s.

    Its memory does not grow with the number of samples, so a faster program,
    which fits more samples into a run, does not show as a larger process.
    """

    LOW = 1e-7
    RATIO = 1.001
    BINS = math.ceil(math.log(1e9) / math.log(RATIO))

    def __init__(self):
        self.counts = np.zeros(self.BINS, dtype=np.int64)
        self.n = 0

    def add(self, seconds):
        seconds = np.maximum(np.asarray(seconds, dtype=float), self.LOW)
        idx = np.floor(np.log(seconds / self.LOW) / math.log(self.RATIO)).astype(np.int64)
        np.clip(idx, 0, self.BINS - 1, out=idx)
        self.counts += np.bincount(idx, minlength=self.BINS)
        self.n += idx.size

    def percentile(self, q):
        """Nearest-rank percentile ``q``, as the geometric centre of its bin."""
        if self.n == 0:
            raise ValueError("percentile of no samples")
        i = int(np.searchsorted(np.cumsum(self.counts), _rank(self.n, str(q))))
        return self.LOW * self.RATIO ** (i + 0.5)
