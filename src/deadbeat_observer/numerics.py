"""Fixed-step RK4 integration, trapezoid quadrature and small SPD solves.

Everything here is deterministic and operates on plain numpy arrays; the
problem sizes are tiny (state dimension <= ~10), so no sparse or adaptive
machinery is needed.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidValue, NonFiniteState, NotPositiveDefinite

REL_THRESHOLD = 1e-8  # a Gram matrix is degenerate at a smallest pivot <= this * trace/n
MAX_NODES = 10**7  # the most nodes of one grid, and the most phases of one phase sweep


def require_node_count(count):
    """Raise InvalidValue if a grid of ``count`` nodes (inf included) exceeds MAX_NODES."""
    if count > MAX_NODES:
        raise InvalidValue(f"a grid of {count:.9g} nodes exceeds the limit of {MAX_NODES} nodes")


@dataclass(frozen=True)
class Grid:
    """Uniform time grid: node j sits at t0 + j*h, j = 0..count-1."""

    t0: float
    h: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.h)):
            raise InvalidValue(f"grid start and step must be finite, got {self.t0} and {self.h}")
        if self.h <= 0:
            raise InvalidValue(f"grid step must be positive, got {self.h}")
        if not isinstance(self.count, numbers.Integral):
            raise InvalidValue(f"grid node count must be a whole number, got {self.count!r}")
        if self.count < 2:
            raise InvalidValue(f"grid needs at least 2 nodes, got {self.count}")
        require_node_count(self.count)

    @property
    def span(self):
        return self.h * (self.count - 1)

    def times(self):
        return self.t0 + self.h * np.arange(self.count)

    @classmethod
    def from_span(cls, t0, span, h):
        """Grid covering [t0, t0+span]; span must be a positive integer multiple of h > 0."""
        if not (math.isfinite(span) and math.isfinite(h)):
            raise InvalidValue(f"span {span} and step {h} must be finite")
        steps = _whole_steps(span, h)
        if steps < 1:
            raise InvalidValue(f"span {span} is not a positive integer multiple of step {h}")
        return cls(t0, h, steps + 1)


def _whole_steps(span, h):
    """span/h if it is a whole number (to 1e-9), else 0; a span/h + 1 over MAX_NODES raises."""
    ratio = span / h if h > 0 else math.nan
    require_node_count(ratio + 1)  # before rounding, which fails for an inf
    steps = int(round(ratio)) if math.isfinite(ratio) else 0
    return steps if abs(steps * h - span) <= 1e-9 * max(span, h) else 0


def window_grid(r, h):
    """Grid of a reset or sweep window [0, r]; the one rule is that r/h is a whole number >= 2."""
    steps = _whole_steps(r, h)
    if steps < 2:
        raise InvalidValue(f"window length r={r} must be an integer multiple (>= 2) of h={h}")
    return Grid(0.0, h, steps + 1)


def rk4_step(field, t, s, h):
    """One classical RK4 step of ``d s/dt = field(t, s)`` from t to t + h.

    ``field`` sees the stage times t, t + h/2 and t + h and decides which
    input holds there: the plant samples its input signal at each stage
    time, the observer flows hold the input of the left node.

    The step sizes multiply as 0-d arrays and 2k as k + k: the same IEEE
    operations as with Python floats and 2.0 * k, but cheaper numpy operands.
    The sum is ((k1 + 2 k2) + 2 k3) + k4.
    """
    half, full, sixth = _step_constants(h)
    t_mid = t + 0.5 * h
    k1 = field(t, s)
    k2 = field(t_mid, s + half * k1)
    k3 = field(t_mid, s + half * k2)
    k4 = field(t + h, s + full * k3)
    return s + sixth * (k1 + (k2 + k2) + (k3 + k3) + k4)


@functools.lru_cache(maxsize=8, typed=True)
def _step_constants(h):
    """Read-only 0-d arrays h/2, h and h/6 of ``rk4_step``, made once per step size.

    A run steps with one or two sizes, so a few entries hold them all; the
    arrays are shared by every caller and so cannot be written.
    """
    constants = np.array(0.5 * h), np.array(h), np.array(h / 6.0)
    for c in constants:
        c.flags.writeable = False
    return constants


def all_finite(x):
    """Whether every entry of a small array is finite.

    For the few entries of a state or a sample, this is several times
    cheaper than a numpy reduction such as ``np.isfinite(x).all()``.
    """
    return all(map(math.isfinite, x.ravel().tolist()))


def _require_finite(s, j):
    """Raise NonFiniteState(j) unless every entry of ``s`` is finite."""
    if not all_finite(s):
        raise NonFiniteState(j)


def integrate_rk4(field, init, grid, check=_require_finite):
    """Fixed-step RK4 of ``d state/dt = field(t, state)`` on ``grid``.

    Returns shape (grid.count,) + init.shape, row 0 equal to ``init``.
    ``check(state, j)`` runs at every node j = 0..count-1 in order, and what
    it raises propagates; the default raises NonFiniteState at the first
    node whose value is not finite.
    """
    s = np.asarray(init, dtype=float)
    check(s, 0)
    out = np.empty((grid.count,) + s.shape)
    out[0] = s
    for j in range(1, grid.count):
        s = rk4_step(field, grid.t0 + (j - 1) * grid.h, s, grid.h)
        check(s, j)
        out[j] = s
    return out


def trapezoid(samples, grid):
    """Composite trapezoid rule for one sample per grid node."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != grid.count:
        raise DimensionMismatch(
            f"got {samples.shape[0]} samples for a {grid.count}-node grid"
        )
    mid = samples[1:] + samples[:-1]  # h (a + b) / 2 in place, the same bits
    mid *= grid.h
    mid /= 2.0
    total = mid.sum(axis=0)
    return float(total) if samples.ndim == 1 else total


def cumulative_trapezoid(samples, grid):
    """Running trapezoid integral; node j holds the integral over [t0, t_j]."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != grid.count:
        raise DimensionMismatch(
            f"got {samples.shape[0]} samples for a {grid.count}-node grid"
        )
    mid = samples[1:] + samples[:-1]  # 0.5 h (a + b) in place, the same bits
    mid *= 0.5 * grid.h
    out = np.empty_like(samples)
    out[0] = 0.0
    np.cumsum(mid, axis=0, out=out[1:])
    return out


def cholesky_pivots(Q):
    """Lower Cholesky factor of Q together with the smallest squared pivot.

    The factorization is run to completion without pivoting; a non-positive
    diagonal entry stops it and is reported as the smallest pivot.
    """
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    L = np.zeros_like(Q)
    smallest = np.inf
    for i in range(n):
        d = Q[i, i] - L[i, :i] @ L[i, :i]
        smallest = min(smallest, d)
        if d <= 0:
            return None, smallest
        L[i, i] = np.sqrt(d)
        for j in range(i + 1, n):
            L[j, i] = (Q[j, i] - L[j, :i] @ L[i, :i]) / L[i, i]
    return L, smallest


def require_pivot(smallest, trace, n):
    """The one test of a degenerate Gram matrix.

    ``smallest`` is the smallest squared Cholesky pivot of an n x n Gram
    matrix with the given trace.  Raises NotPositiveDefinite(smallest) unless
    it is positive and above REL_THRESHOLD * trace/n; a factorization that
    stopped early reports a pivot <= 0, so it always raises.
    """
    if not (smallest > 0 and smallest > REL_THRESHOLD * trace / n):
        raise NotPositiveDefinite(smallest)


def spd_solve(Q, rhs):
    """Solve Q x = rhs for symmetric positive definite Q via Cholesky.

    Returns (x, smallest_pivot).  Raises NotPositiveDefinite unless
    ``require_pivot`` accepts the smallest pivot.
    """
    Q = np.asarray(Q, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = Q.shape[0]
    if Q.shape != (n, n):
        raise DimensionMismatch(f"Q must be square, got shape {Q.shape}")
    if rhs.shape[0] != n:
        raise DimensionMismatch(f"rhs length {rhs.shape[0]} does not match Q size {n}")
    sym_err = np.max(np.abs(Q - Q.T))
    scale = max(np.max(np.abs(Q)), 1e-300)
    if sym_err > 1e-12 * scale:
        raise ValueError(f"Q is not symmetric (relative asymmetry {sym_err / scale:.3e})")
    L, smallest = cholesky_pivots(Q)
    require_pivot(smallest, np.trace(Q), n)
    y = np.linalg.solve(L, rhs)
    x = np.linalg.solve(L.T, y)
    return x, smallest
