"""Ground-truth plant simulation and deterministic sensor corruption."""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, DomainExit, NonFiniteState
from .model import InputSignal, eval_coefficients
from .numerics import Grid


@dataclass(frozen=True)
class SimConfig:
    """Simulation span, step and initial state.

    ``x0`` and ``y0`` are (n,) and (k,) for one trajectory, or (B, n) and
    (B, k) for B trajectories integrated together on one grid.
    """

    t_end: float
    h: float
    x0: np.ndarray
    y0: np.ndarray

    def __post_init__(self):
        if self.t_end <= 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        y0 = np.atleast_1d(np.asarray(self.y0, dtype=float))
        if x0.ndim > 2 or x0.shape[:-1] != y0.shape[:-1] or x0.shape[0] == 0:
            raise DimensionMismatch(
                f"x0 {x0.shape} and y0 {y0.shape} must be (n,) and (k,), "
                "or (B, n) and (B, k) with B >= 1")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "y0", y0)


@dataclass(frozen=True)
class SensorModel:
    """Clean sensor (amplitude 0) or additive sinusoid a*sin(f*t) per channel."""

    amplitude: float = 0.0
    frequency: float = 1.0

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("noise amplitude must be >= 0")
        if self.amplitude > 0 and self.frequency <= 0:
            raise ValueError("noise frequency must be > 0")

    @classmethod
    def clean(cls):
        return cls(0.0, 1.0)


@dataclass(frozen=True)
class Trace:
    """Simulated trajectories; batched runs carry a leading member axis."""

    grid: Grid
    x_true: np.ndarray  # (count, n), or (B, count, n)
    y_true: np.ndarray  # (count, k), or (B, count, k)
    y_meas: np.ndarray  # (count, k), or (B, count, k)
    u: np.ndarray  # (count, m), shared by every member


def simulate_plant(spec, input_signal, cfg):
    """Fixed-step RK4 of the coupled (x, y) dynamics over [0, t_end].

    With (B, n) and (B, k) initial states in ``cfg`` the B trajectories share
    the grid and the input signal and are stepped together; each stage then
    evaluates the coefficients once for the whole batch through
    ``eval_coefficients``.  A single trajectory keeps the per-point
    evaluators, which are faster for one state.

    Domain membership and finiteness are checked for every member at every
    node.  The earliest failing node raises DomainExit (leaving the open
    model domain) or NonFiniteState, with the node index and, for a batch,
    the first failing member named in the message.
    """
    if input_signal is None:
        input_signal = InputSignal.zero(spec.m)
    grid = Grid.from_span(0.0, cfg.t_end, cfg.h)
    n, k = spec.n, spec.k
    batched = cfg.x0.ndim == 2
    S0 = np.concatenate([np.atleast_2d(cfg.x0), np.atleast_2d(cfg.y0)], axis=1)
    B = S0.shape[0]

    def member(i):
        return f"member {i}: " if batched else ""

    def check(s, j):
        rows = s.reshape(B, n + k)
        if not np.isfinite(s).all():
            i = int(np.argmin(np.isfinite(rows).all(axis=1)))
            raise NonFiniteState(j, f"{member(i)}non-finite state at grid index {j}")
        for i, row in enumerate(rows):
            if not spec.in_domain(row[:n], row[n:]):
                where = ("initial condition outside the model domain" if j == 0
                         else f"solution left the model domain at grid index {j}")
                raise DomainExit(j, member(i) + where)

    def point_field(t, s):
        x, y = s[:n], s[n:]
        u = input_signal(t)
        A = np.asarray(spec.eval_A(y, u), dtype=float)
        b = np.asarray(spec.eval_b(y, u), dtype=float)
        C = np.asarray(spec.eval_C(y), dtype=float).reshape(n, k)
        f = np.atleast_1d(np.asarray(spec.eval_f(y, u), dtype=float))
        return np.concatenate([A @ x + b, f + C.T @ x])

    def batch_field(t, s):
        X = s[:, :n, None]
        U[:] = input_signal(t)
        A, b, C, f = eval_coefficients(spec, s[:, n:], U)
        return np.concatenate([(A @ X)[:, :, 0] + b,
                               f + (C.transpose(0, 2, 1) @ X)[:, :, 0]], axis=1)

    if B == 1:
        field, s = point_field, S0[0]
    else:
        U = np.empty((B, np.atleast_1d(input_signal(grid.t0)).size))
        field, s = batch_field, S0
    check(s, 0)
    out = np.empty((B, grid.count, n + k))
    out[:, 0] = s
    h = cfg.h
    for j in range(1, grid.count):
        t = grid.t0 + (j - 1) * h
        k1 = field(t, s)
        k2 = field(t + 0.5 * h, s + 0.5 * h * k1)
        k3 = field(t + 0.5 * h, s + 0.5 * h * k2)
        k4 = field(t + h, s + h * k3)
        s = s + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        check(s, j)
        out[:, j] = s

    if not batched:
        out = out[0]
    times = grid.times()
    u_samples = np.vstack([np.atleast_1d(input_signal(t)) for t in times])
    y_true = out[..., n:]
    return Trace(grid=grid, x_true=out[..., :n], y_true=y_true,
                 y_meas=y_true.copy(), u=u_samples)


def corrupt(trace, sensor):
    """Additive sinusoidal measurement noise; ground truth is untouched.

    The noise depends on the node time only, so every member of a batched
    trace receives the same per-node noise.
    """
    if sensor.amplitude == 0.0:
        return replace(trace, y_meas=trace.y_true.copy())
    t = trace.grid.times()
    noise = sensor.amplitude * np.sin(sensor.frequency * t)
    y_meas = trace.y_true + noise[:, None]
    return replace(trace, y_meas=y_meas)
