"""Ground-truth plant simulation and deterministic sensor corruption."""

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import DimensionMismatch, DomainExit, NonFiniteState
from .model import check_point_evaluators, domain_mask, eval_coefficients, point_rate
from .numerics import Grid, all_finite, integrate_rk4


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
        if not (math.isfinite(self.amplitude) and math.isfinite(self.frequency)):
            raise ValueError("noise amplitude and frequency must be finite")
        if self.amplitude < 0:
            raise ValueError("noise amplitude must be >= 0")
        if self.amplitude > 0 and self.frequency <= 0:
            raise ValueError("noise frequency must be > 0")


@dataclass(frozen=True)
class Trace:
    """Simulated trajectories; batched runs carry a leading member axis."""

    grid: Grid
    x_true: np.ndarray  # (count, n), or (B, count, n)
    y_true: np.ndarray  # (count, k), or (B, count, k)
    y_meas: np.ndarray  # (count, k), or (B, count, k)
    u: np.ndarray  # (count, m), shared by every member


def simulate_plant(spec, u, cfg):
    """Fixed-step RK4 of the coupled (x, y) dynamics over [0, t_end].

    The input ``u`` is a function of time, or None for the zero input; the
    field samples it at every RK4 stage time.  Before any step, u(0) must
    have shape (m,) and the last axes of the initial states in ``cfg`` must
    be n and k, else DimensionMismatch.  With (B, n) and (B, k) initial
    states the B trajectories share the grid and the input and are stepped
    together; each stage then evaluates the coefficients once for the whole
    batch, and the shapes ``eval_batch`` returns are checked once, at node 0.
    A single trajectory keeps the per-point evaluators, which are faster for
    one state; their shapes are checked once, at node 0, by
    ``model.check_point_evaluators``.

    Domain membership and finiteness are checked for every member at every
    node; a batch is checked with one ``domain_mask`` call per node.  The
    earliest failing node raises DomainExit (leaving the open
    model domain) or NonFiniteState, with the node index and, for a batch,
    the first failing member named in the message.
    """
    if u is None:
        zero = np.zeros(spec.m)

        def u(t):
            return zero

    grid = Grid.from_span(0.0, cfg.t_end, cfg.h)
    width = np.shape(u(grid.t0))
    if width != (spec.m,):
        raise DimensionMismatch(f"input has shape {width} at t = {grid.t0:g}, "
                                f"expected ({spec.m},)")
    if (cfg.x0.shape[-1], cfg.y0.shape[-1]) != (spec.n, spec.k):
        raise DimensionMismatch(f"initial states of shapes x0 {cfg.x0.shape} and y0 "
                                f"{cfg.y0.shape}, expected last axes n = {spec.n} and "
                                f"k = {spec.k}")
    n, k = spec.n, spec.k
    batched = cfg.x0.ndim == 2
    S0 = np.concatenate([np.atleast_2d(cfg.x0), np.atleast_2d(cfg.y0)], axis=1)
    B = S0.shape[0]

    def member(i):
        return f"member {i}: " if batched else ""

    def outside(s):
        """Index of the first member outside the domain, or None."""
        if B == 1:
            return None if spec.in_domain(s[:n], s[n:]) else 0
        inside = domain_mask(spec, s[:, :n], s[:, n:])
        return None if inside.all() else int(np.argmin(inside))

    def check(s, j):
        if not (all_finite(s) if B == 1 else np.isfinite(s).all()):
            i = int(np.argmin(np.isfinite(s.reshape(B, n + k)).all(axis=1)))
            raise NonFiniteState(j, f"{member(i)}non-finite state at grid index {j}")
        i = outside(s)
        if i is not None:
            where = ("initial condition outside the model domain" if j == 0
                     else f"solution left the model domain at grid index {j}")
            raise DomainExit(j, member(i) + where)
        if j == 0 and B == 1:
            check_point_evaluators(spec, s[n:], u(grid.t0))
        elif j == 0:
            eval_coefficients(spec, s[:, n:], U)  # checks the evaluator shapes

    if B == 1:
        out = integrate_rk4(lambda t, s: point_rate(spec, s, u(t)),
                            S0[0], grid, check)[None]
    else:
        U = np.array([u(grid.t0)] * B, dtype=float)
        evaluate = spec.eval_batch or partial(eval_coefficients, spec)

        def batch_field(t, s):
            X = s[:, :n, None]
            U[:] = u(t)
            A, b, C, f = evaluate(s[:, n:], U)
            return np.concatenate([(A @ X)[:, :, 0] + b,
                                   f + (C.transpose(0, 2, 1) @ X)[:, :, 0]], axis=1)

        out = np.ascontiguousarray(integrate_rk4(batch_field, S0, grid, check).swapaxes(0, 1))

    if not batched:
        out = out[0]
    times = grid.times()
    u_samples = np.array([u(t) for t in times], dtype=float)
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
