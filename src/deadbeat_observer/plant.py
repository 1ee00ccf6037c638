"""Ground-truth plant simulation and deterministic sensor corruption."""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatch, DomainExit, InvalidValue, NonFiniteState
from .model import check_point_evaluators, point_rate
from .numerics import Grid, all_finite, integrate_rk4


@dataclass(frozen=True)
class SimConfig:
    """Simulation span, step, initial state (x0 (n,), y0 (k,)) and the grid over [0, t_end].

    The grid is built with the config, so a t_end that is not a positive
    integer multiple of h raises InvalidValue there, before any step.
    """

    t_end: float
    h: float
    x0: np.ndarray
    y0: np.ndarray
    grid: Grid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "grid", Grid.from_span(0.0, self.t_end, self.h))
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        object.__setattr__(self, "y0", np.atleast_1d(np.asarray(self.y0, dtype=float)))


@dataclass(frozen=True)
class SensorModel:
    """Clean sensor (amplitude 0) or additive sinusoid a*sin(f*t) per channel."""

    amplitude: float = 0.0
    frequency: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and math.isfinite(self.frequency)):
            raise InvalidValue("noise amplitude and frequency must be finite")
        if self.amplitude < 0:
            raise InvalidValue("noise amplitude must be >= 0")
        if self.amplitude > 0 and self.frequency <= 0:
            raise InvalidValue("noise frequency must be > 0")

    def noise(self, t):
        """The noise this sensor adds at the node times ``t``; None for a clean sensor."""
        if self.amplitude == 0.0:
            return None
        return self.amplitude * np.sin(self.frequency * t)

    def measure(self, y_true, t):
        """``y_true`` as this sensor reads it at the node times ``t``.

        ``y_true`` has the node axis second to last and the channels last; the
        noise depends on the node time only, so any leading axis gets the same
        per-node noise on every channel.  A clean sensor returns a copy.
        """
        noise = self.noise(t)
        if noise is None:
            return y_true.copy()
        return y_true + noise[:, None]


@dataclass(frozen=True)
class Trace:
    """Simulated trajectory on one grid."""

    grid: Grid
    x_true: np.ndarray  # (count, n)
    y_true: np.ndarray  # (count, k)
    y_meas: np.ndarray  # (count, k)
    u: np.ndarray  # (count, m)


def simulate_plant(spec, u, cfg):
    """Fixed-step RK4 of the coupled (x, y) dynamics over [0, t_end].

    The input ``u`` is a function of time, or None for the zero input; the
    field samples it at every RK4 stage time.  Before any step, u(0) must
    have shape (m,) and the initial states in ``cfg`` shapes (n,) and (k,),
    else DimensionMismatch.  The per-point evaluators' shapes are checked
    once, at node 0, by ``model.check_point_evaluators``; each RK4 stage then
    calls the four evaluators once, 16 calls a step.

    Domain membership and finiteness are checked at every node; the earliest
    failing node raises DomainExit (leaving the open model domain) or
    NonFiniteState, with the node index.  An RK4 stage that overflows raises
    no numpy warning: it makes its node non-finite.
    """
    if u is None:
        zero = np.zeros(spec.m)

        def u(t):
            return zero

    grid = cfg.grid
    width = np.shape(u(grid.t0))
    if width != (spec.m,):
        raise DimensionMismatch(f"input has shape {width} at t = {grid.t0:g}, "
                                f"expected ({spec.m},)")
    if (cfg.x0.shape, cfg.y0.shape) != ((spec.n,), (spec.k,)):
        raise DimensionMismatch(f"initial states of shapes x0 {cfg.x0.shape} and y0 "
                                f"{cfg.y0.shape}, expected ({spec.n},) and ({spec.k},)")
    n = spec.n

    def check(s, j):
        if not all_finite(s):
            raise NonFiniteState(j)
        if not spec.in_domain(s[:n], s[n:]):
            raise DomainExit(j, "initial condition outside the model domain" if j == 0 else None)
        if j == 0:
            check_point_evaluators(spec, s[n:], u(grid.t0))

    with np.errstate(over="ignore", invalid="ignore"):  # check() rejects the non-finite node
        out = integrate_rk4(lambda t, s: point_rate(spec, s, u(t)),
                            np.concatenate([cfg.x0, cfg.y0]), grid, check)
    y_true = out[:, n:]
    return Trace(grid=grid, x_true=out[:, :n], y_true=y_true, y_meas=y_true.copy(),
                 u=np.array([u(t) for t in grid.times()], dtype=float))


def corrupt(trace, sensor):
    """The trace as ``sensor`` measures it; ground truth is untouched."""
    return replace(trace, y_meas=sensor.measure(trace.y_true, trace.grid.times()))
