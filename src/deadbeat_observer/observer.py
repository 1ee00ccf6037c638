"""Hybrid dead-beat observer runtime.

Between resets the estimate flows along the model dynamics; every r seconds
the buffered output/input window is fed to the reconstruction operator and
the estimate jumps to the exact state at the window's end (up to integration
error).  Two variants:

  * full: internal output copy w drives the flow; measured y enters only
    through the jump w <- y at resets.
  * reduced: the flow is driven directly by the measured output, and w is
    that output (requires the product-domain hypothesis on the model).

Every run, streamed or replayed, starts at ``observer_init``: the initial
estimate at the first measurement y0.  Leaving the model domain raises
DomainExit with the stream or trace node, the same node on both paths.

A reset window is degenerate when ``numerics.require_pivot``, the one rule,
finds the smallest squared Cholesky pivot of its Gram matrix Q at or below
REL_THRESHOLD * trace(Q)/n.  A degenerate window is always held: the reset is
skipped, and the flowed estimate is kept until the next window.  The hold
decision is ``window.end_state``'s: it gives None for such a window.

Both flows step with ``numerics.rk4_step`` and hold the input of the left
node over the step, as ``window.compute_window`` does (the plant instead
samples its input signal at every RK4 stage time).

Streaming (``observer_init``/``observer_step``) advances one step of size h
per measurement at a cost that does not grow with the window: it counts
nodes from ``observer_init`` and resets at every M-th node (M = r/h), keeps
the current window's (y, u) samples as an immutable linked chain that a
reset reads once, and in reduced mode reuses the previous step's right-node
A and b as its left-node ones.
Replay (``run_observer``) takes a whole recorded trace.  Full mode steps it
through ``observer_step``; reduced mode works one reset window at a time,
cutting each window straight from the trace, and one window computation
gives both the flow and the reset.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, DomainExit, InvalidValue, NonFiniteState
from .model import check_point_evaluators, point_rate
from .numerics import Grid, all_finite, rk4_step, window_grid
# compute_window is looked up on its module, where perfbench/spans.py times it
from . import window as _window
from .window import IoWindow, apply_P, end_state  # perfbench/spans.py wraps observer.apply_P

FULL = "full"
REDUCED = "reduced"


@dataclass(frozen=True)
class ObserverConfig:
    """Window length r, step h and variant (reduced by default) of an observer.

    ``steps_per_window`` (M = r/h) is derived once, by ``numerics.window_grid``:
    it is not a constructor argument and takes no part in == or the hash.  An
    r that is not a whole multiple (>= 2) of h raises that rule's InvalidValue,
    and an r/h + 1 above MAX_NODES the node limit's first.
    """

    r: float
    h: float
    mode: str = REDUCED
    steps_per_window: int = field(init=False, repr=False, compare=False)  # M = r/h

    def __post_init__(self):
        if self.mode not in (FULL, REDUCED):
            raise InvalidValue(f"mode must be '{FULL}' or '{REDUCED}', got {self.mode!r}")
        object.__setattr__(self, "steps_per_window", window_grid(self.r, self.h).count - 1)


class ObserverSnapshot(NamedTuple):
    """The streaming observer after ``node`` steps from ``observer_init``.

    An immutable record (a named tuple, cheap to build once per step).  The
    (y, u) history of the current window is an immutable chain of links
    (y_j, u_{j-1}, parent): each step adds one, and a reset node starts a new
    chain, so at most M + 1 links are live and stepping one snapshot twice
    gives two independent branches.
    """

    z: np.ndarray
    w: np.ndarray  # output estimate: the flowed copy (full) or the measurement (reduced)
    node: int  # nodes stepped since observer_init; resets fire at node % M == 0
    t0: float
    config: ObserverConfig  # the one observer_init was given
    link: tuple  # (y, u, parent) of this node
    right: tuple  # reduced mode: (u, A, b) with A, b at (y, u) of this node, or None
    degenerate_events: int = 0
    last_reset_applied: bool = False


@dataclass(frozen=True)
class EstimateTrace:
    """A replayed run: the estimate and the reset flags at every trace node."""

    grid: Grid
    z: np.ndarray  # (count, n)
    w: np.ndarray  # (count, k); the measurements in reduced mode
    reset_flags: np.ndarray  # (count,), 1 at nodes where the jump map fired
    degenerate_flags: np.ndarray  # (count,), 1 at skipped (degenerate) resets

    @property
    def degenerate_events(self):
        return int(self.degenerate_flags.sum())


def observer_init(spec, config, z0, w0=None, t0=0.0, *, y0, u0=None):
    """Snapshot at t0 (node 0): the initial estimate at the first measurement.

    ``y0``/``u0`` are the measurement and input at t0; y0 starts the window
    chain, so the first reset window spans exactly [t0, t0 + r].  Full mode
    requires ``w0``, which may differ from y0; reduced mode ignores it, as w
    is the measurement there.  z0, y0, w0 and u0 (zeros by default) must have
    shapes (n,), (k,), (k,) and (m,), else DimensionMismatch; the evaluators'
    shapes are checked here, once per run, at (y0, u0).  A non-finite y0
    raises NonFiniteState, and an initial state (z0, w0) outside the model
    domain DomainExit, both at node 0.
    """
    z0, y0 = _vector(z0), _vector(y0)
    if config.mode == REDUCED:
        w0 = y0
    if w0 is None:
        raise ValueError("full mode requires an initial output estimate w0")
    w0 = _vector(w0)
    u0 = _vector(u0) if u0 is not None else np.zeros(spec.m)
    for name, value, size in (("z0", z0, spec.n), ("y0", y0, spec.k), ("w0", w0, spec.k),
                              ("u0", u0, spec.m)):
        if value.shape != (size,):
            raise DimensionMismatch(f"{name} has shape {value.shape}, expected ({size},)")
    if not all_finite(y0):
        raise NonFiniteState(0, f"non-finite measurement at the initial node (y={y0})")
    if not spec.in_domain(z0, w0):  # the state (z, w) every step checks; w0 is y0 in reduced mode
        named = "y" if config.mode == REDUCED else "w0"
        raise DomainExit(0, f"initial estimate (z0={z0}, {named}={w0}) outside the model domain")
    check_point_evaluators(spec, y0, u0)
    return ObserverSnapshot(z0, w0, 0, float(t0), config, (y0, u0, None), None)


def _vector(x):
    """``x`` as a new float array of at least one dimension."""
    return np.array(x, dtype=float, ndmin=1)


def _window_samples(link, count):
    """(y, u) samples of the last ``count`` nodes of a chain, oldest first.

    Link j carries (y_j, u_{j-1}), so node j's held input u_j comes from the
    link after it; the newest node repeats the input of its own link.
    """
    y, u, parent = link
    ys, us = [], [u]
    for _ in range(count - 1):
        ys.append(y)
        us.append(u)
        y, u, parent = parent
    ys.append(y)
    return np.array(ys[::-1]), np.array(us[::-1])


def _coefficients(spec, y, u):
    return spec.eval_A(y, u), spec.eval_b(y, u)


def _reduced_flow_step(spec, h, z, left, y_prev, y_new, u):
    """One RK4 step of the reduced flow z' = A(y, u) z + b(y, u) over [t, t+h].

    y is interpolated linearly and u holds over the step, so the two midpoint
    stages share one evaluation of A and b.  ``left`` is the previous step's
    (u, A, b) at y_prev; A and b are reused when that u has the same bits as
    this step's, which keeps the arithmetic bit-identical, so a step makes 4
    evaluator calls instead of 6.  Returns the new z and (u, A, b) at y_new
    for the next step.
    """
    if left is not None and left[0].tobytes() == u.tobytes():
        A1, b1 = left[1], left[2]
    else:
        A1, b1 = _coefficients(spec, y_prev, u)
    Am, bm = _coefficients(spec, 0.5 * (y_prev + y_new), u)
    A4, b4 = _coefficients(spec, y_new, u)

    def field(t, z):  # the stage times of a step from 0 are exactly 0.0, 0.5 * h and h
        if t == 0.0:
            return A1.dot(z) + b1
        return Am.dot(z) + bm if t < h else A4.dot(z) + b4

    return rk4_step(field, 0.0, z, h), (u, A4, b4)


def observer_step(spec, config, snap, y_meas, u):
    """Advance one step of size h; ``y_meas`` is the measurement at t + h.

    ``u`` is the input held over [t, t+h).  ``config`` must equal the one
    the snapshot was made with, else ValueError, and ``y_meas`` and ``u``
    must have shapes (k,) and (m,), else DimensionMismatch.  The step costs
    the same whatever the window length M: it adds one link to the window
    chain, and only at the reset nodes (every M-th node from
    ``observer_init``) is the chain read into the window fed to the
    reconstruction operator.  A non-finite measurement, flow or reset window
    raises NonFiniteState with the stream node; in reduced mode the flow's
    test covers z only, as w is the measurement, already tested.  A state
    (z, w) outside the model domain raises DomainExit with the stream node.
    """
    link = snap.link
    if config is not snap.config and config != snap.config:
        raise ValueError(f"snapshot was initialized with {snap.config}; "
                         f"cannot step it with {config}")
    node = snap.node + 1
    t_new = snap.t0 + node * config.h
    y_meas = _vector(y_meas)
    u = _vector(u)
    if y_meas.shape != (spec.k,) or u.shape != (spec.m,):
        raise DimensionMismatch(f"measurement of shape {y_meas.shape} and input of shape "
                                f"{u.shape} at node {node}, expected ({spec.k},) and ({spec.m},)")
    if not all_finite(y_meas):
        raise NonFiniteState(node, f"non-finite measurement at t = {t_new:.6g}")

    if config.mode == REDUCED:
        z, right = _reduced_flow_step(spec, config.h, snap.z, snap.right, link[0], y_meas, u)
        w = y_meas  # tested finite above
        finite = all_finite(z)
    else:
        s = rk4_step(lambda t, s: point_rate(spec, s, u), 0.0,
                     np.concatenate([snap.z, snap.w]), config.h)
        z, w, right = s[:spec.n], s[spec.n:], None
        finite = all_finite(s)
    if not finite:
        raise _diverged(node, t_new)

    degenerate_events = snap.degenerate_events
    reset_applied = False
    M = config.steps_per_window
    if node % M:
        link = (y_meas, u, link)
    else:
        window = IoWindow(Grid(0.0, config.h, M + 1),
                          *_window_samples((y_meas, u, link), M + 1))
        link = (y_meas, u, None)  # the next window starts at this node
        z_reset = _at_trace_nodes(node - M, apply_P, spec, window)  # None: a held window
        reset_applied = z_reset is not None
        if reset_applied:
            z, w = z_reset, y_meas
        else:
            degenerate_events += 1

    if not spec.in_domain(z, w):
        raise _left_domain(node, t_new, z, None if config.mode == REDUCED else w)
    return ObserverSnapshot(z, w, node, snap.t0, snap.config, link, right,
                            degenerate_events, reset_applied)


def _at_trace_nodes(start, window_fn, *args):
    """``window_fn(*args)`` for the window from node ``start``; the window-local
    node of a NonFiniteState it raises is re-based to the stream or trace node,
    keeping the error's type (an overflowing Gram matrix says so)."""
    try:
        return window_fn(*args)
    except NonFiniteState as exc:
        raise type(exc)(start + exc.index) from exc


def _diverged(node, t):
    return NonFiniteState(node, f"observer flow diverged at t = {t:.6g}")


def _left_domain(node, t, z, w=None):
    state = f"z={z}" if w is None else f"z={z}, w={w}"
    return DomainExit(node, f"observer state left the model domain at t = {t:.6g} ({state})")


def run_observer(spec, config, trace, z0, w0=None):
    """Replay a recorded trace through the observer.

    Gives the estimates, flags and errors of stepping ``observer_step``
    through the trace from ``observer_init``.  Full mode does exactly that,
    node by node.  Reduced mode works one reset window at a time, without the
    history buffer: resets fire at the nodes i*M (M = r/h), each reset window
    is the trace slice [j - M, j], and one ``window.compute_window`` per window
    gives the flow z_j = Phi_j z_a + theta_j from the window start a and,
    through ``window.end_state``, the reset.  The flowed nodes of a window
    are checked with ``spec.in_domain`` in order, and a NonFiniteState from
    the window engine carries the trace node.  Fully deterministic.
    """
    grid = trace.grid
    if abs(grid.h - config.h) > 1e-12 * max(grid.h, config.h):
        raise ValueError(
            f"trace step {grid.h} does not match observer step {config.h}"
        )
    y, u = trace.y_meas, trace.u
    count = grid.count
    z = np.empty((count, spec.n))
    reset_flags = np.zeros(count, dtype=int)
    degen_flags = np.zeros(count, dtype=int)
    snap = observer_init(spec, config, z0, w0, t0=grid.t0, y0=y[0], u0=u[0])
    z[0] = snap.z
    if config.mode == FULL:
        w = np.empty((count, spec.k))
        w[0] = snap.w
        with np.errstate(over="ignore", invalid="ignore"):  # observer_step raises on divergence
            for j in range(1, count):
                events = snap.degenerate_events
                snap = observer_step(spec, config, snap, y[j], u[j - 1])
                z[j], w[j] = snap.z, snap.w
                reset_flags[j] = snap.last_reset_applied
                degen_flags[j] = snap.degenerate_events - events
        return EstimateTrace(grid, z, w, reset_flags, degen_flags)

    w = np.array(y, dtype=float)
    M = config.steps_per_window
    t = grid.times()
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite flow row raises below
        for a in range(0, count - 1, M):
            b = min(a + M, count - 1)
            window = IoWindow(grid=Grid(0.0, config.h, b - a + 1),
                              y_samples=y[a:b + 1], u_samples=u[a:b + 1])
            wc = _at_trace_nodes(a, _window.compute_window, spec, window)
            flow = wc.phi @ z[a] + wc.theta  # z' = A z + b is the window's Phi/theta ODE
            z[a + 1:b + 1] = flow[1:]
            bad = np.flatnonzero(~np.isfinite(flow[1:]).all(axis=1))
            end = a + 1 + int(bad[0]) if bad.size else b
            for j in range(a + 1, end):
                if not spec.in_domain(z[j], y[j]):
                    raise _left_domain(j, t[j], z[j])
            if bad.size:
                raise _diverged(end, t[end])
            if b - a == M:
                z_reset = _at_trace_nodes(a, end_state, wc)  # None: a held window
                if z_reset is None:
                    degen_flags[b] = 1
                else:
                    z[b] = z_reset
                    reset_flags[b] = 1
            if not spec.in_domain(z[b], y[b]):
                raise _left_domain(b, t[b], z[b])
    return EstimateTrace(grid, z, w, reset_flags, degen_flags)
