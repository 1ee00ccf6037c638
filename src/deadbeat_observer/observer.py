"""Hybrid dead-beat observer runtime.

Between resets the estimate flows along the model dynamics; every r seconds
the buffered output/input window is fed to the reconstruction operator and
the estimate jumps to the exact state at the window's end (up to integration
error).  Two variants:

  * full: internal output copy w drives the flow; measured y enters only
    through the jump w <- y at resets.
  * reduced: the flow is driven directly by the measured output (requires
    the product-domain hypothesis on the model).

A reset window is degenerate when ``numerics.spd_solve`` rejects its Gram
matrix at ``ObserverConfig.rel_threshold``.  It is either skipped, keeping
the flowed estimate and retrying one window later ("hold"), or raised as
GramDegenerate ("fail").

Both flows step with ``numerics.rk4_step`` and hold the input of the left
node over the step, as ``window.compute_window`` does (the plant instead
samples its input signal at every RK4 stage time).

Streaming (``observer_init``/``observer_step``) advances one step of size h
per measurement at a cost that does not grow with the window: it counts
nodes from ``observer_init`` and resets at every M-th node (M = r/h), keeps
the current window's (y, u) samples as an immutable linked chain that a
reset reads once, and in reduced mode reuses the previous step's right-node
A and b as its left-node ones.
Replay (``run_observer``) takes a whole recorded trace and works one reset
window at a time, cutting each window straight from the trace: in reduced
mode one window computation gives both the flow and the reset.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, GramDegenerate, NonFiniteState, NotPositiveDefinite
from .model import check_point_evaluators, domain_mask, point_rate
from .numerics import DEFAULT_REL_THRESHOLD, Grid, all_finite, rk4_step
from .window import IoWindow, apply_P, end_state, flow_window

FULL = "full"
REDUCED = "reduced"
HOLD = "hold"
FAIL = "fail"


@dataclass(frozen=True)
class ObserverConfig:
    r: float
    h: float
    mode: str = REDUCED
    rel_threshold: float = DEFAULT_REL_THRESHOLD
    on_degenerate: str = HOLD

    def __post_init__(self):
        if self.mode not in (FULL, REDUCED):
            raise ValueError(f"mode must be '{FULL}' or '{REDUCED}', got {self.mode!r}")
        if self.on_degenerate not in (HOLD, FAIL):
            raise ValueError(f"on_degenerate must be '{HOLD}' or '{FAIL}'")
        if not self.rel_threshold >= 0:
            raise ValueError(f"rel_threshold must be >= 0, got {self.rel_threshold}")
        if Grid.from_span(0.0, self.r, self.h).count < 3:
            raise ValueError(
                f"window length r={self.r} must be an integer multiple (>= 2) of h={self.h}"
            )

    @property
    def steps_per_window(self):
        return int(round(self.r / self.h))


@dataclass(frozen=True)
class ObserverSnapshot:
    """The streaming observer after ``node`` steps from ``observer_init``.

    The (y, u) history of the current window is an immutable chain of links
    (y_j, u_{j-1}, parent): each step adds one, and a reset node starts a new
    chain, so at most M + 1 links are live and stepping one snapshot twice
    gives two independent branches.
    """

    z: np.ndarray
    w: np.ndarray  # unused in reduced mode
    node: int  # nodes stepped since observer_init; resets fire at node % M == 0
    t0: float
    config: ObserverConfig  # the one observer_init was given
    link: tuple  # (y, u, parent) of this node, or None when not seeded with y0
    right: tuple  # reduced mode: (u, A, b) with A, b at (y, u) of this node, or None
    degenerate_events: int = 0
    last_reset_applied: bool = False

    @property
    def t(self):
        return self.t0 + self.node * self.config.h

    @property
    def next_reset(self):
        M = self.config.steps_per_window
        return self.t0 + (self.node // M + 1) * M * self.config.h

    @property
    def history(self):
        """(y, u) per node of the current window, oldest first.

        u is the input held from that node; the newest node repeats the input
        of the step into it.
        """
        if self.link is None:
            return ()
        y, u = _window_samples(self.link, self.node % self.config.steps_per_window + 1)
        return tuple(zip(y, u))


@dataclass(frozen=True)
class EstimateTrace:
    grid: Grid
    z: np.ndarray  # (count, n)
    w: np.ndarray  # (count, k); mirrors measurements in reduced mode
    reset_flags: np.ndarray  # (count,), 1 at nodes where the jump map fired
    degenerate_flags: np.ndarray  # (count,), 1 at skipped (degenerate) resets
    degenerate_events: int


def _initial_estimate(spec, config, z0, w0, y0):
    """(z0, w0) as float arrays, with y0 checked finite and z0 in the model domain."""
    z0 = np.atleast_1d(np.asarray(z0, dtype=float))
    if w0 is None:
        if config.mode == FULL:
            raise ValueError("full mode requires an initial output estimate w0")
        w0 = np.atleast_1d(np.asarray(y0, dtype=float)) if y0 is not None \
            else np.zeros(spec.k)
    w0 = np.atleast_1d(np.asarray(w0, dtype=float))
    y_ref = np.atleast_1d(np.asarray(y0, dtype=float)) if y0 is not None else w0
    if y0 is not None and not all_finite(y_ref):
        raise NonFiniteState(0, f"non-finite measurement at the initial node (y={y_ref})")
    if not spec.in_domain(z0, y_ref):
        raise DomainViolation(f"initial estimate (z0={z0}, y={y_ref}) outside the model domain")
    return z0, w0


def observer_init(spec, config, z0, w0=None, t0=0.0, y0=None, u0=None):
    """Snapshot at t0 (node 0); the initial measurement starts the window chain.

    ``y0``/``u0`` are the measurement and input at t0 (required when the
    snapshot will be stepped, so that the first reset window spans exactly
    [t0, t0 + r]).  In full mode ``w0`` may differ from the measured output.
    The evaluators' shapes are checked here, once per stream, at (y0, u0).
    """
    z0, w0 = _initial_estimate(spec, config, z0, w0, y0)
    u0 = _vector(u0) if u0 is not None else np.zeros(max(spec.m, 1))
    link = None if y0 is None else (_vector(y0), u0, None)
    check_point_evaluators(spec, w0 if link is None else link[0], u0)
    return ObserverSnapshot(z0, w0, 0, float(t0), config, link, None)


def _vector(x):
    """``x`` as a new float array of at least one dimension."""
    return np.array(x, dtype=float, ndmin=1)


def _window_samples(link, count):
    """(y, u) samples of the last ``count`` nodes of a chain, oldest first.

    Link j carries (y_j, u_{j-1}), so node j's held input u_j comes from the
    link after it; the newest node repeats the input of its own link.
    """
    y, u, parent = link
    Y = np.empty((count, y.size))
    U = np.empty((count, u.size))
    U[-1] = u
    for i in range(count - 1, 0, -1):
        Y[i] = y
        U[i - 1] = u
        y, u, parent = parent
    Y[0] = y
    return Y, U


def _coefficients(spec, y, u):
    return spec.eval_A(y, u), spec.eval_b(y, u)


def _reduced_flow_step(spec, h, z, left, y_prev, y_new, u):
    """One RK4 step of the reduced flow z' = A(y, u) z + b(y, u) over [t, t+h].

    y is interpolated linearly and u holds over the step, so the two midpoint
    stages share one evaluation of A and b.  ``left`` is the previous step's
    (u, A, b) at y_prev; A and b are reused when that u has the same bits as
    this step's, which keeps the arithmetic bit-identical.  Returns the new z
    and (u, A, b) at y_new for the next step.
    """
    if left is not None and left[0].shape == u.shape and left[0].tobytes() == u.tobytes():
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

    ``u`` is the input held over [t, t+h).  The step costs the same whatever
    the window length M: it adds one link to the window chain, and only at
    the reset nodes (every M-th node from ``observer_init``) is the chain
    read into the window fed to the reconstruction operator.  A non-finite
    measurement, flow or reset window raises NonFiniteState with the stream
    node.
    """
    link = snap.link
    if link is None:
        raise ValueError("snapshot has no buffered measurement at its own time; "
                         "initialize with y0")
    if config is not snap.config and (config.r, config.h) != (snap.config.r, snap.config.h):
        raise ValueError(
            f"snapshot was initialized with r={snap.config.r}, h={snap.config.h}; "
            f"cannot step it with r={config.r}, h={config.h}"
        )
    node = snap.node + 1
    t_new = snap.t0 + node * config.h
    y_meas = _vector(y_meas)
    u = _vector(u)
    if not all_finite(y_meas):
        raise NonFiniteState(node, f"non-finite measurement at t = {t_new:.6g}")

    reduced = config.mode == REDUCED
    if reduced:
        z, right = _reduced_flow_step(spec, config.h, snap.z, snap.right, link[0], y_meas, u)
        w = snap.w
    else:
        s = rk4_step(lambda t, s: point_rate(spec, s, u), 0.0,
                     np.concatenate([snap.z, snap.w]), config.h)
        z, w, right = s[:spec.n], s[spec.n:], None
    if not (all_finite(z) and all_finite(w)):
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
        z_reset = _reset(config, node - M, t_new, apply_P, spec, window)
        reset_applied = z_reset is not None
        if reset_applied:
            z, w = z_reset, (w if reduced else y_meas.copy())
        else:
            degenerate_events += 1

    if not spec.in_domain(z, y_meas if reduced else w):
        raise _left_domain(t_new, z)
    return ObserverSnapshot(z, w, node, snap.t0, snap.config, link, right,
                            degenerate_events, reset_applied)


def _at_trace_nodes(start, window_fn, *args):
    """``window_fn(*args)`` for the window from node ``start``; the window-local
    node of a NonFiniteState it raises is re-based to the stream or trace node."""
    try:
        return window_fn(*args)
    except NonFiniteState as exc:
        raise NonFiniteState(start + exc.index) from exc


def _reset(config, start, t, reconstruct, *args):
    """Reset state ``reconstruct(*args, config.rel_threshold)`` of the window
    from node ``start`` that ends at time t, or None when it is degenerate and
    held; under FAIL a degenerate window raises GramDegenerate."""
    try:
        return _at_trace_nodes(start, reconstruct, *args, config.rel_threshold)
    except NotPositiveDefinite as exc:
        if config.on_degenerate == FAIL:
            raise GramDegenerate(f"degenerate reset window at t = {t:.6g}: {exc}") from exc
        return None


def _diverged(node, t):
    return NonFiniteState(node, f"observer flow diverged at t = {t:.6g}")


def _left_domain(t, z):
    return DomainViolation(f"observer state left the model domain at t = {t:.6g} (z={z})")


def run_observer(spec, config, trace, z0, w0=None):
    """Replay a recorded trace through the observer, one reset window at a time.

    Gives the estimates, flags and errors of stepping ``observer_step``
    through the trace from ``observer_init``, without its history buffer:
    resets fire at the nodes i*M (M = r/h), and each reset window is the
    trace slice [j - M, j].  In reduced mode one ``window.flow_window`` per
    window gives the flow z_j = Phi_j z_a + theta_j from the window start a
    and, through ``window.end_state``, the reset.  In full mode (z, w) flows
    step by step and resets go through ``window.apply_P``.  The domain is
    checked at every node; in reduced mode the flowed nodes of a window take
    one ``model.domain_mask`` call.  A NonFiniteState from the window engine
    carries the trace node.  Full mode checks the evaluators' shapes once,
    before it flows.  Fully deterministic.
    """
    grid = trace.grid
    if abs(grid.h - config.h) > 1e-12 * max(grid.h, config.h):
        raise ValueError(
            f"trace step {grid.h} does not match observer step {config.h}"
        )
    y, u = trace.y_meas, trace.u
    reduced = config.mode == REDUCED
    z_init, w_init = _initial_estimate(spec, config, z0, w0, y[0])
    count = grid.count
    M = config.steps_per_window
    z = np.empty((count, spec.n))
    z[0] = z_init
    if reduced:
        w = np.array(y, dtype=float)
    else:
        w = np.empty((count, spec.k))
        w[0] = w_init
        check_point_evaluators(spec, w_init, u[0])
    reset_flags = np.zeros(count, dtype=int)
    degen_flags = np.zeros(count, dtype=int)

    def t_at(j):
        return grid.t0 + j * grid.h

    def check_domain(j):
        if not spec.in_domain(z[j], y[j] if reduced else w[j]):
            raise _left_domain(t_at(j), z[j])

    for a in range(0, count - 1, M):
        b = min(a + M, count - 1)
        window = IoWindow(grid=Grid(0.0, config.h, b - a + 1),
                          y_samples=y[a:b + 1], u_samples=u[a:b + 1])
        if reduced:
            flow, wc = _at_trace_nodes(a, flow_window, spec, window, z[a])
            z[a + 1:b + 1] = flow[1:]
            bad = np.flatnonzero(~np.isfinite(flow[1:]).all(axis=1))
            end = a + 1 + int(bad[0]) if bad.size else b
            inside = domain_mask(spec, z[a + 1:end], y[a + 1:end])
            if not inside.all():
                j = a + 1 + int(np.argmin(inside))
                raise _left_domain(t_at(j), z[j])
            if bad.size:
                raise _diverged(end, t_at(end))
        else:
            s = np.concatenate([z[a], w[a]])
            for j in range(a + 1, b + 1):
                u_held = u[j - 1]
                s = rk4_step(lambda t, s: point_rate(spec, s, u_held), 0.0, s, config.h)
                z[j], w[j] = s[:spec.n], s[spec.n:]
                if not (all_finite(z[j]) and all_finite(w[j])):
                    raise _diverged(j, t_at(j))
                if j < b:
                    check_domain(j)
        if b - a == M:
            z_reset = (_reset(config, a, t_at(b), end_state, wc) if reduced
                       else _reset(config, a, t_at(b), apply_P, spec, window))
            if z_reset is None:
                degen_flags[b] = 1
            else:
                z[b], w[b] = z_reset, y[b]
                reset_flags[b] = 1
        check_domain(b)
    return EstimateTrace(grid=grid, z=z, w=w, reset_flags=reset_flags,
                         degenerate_flags=degen_flags,
                         degenerate_events=int(degen_flags.sum()))
