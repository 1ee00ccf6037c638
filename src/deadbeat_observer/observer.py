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

Streaming (``observer_init``/``observer_step``) advances one step of size h
per measurement and buffers the (y, u) history of the current window.
Replay (``run_observer``) takes a whole recorded trace and works one reset
window at a time, cutting each window straight from the trace: in reduced
mode one window computation gives both the flow and the reset.
"""

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainViolation, GramDegenerate, NonFiniteState, NotPositiveDefinite
from .numerics import DEFAULT_REL_THRESHOLD, Grid
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
        if Grid.from_span(0.0, self.r, self.h).count < 3:
            raise ValueError(
                f"window length r={self.r} must be an integer multiple (>= 2) of h={self.h}"
            )

    @property
    def steps_per_window(self):
        return int(round(self.r / self.h))


@dataclass(frozen=True)
class ObserverSnapshot:
    t: float
    z: np.ndarray
    w: np.ndarray  # unused in reduced mode
    next_reset: float
    history: tuple  # ((y, u) per node, most recent last), spans at most r
    degenerate_events: int = 0
    last_reset_applied: bool = False


@dataclass(frozen=True)
class EstimateTrace:
    grid: Grid
    z: np.ndarray  # (count, n)
    w: np.ndarray  # (count, k); mirrors measurements in reduced mode
    reset_flags: np.ndarray  # (count,), 1 at nodes where the jump map fired
    degenerate_flags: np.ndarray  # (count,), 1 at skipped (degenerate) resets
    degenerate_events: int


def _initial_estimate(spec, config, z0, w0, y0):
    """(z0, w0) as float arrays, with z0 checked against the model domain."""
    z0 = np.atleast_1d(np.asarray(z0, dtype=float))
    if w0 is None:
        if config.mode == FULL:
            raise ValueError("full mode requires an initial output estimate w0")
        w0 = np.atleast_1d(np.asarray(y0, dtype=float)) if y0 is not None \
            else np.zeros(spec.k)
    w0 = np.atleast_1d(np.asarray(w0, dtype=float))
    y_ref = np.atleast_1d(np.asarray(y0, dtype=float)) if y0 is not None else w0
    if not spec.in_domain(z0, y_ref):
        raise DomainViolation(f"initial estimate (z0={z0}, y={y_ref}) outside the model domain")
    return z0, w0


def observer_init(spec, config, z0, w0=None, t0=0.0, y0=None, u0=None):
    """Snapshot at t0; the initial measurement seeds the window buffer.

    ``y0``/``u0`` are the measurement and input at t0 (required when the
    snapshot will be stepped, so that the first reset window spans exactly
    [t0, t0 + r]).  In full mode ``w0`` may differ from the measured output.
    """
    z0, w0 = _initial_estimate(spec, config, z0, w0, y0)
    history = ()
    if y0 is not None:
        u0 = np.atleast_1d(np.asarray(u0, dtype=float)) if u0 is not None \
            else np.zeros(max(spec.m, 1))
        history = ((np.atleast_1d(np.asarray(y0, dtype=float)), u0),)
    return ObserverSnapshot(t=t0, z=z0, w=w0, next_reset=t0 + config.r,
                            history=history)


def _flow_step(spec, config, z, w, y_prev, y_new, u):
    """One RK4 step of the mode's flow field over [t, t+h].

    The reduced branch serves streaming only: ``run_observer`` gets the
    reduced flow of a whole window from ``window.flow_window``.
    """
    h = config.h
    n, k = spec.n, spec.k

    if config.mode == FULL:
        def rhs(state):
            zc, wc = state[:n], state[n:]
            A = np.asarray(spec.eval_A(wc, u), dtype=float)
            b = np.asarray(spec.eval_b(wc, u), dtype=float)
            C = np.asarray(spec.eval_C(wc), dtype=float).reshape(n, k)
            f = np.atleast_1d(np.asarray(spec.eval_f(wc, u), dtype=float))
            return np.concatenate([A @ zc + b, f + C.T @ zc])

        s = np.concatenate([z, w])
        k1 = rhs(s)
        k2 = rhs(s + 0.5 * h * k1)
        k3 = rhs(s + 0.5 * h * k2)
        k4 = rhs(s + h * k3)
        s = s + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return s[:n], s[n:]

    # reduced: flow driven by the measured output, interpolated linearly;
    # the two midpoint stages share one evaluation of A and b
    ym = 0.5 * (y_prev + y_new)

    def coefficients(yc):
        return (np.asarray(spec.eval_A(yc, u), dtype=float),
                np.asarray(spec.eval_b(yc, u), dtype=float))

    A1, b1 = coefficients(y_prev)
    Am, bm = coefficients(ym)
    A4, b4 = coefficients(y_new)
    k1 = A1 @ z + b1
    k2 = Am @ (z + 0.5 * h * k1) + bm
    k3 = Am @ (z + 0.5 * h * k2) + bm
    k4 = A4 @ (z + h * k3) + b4
    return z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), w


def observer_step(spec, config, snap, y_meas, u):
    """Advance one step of size h; ``y_meas`` is the measurement at t + h.

    ``u`` is the input held over [t, t+h).  When the new time reaches the
    reset clock, the buffered window is fed to the reconstruction operator.
    """
    if not snap.history:
        raise ValueError("snapshot has no buffered measurement at its own time; "
                         "initialize with y0")
    y_meas = np.atleast_1d(np.asarray(y_meas, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    y_prev = snap.history[-1][0]

    z, w = _flow_step(spec, config, snap.z, snap.w, y_prev, y_meas, u)
    if not np.all(np.isfinite(z)) or not np.all(np.isfinite(w)):
        raise NonFiniteState(None, f"observer flow diverged at t = {snap.t + config.h:.6g}")
    t_new = snap.t + config.h

    M = config.steps_per_window
    history = list(snap.history[-M:])
    history[-1] = (y_prev, u)  # u holds from the node we just left
    history.append((y_meas, u))

    degenerate_events = snap.degenerate_events
    next_reset = snap.next_reset
    reset_applied = False
    if t_new >= next_reset - 1e-9 * config.h:
        if len(history) == M + 1:
            win = IoWindow(
                grid=Grid(0.0, config.h, M + 1),
                y_samples=np.vstack([e[0] for e in history]),
                u_samples=np.vstack([e[1] for e in history]),
            )
            try:
                z = apply_P(spec, win, config.rel_threshold)
                if config.mode == FULL:
                    w = y_meas.copy()
                reset_applied = True
            except NotPositiveDefinite as exc:
                if config.on_degenerate == FAIL:
                    raise GramDegenerate(
                        f"degenerate reset window at t = {t_new:.6g}: {exc}"
                    ) from exc
                degenerate_events += 1
        else:
            # not enough buffered history (clock started mid-stream): skip
            degenerate_events += 1
        next_reset = next_reset + config.r

    y_check = y_meas if config.mode == REDUCED else w
    if not spec.in_domain(z, y_check):
        raise DomainViolation(
            f"observer state left the model domain at t = {t_new:.6g} (z={z})"
        )
    return replace(snap, t=t_new, z=z, w=w, next_reset=next_reset,
                   history=tuple(history), degenerate_events=degenerate_events,
                   last_reset_applied=reset_applied)


@contextmanager
def _at_trace_nodes(start):
    """Re-base the window-local node of a NonFiniteState to the trace node."""
    try:
        yield
    except NonFiniteState as exc:
        raise NonFiniteState(start + exc.index) from exc


def run_observer(spec, config, trace, z0, w0=None):
    """Replay a recorded trace through the observer, one reset window at a time.

    Gives the estimates, flags and errors of stepping ``observer_step``
    through the trace from ``observer_init``, without its history buffer:
    resets fire at the nodes i*M (M = r/h), and each reset window is the
    trace slice [j - M, j].  In reduced mode one ``window.flow_window`` per
    window gives the flow z_j = Phi_j z_a + theta_j from the window start a
    and, through ``window.end_state``, the reset.  In full mode (z, w) flows
    step by step and resets go through ``window.apply_P``.  The domain is
    checked at every node.  A NonFiniteState from the window engine carries
    the trace node.  Fully deterministic.
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
    reset_flags = np.zeros(count, dtype=int)
    degen_flags = np.zeros(count, dtype=int)

    def t_at(j):
        return grid.t0 + j * grid.h

    def diverged(j):
        return NonFiniteState(j, f"observer flow diverged at t = {t_at(j):.6g}")

    def check_domain(j):
        if not spec.in_domain(z[j], y[j] if reduced else w[j]):
            raise DomainViolation(
                f"observer state left the model domain at t = {t_at(j):.6g} (z={z[j]})"
            )

    for a in range(0, count - 1, M):
        b = min(a + M, count - 1)
        window = IoWindow(grid=Grid(0.0, config.h, b - a + 1),
                          y_samples=y[a:b + 1], u_samples=u[a:b + 1])
        if reduced:
            with _at_trace_nodes(a):
                flow, wc = flow_window(spec, window, z[a])
            z[a + 1:b + 1] = flow[1:]
            bad = np.flatnonzero(~np.isfinite(flow[1:]).all(axis=1))
            end = a + 1 + int(bad[0]) if bad.size else b
            for j in range(a + 1, end):
                check_domain(j)
            if bad.size:
                raise diverged(end)
        else:
            for j in range(a + 1, b + 1):
                z[j], w[j] = _flow_step(spec, config, z[j - 1], w[j - 1],
                                        y[j - 1], y[j], u[j - 1])
                if not (np.isfinite(z[j]).all() and np.isfinite(w[j]).all()):
                    raise diverged(j)
                if j < b:
                    check_domain(j)
        if b - a == M:
            try:
                with _at_trace_nodes(a):
                    z[b] = (end_state(wc, config.rel_threshold) if reduced
                            else apply_P(spec, window, config.rel_threshold))
                w[b] = y[b]
                reset_flags[b] = 1
            except NotPositiveDefinite as exc:
                if config.on_degenerate == FAIL:
                    raise GramDegenerate(
                        f"degenerate reset window at t = {t_at(b):.6g}: {exc}"
                    ) from exc
                degen_flags[b] = 1
        check_domain(b)
    return EstimateTrace(grid=grid, z=z, w=w, reset_flags=reset_flags,
                         degenerate_flags=degen_flags,
                         degenerate_events=int(degen_flags.sum()))
