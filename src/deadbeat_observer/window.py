"""Window computations: transition quantities, Gram matrix and reconstruction.

Given a recorded output/input window of duration r, the four coupled linear
ODEs

    Phi' = A(y, u) Phi        Phi(0) = I
    theta' = A(y, u) theta + b(y, u)   theta(0) = 0
    q' = Phi' C(y)            q(0) = 0
    xi' = f(y, u) + C'(y) theta        xi(0) = 0

are integrated by classical RK4 along the window.  They are linear, and
their coefficients depend only on the recorded (y, u), so the integration
is done in closed form:

  * A, b, C and f are evaluated once, in one batch, at the three stage
    points of every step (left node, midpoint, right node);
  * with Z = [[Phi, theta], [0, 1]], the RK4 step is exactly Z_{j+1} = T_j Z_j
    for a per-step propagator T_j = I + D_j built from those coefficients by
    batched matrix products; the prefix product Z_j = T_{j-1} ... T_0 is the
    only loop over nodes;
  * the RK4 increment of [q; xi'] over step j is Z_j' W_j for a per-step
    matrix W_j, so q and xi are a batched contraction and a cumulative sum.

This equals the node-by-node RK4 of the four ODEs up to rounding.

With p(t) = y(t) - y(0) - xi(t), the Gram matrix Q = int q q' dt and
right-hand side v = int q p dt give the window-initial unmeasured state as
x0 = Q^{-1} v, and the reconstruction operator maps the window to the state
at its end: Phi(r) x0 + theta(r).  Resets and certificates alike decide the
window by one ``spd_solve`` and its one rule, ``numerics.require_pivot``: the
window is degenerate when the smallest squared Cholesky pivot of Q is at or
below REL_THRESHOLD * trace(Q)/n, and strongly observable otherwise.
A Q or v that is not finite is no verdict: ``gram`` raises NonFiniteState at
the window's last node instead, with a message that names the Gram matrix.

Between grid nodes, y is interpolated linearly (it is a continuous state)
while u holds the value of the left node (inputs may be discontinuous).
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, KappaVanished, NonFiniteState, NotPositiveDefinite
from .model import SystemSpec, as_channels, check_point_evaluators, eval_coefficients
# cholesky_pivots is not called here; perfbench/spans.py counts calls through this name
from .numerics import Grid, all_finite, cholesky_pivots, spd_solve, trapezoid

_KAPPA_TOL = 1e-9  # |kappa| at or below this counts as vanished


class _GramOverflow(NonFiniteState):
    def __init__(self, index):
        super().__init__(
            index, f"non-finite Gram matrix of the window ending at grid index {index}")


@dataclass(frozen=True)
class IoWindow:
    """Sampled (y, u) history over [0, r] in window-local time."""

    grid: Grid
    y_samples: np.ndarray  # (count, k), or (count,) for k = 1
    u_samples: np.ndarray  # (count, m), or (count,) for m = 1

    def __post_init__(self):
        y, u = as_channels(self.y_samples), as_channels(self.u_samples)
        if y.ndim != 2 or u.ndim != 2 or {y.shape[0], u.shape[0]} != {self.grid.count}:
            raise DimensionMismatch(
                f"window samples of shapes {y.shape} and {u.shape} do not match "
                f"grid with {self.grid.count} nodes"
            )
        object.__setattr__(self, "y_samples", y)
        object.__setattr__(self, "u_samples", u)


@dataclass(frozen=True)
class WindowComputation:
    grid: Grid
    phi: np.ndarray  # (count, n, n)
    theta: np.ndarray  # (count, n)
    q: np.ndarray  # (count, n, k)
    xi: np.ndarray  # (count, k)
    p: np.ndarray  # (count, k)


@dataclass(frozen=True)
class GramSummary:
    Q: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class Degenerate:
    null_direction: np.ndarray
    eigenvalues: np.ndarray  # of Q, ascending
    smallest_pivot: float


@dataclass(frozen=True)
class StronglyObservableOnWindow:
    eigenvalues: np.ndarray  # of Q, ascending
    smallest_pivot: float


def compute_window(spec, window):
    """Integrate the window ODEs for Phi, theta, q, xi and assemble p.

    Raises DimensionMismatch unless the window holds k outputs and m inputs,
    and NonFiniteState at the first node where any of them is not finite.
    """
    n, k = spec.n, spec.k
    grid = window.grid
    y_s = window.y_samples
    u_s = window.u_samples
    if y_s.shape[1] != k or u_s.shape[1] != spec.m:
        raise DimensionMismatch(f"window samples of shapes {y_s.shape} and {u_s.shape} "
                                f"for a plant with k = {k} and m = {spec.m}")
    steps = grid.count - 1
    h = grid.h
    eye = np.eye(n + 1)

    with np.errstate(all="ignore"):
        # augmented coefficients: M = [[A, b], [0, 0]] drives Z = [[Phi, theta], [0, 1]],
        # and Caug = [C; f'] gives the q and xi rates as Z' Caug
        M = np.zeros((3 * steps, n + 1, n + 1))
        Caug = np.empty((3 * steps, n + 1, k))
        # A, b, C and f at the stage points of every step: left node, midpoint,
        # right node, all with the input of the left node
        u = u_s[:-1]
        M[:, :n, :n], M[:, :n, n], Caug[:, :n], Caug[:, n] = eval_coefficients(
            spec, np.concatenate([y_s[:-1], 0.5 * (y_s[:-1] + y_s[1:]), y_s[1:]]),
            np.concatenate([u, u, u]))
        M1, M2, M4 = np.split(M, 3)
        C1, C2, C4 = np.split(Caug, 3)

        # RK4 stage states as maps of Z_j: S1 = I, S2 = I + h/2 M1,
        # S3 = I + h/2 M2 S2, S4 = I + h M2 S3, with stage rates K_s = M_s S_s.
        # The step is Z_{j+1} = Z_j + D_j Z_j with D = h/6 (M1 + 2 K2 + 2 K3 + K4)
        # (adding the identity to D would round away its low bits), and the
        # increment of [q; xi'] over step j is Z_j' W_j with
        # W = h/6 (C1 + 2 S2' C2 + 2 S3' C2 + S4' C4).
        S2 = M1 * (0.5 * h) + eye
        K2 = M2 @ S2
        S3 = K2 * (0.5 * h) + eye
        K3 = M2 @ S3
        S4 = K3 * h + eye
        D = (K2 * 2.0 + M1 + K3 + K3 + M4 @ S4) * (h / 6.0)
        W = ((np.swapaxes(S2, 1, 2) @ C2 + np.swapaxes(S3, 1, 2) @ C2) * 2.0 + C1
             + np.swapaxes(S4, 1, 2) @ C4) * (h / 6.0)

        Z = np.empty((steps + 1, n + 1, n + 1))
        Z[0] = eye
        for D_j, Z_j, Z_next in zip(D, Z[:-1], Z[1:]):
            np.dot(D_j, Z_j, out=Z_next)
            Z_next += Z_j
        G = np.empty((steps + 1, n + 1, k))
        G[0] = 0.0
        np.cumsum(np.swapaxes(Z[:-1], 1, 2) @ W, axis=0, out=G[1:])

        phi, theta = Z[:, :n, :n], Z[:, :n, n]
        q, xi = G[:, :n], G[:, n]
        p = y_s - y_s[0] - xi
        finite = (np.isfinite(Z).all(axis=(1, 2)) & np.isfinite(G).all(axis=(1, 2))
                  & np.isfinite(p).all(axis=1))
    if not finite.all():
        raise NonFiniteState(int(np.argmin(finite)))
    return WindowComputation(grid=grid, phi=phi, theta=theta, q=q, xi=xi, p=p)


def gram(wc):
    """Q = int q q' dt and v = int q p dt; NonFiniteState at the last node if either overflows."""
    grid = wc.grid
    q = wc.q  # (count, n, k)
    p = wc.p  # (count, k)
    with np.errstate(all="ignore"):
        qq = np.einsum("tik,tjk->tij", q, q)
        Q = trapezoid(qq.reshape(grid.count, -1), grid).reshape(q.shape[1], q.shape[1])
        Q = 0.5 * (Q + Q.T)  # enforce exact symmetry
        qp = np.einsum("tik,tk->ti", q, p)
        v = trapezoid(qp, grid)
    if not (all_finite(Q) and all_finite(v)):
        raise _GramOverflow(grid.count - 1)
    return GramSummary(Q=Q, v=v)


def reconstruct_initial(gs):
    """Window-initial unmeasured state Q^{-1} v (raises NotPositiveDefinite)."""
    x0_hat, _ = spd_solve(gs.Q, gs.v)
    return x0_hat


def end_state(wc):
    """Phi(r) Q^{-1} v + theta(r) of a computed window (raises NotPositiveDefinite)."""
    x0_hat = reconstruct_initial(gram(wc))
    return wc.phi[-1] @ x0_hat + wc.theta[-1]


def apply_P(spec, window):
    """Reconstruction operator: unmeasured state at the end of the window.

    For a noiseless window of a strongly observable plant this equals the true
    state at the window end, up to integration error.
    """
    return end_state(compute_window(spec, window))


def observability_certificate(gs):
    """Strong-distinguishability verdict on the window.

    Decided exactly as a reset is, by ``spd_solve``.  Both
    verdicts carry the eigenvalues of Q and the smallest Cholesky pivot;
    Degenerate also carries the approximate null direction (eigenvector of
    the smallest eigenvalue; e0 when Q is zero), the only use of ``eigh``.
    """
    eigenvalues = np.linalg.eigvalsh(gs.Q)
    try:
        _, smallest_pivot = spd_solve(gs.Q, gs.v)
    except NotPositiveDefinite as exc:
        null = (np.linalg.eigh(gs.Q)[1][:, 0] if np.trace(gs.Q) > 0
                else np.eye(len(gs.Q))[0])
        return Degenerate(null, eigenvalues, exc.smallest_pivot)
    return StronglyObservableOnWindow(eigenvalues, smallest_pivot)


def determinant_condition(spec, window, wc, node_indices):
    """Determinant of the stacked rows C'(t_i) Phi(t_i) (single-output plants).

    A nonzero value certifies that the window's generating input strongly
    distinguishes the generating state.  The per-point evaluators are checked
    once, at the first requested node, so a spec that breaks their contract
    raises DimensionMismatch, as do a plant with k != 1 and a node index
    outside the window.
    """
    if spec.k != 1:
        raise DimensionMismatch(f"determinant condition requires k = 1, got k = {spec.k}")
    n = spec.n
    if len(node_indices) != n:
        raise DimensionMismatch(f"need exactly {n} node indices, got {len(node_indices)}")
    count = window.grid.count
    if not all(0 <= j < count for j in node_indices):
        raise DimensionMismatch(f"node indices {list(node_indices)} outside 0..{count - 1}")
    first = node_indices[0]
    check_point_evaluators(spec, window.y_samples[first], window.u_samples[first])
    rows = np.empty((n, n))
    for i, j in enumerate(node_indices):
        rows[i] = spec.eval_C(window.y_samples[j])[:, 0] @ wc.phi[j]
    return float(np.linalg.det(rows))


@dataclass(frozen=True)
class Example26Spec:
    """Planar system with diagonal drift used to build indistinguishing inputs.

        x1' = a1(y) x1,  x2' = a2(y) x2,  y' = u + c1(y) x1 + c2(y) x2

    ``kappa`` is d/dy ln(c1(y)/c2(y)); the construction requires it to keep
    its sign and stay away from zero along the constructed output trajectory.
    The callables take and return Python floats; the system spec's
    ``eval_batch`` calls a1, a2, c1 and c2 once per point.
    """

    a1: Callable
    a2: Callable
    c1: Callable
    c2: Callable
    kappa: Callable

    def to_system_spec(self):
        def eval_A(y, u):
            return np.array([[self.a1(y[0]), 0.0], [0.0, self.a2(y[0])]])

        def eval_C(y):
            return np.array([[self.c1(y[0])], [self.c2(y[0])]])

        def eval_batch(Y, U):
            ys = Y[:, 0].tolist()
            A = np.zeros((len(ys), 2, 2))
            A[:, 0, 0] = [self.a1(y) for y in ys]
            A[:, 1, 1] = [self.a2(y) for y in ys]
            C = np.empty((len(ys), 2, 1))
            C[:, 0, 0] = [self.c1(y) for y in ys]
            C[:, 1, 0] = [self.c2(y) for y in ys]
            return A, np.zeros((len(ys), 2)), C, U[:, :1]

        b = np.zeros(2)
        return SystemSpec(
            n=2, k=1, m=1,
            eval_A=eval_A,
            eval_b=lambda y, u: b,
            eval_C=eval_C,
            eval_f=lambda y, u: np.array([u[0]]),
            eval_batch=eval_batch,
        )


def indistinguishing_input(ex, x0, y0, grid):
    """Construct the input under which the state (x0, y0) is not distinguished.

    Integrates y' = (a2(y) - a1(y)) / kappa(y) from y0 and evaluates

        u(t) = (a2 - a1)/kappa - c2(y) exp(int a2) (x20 + x10 c1(y0)/c2(y0))

    on the grid.  Returns (u_samples, y_samples).  The window recorded by
    driving the true plant with this input has a singular Gram matrix.
    x0 must have shape (2,) and y0 shape (1,) or (), else DimensionMismatch.
    """
    x0 = np.asarray(x0, dtype=float)
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if (x0.shape, y0.shape) != ((2,), (1,)):
        raise DimensionMismatch(f"initial states of shapes x0 {x0.shape} and y0 "
                                f"{y0.shape}, expected (2,) and (1,)")
    y0 = float(y0[0])
    kappa0 = ex.kappa(y0)
    if abs(kappa0) <= _KAPPA_TOL:
        raise KappaVanished(f"kappa({y0}) = {kappa0:.3e}")
    sign = 1.0 if kappa0 > 0 else -1.0

    from .numerics import integrate_rk4

    def field(t, s):
        y = s[0].item()
        kap = ex.kappa(y)
        if sign * kap <= _KAPPA_TOL:
            raise KappaVanished(f"kappa vanished or changed sign at y = {y:.6g}")
        return np.array([(ex.a2(y) - ex.a1(y)) / kap, ex.a2(y)])

    traj = integrate_rk4(field, np.array([y0, 0.0]), grid)
    y = traj[:, 0]
    int_a2 = traj[:, 1]
    mix = x0[1] + x0[0] * ex.c1(y0) / ex.c2(y0)
    ys = y.tolist()
    kap = np.array([ex.kappa(v) for v in ys])
    if np.any(sign * kap <= _KAPPA_TOL):
        raise KappaVanished("kappa vanished or changed sign along the constructed trajectory")
    drift = np.array([(ex.a2(v) - ex.a1(v)) for v in ys]) / kap
    c2_along = np.array([ex.c2(v) for v in ys])
    u = drift - c2_along * np.exp(int_a2) * mix
    return u.reshape(-1, 1), y.reshape(-1, 1)

