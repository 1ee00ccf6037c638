"""Hand-derived reconstructions that the tests check the generic engine against.

The package reconstructs every plant through one construction: the window
Gram matrix, its solve and the map to the window's end.  The paper also
derives closed forms for some of its examples; they live here, beside the
tests that compare them with that construction (criterion 7 among them):

  * ``reactor_gains``: the batch reactor's kernel-quotient reconstruction;
  * ``check_hypothesis`` and ``min_window_reactor``: the paper's sufficient
    margin condition for the reactor, for a given margin a > 0, and the
    window r = (Tmax - Tmin)/a it guarantees;
  * ``scalar_observer_P``: the single-fraction formula of scalar plants;
  * ``scalar_oracle_spec``: the canonical scalar test system;
  * ``scalar_spec``: the plant x' = a0 x, y' = f0 + g u + (c0 + c1 y) x, the
    suite's only plant with both an output-dependent C and an input gain;
  * ``indistinguishable_partner``: the state that example 2.6's constructed
    input does not distinguish from the generating one;
  * ``determinant_condition``: the determinant of the output rows C'(t_i) Phi(t_i)
    at n window nodes.  Its certificate holds in exact arithmetic only: it has
    no threshold, and on a window that the Gram matrix calls degenerate it
    reads integration error.  The package decides a window by
    ``require_pivot`` on its Gram matrix alone;
  * ``pointwise_coefficients``: a system's window coefficients filled point
    by point from its per-point evaluators, the reference of every
    ``eval_batch``; ``pointwise_spec`` builds a test system whose batch is it;
  * ``cumulative_trapezoid``: the package's running integral into a new
    array, as the oracles take it;
  * ``closed_form_rows``: the frequency plant's closed-form reconstruction
    written with one fresh array per quantity and one ``trapezoid`` call per
    integral, the bit-for-bit reference of ``applications._closed_form_rows``.

Test modules import them as ``from oracles import ...``.
"""

import math
from dataclasses import dataclass

import numpy as np

from deadbeat_observer import numerics
from deadbeat_observer.errors import DimensionMismatch, DomainExit, NonFiniteState
from deadbeat_observer.model import SystemSpec, check_point_evaluators, make_lti
from deadbeat_observer.numerics import Grid, require_pivot, spd_solve, trapezoid


def cumulative_trapezoid(samples, grid):
    """``numerics.cumulative_trapezoid`` of ``samples`` into a new array."""
    samples = np.asarray(samples, dtype=float)
    return numerics.cumulative_trapezoid(samples, grid, np.empty_like(samples))


@dataclass(frozen=True)
class ReactorGains:
    G: np.ndarray  # least-squares coefficients (window-initial concentrations)
    phi1: np.ndarray
    phi2: np.ndarray
    Phi_r: np.ndarray  # transition matrix over the window
    state_estimate: np.ndarray  # Phi_r @ G: concentrations at the window end


def reactor_gains(T_window, p, grid):
    """Closed-form reduced-order reconstruction from a temperature window.

    Builds the two kernel functions phi1, phi2 by nested quadrature, solves
    the 2x2 least-squares system for the window-initial concentrations and
    maps them forward with the explicit lower-triangular transition matrix.
    """
    T = np.asarray(T_window, dtype=float).reshape(-1)
    if T.shape[0] != grid.count:
        raise DimensionMismatch(f"{T.shape[0]} temperature samples for a {grid.count}-node grid")
    outside = np.flatnonzero((T <= p.Tmin) | (T >= p.Tmax))
    if outside.size:
        raise DomainExit(int(outside[0]), f"temperature window leaves (Tmin, Tmax) "
                                          f"at window node {outside[0]}")
    r1 = p.k1 * np.exp(-p.E1 / T)
    r2 = p.k2 * np.exp(-p.E2 / T)
    K1 = cumulative_trapezoid(r1, grid)
    K2 = cumulative_trapezoid(r2, grid)
    # I(t) = int_0^t exp(-E1/T(tau) - (K2(t) - K2(tau)) - K1(tau)) dtau
    inner = cumulative_trapezoid(np.exp(-p.E1 / T + K2 - K1), grid)
    I = np.exp(-K2) * inner
    phi1 = (p.J1 + p.J2) * (1.0 - np.exp(-K1)) - p.J2 * p.k1 * I
    phi2 = p.J2 * (1.0 - np.exp(-K2))
    psi = T - T[0] - cumulative_trapezoid(p.h_coef * (p.Ts - T), grid)

    s11 = trapezoid(phi1 * phi1, grid)
    s22 = trapezoid(phi2 * phi2, grid)
    s12 = trapezoid(phi1 * phi2, grid)
    b1 = trapezoid(psi * phi1, grid)
    b2 = trapezoid(psi * phi2, grid)
    G, _ = spd_solve(np.array([[s11, s12], [s12, s22]]), np.array([b1, b2]))
    Phi_r = np.array([
        [np.exp(-K1[-1]), 0.0],
        [p.k1 * I[-1], np.exp(-K2[-1])],
    ])
    return ReactorGains(G=G, phi1=phi1, phi2=phi2, Phi_r=Phi_r,
                        state_estimate=Phi_r @ G)


class HypothesisFails(Exception):
    """The margin hypothesis fails, so ``min_window_reactor`` has no window."""


@dataclass(frozen=True)
class HypothesisHolds:
    margin: float
    gated_points: int


@dataclass(frozen=True)
class HypothesisFailsAt:
    worst_T: float
    worst_value: float


def _margin_expression(p, T):
    """Drift of the temperature along a hypothetical indistinguishable trajectory."""
    bracket = (p.J1 + p.J2) * p.k2 - p.J1 * p.k1 * np.exp((p.E2 - p.E1) / T)
    return T * T / ((p.E2 - p.E1) * p.J1) * np.exp(-p.E2 / T) * bracket


def check_hypothesis(p, a, which="A1"):
    """Observability-margin hypothesis check, for a margin a > 0 (K/s), inside a
    10001-point grid on [Tmin, Tmax].

    For equal activation temperatures the condition is algebraic:
    (J1 + J2) k2 != J1 k1.  Otherwise the drift expression is scanned over
    temperatures where the gating inequality fires: the signed drift (-drift
    for "A1", drift for "A2") must be >= a there.  The margin is its minimum
    over the gated set, or min |drift| over the whole grid when no point is
    gated; then no indistinguishable trajectory exists at all and both
    labels hold with the same margin.
    """
    if which not in ("A1", "A2"):
        raise ValueError(f"which must be 'A1' or 'A2', got {which!r}")
    if p.E1 == p.E2:
        gap = abs((p.J1 + p.J2) * p.k2 - p.J1 * p.k1)
        ref = max((p.J1 + p.J2) * p.k2, p.J1 * p.k1)
        if gap <= 1e-12 * ref:
            return HypothesisFailsAt(worst_T=p.Tmin, worst_value=0.0)
        return HypothesisHolds(margin=gap, gated_points=0)
    T_grid = np.linspace(p.Tmin, p.Tmax, 10001)[1:-1]
    drift = _margin_expression(p, T_grid)
    gated = drift / p.h_coef + T_grid > p.Ts
    if not np.any(gated):
        return HypothesisHolds(margin=float(np.min(np.abs(drift))), gated_points=0)
    active, vals = T_grid[gated], drift[gated]
    signed = -vals if which == "A1" else vals
    worst = np.argmin(signed)
    if signed[worst] < a:
        return HypothesisFailsAt(worst_T=float(active[worst]), worst_value=float(vals[worst]))
    return HypothesisHolds(margin=float(signed[worst]), gated_points=int(np.count_nonzero(gated)))


# any r > 0 works when E1 = E2 in exact arithmetic only: at numerics.REL_THRESHOLD
# the 1 s window of the perturbed lumped set is degenerate; a documented default
DEFAULT_EQUAL_E_WINDOW = 1.0


def min_window_reactor(p, a, which="A1"):
    """Smallest window length guaranteeing strong observability for the margin a."""
    result = check_hypothesis(p, a, which)
    if isinstance(result, HypothesisFailsAt):
        raise HypothesisFails(
            f"hypothesis {which} fails at T = {result.worst_T:.6g} "
            f"(value {result.worst_value:.6g})"
        )
    if p.E1 == p.E2:
        return DEFAULT_EQUAL_E_WINDOW
    return (p.Tmax - p.Tmin) / min(a, result.margin)


def scalar_observer_P(window, a_eval, f_eval, c_eval):
    """Closed-form reconstruction for scalar plants x' = a(y,u) x, y' = f + c(y) x.

    Evaluates the single-fraction formula by nested quadrature:
    exp(int a) times the quotient int p g / int g^2 with
    g(tau) = int_0^tau c(y) exp(int_0^s a) ds and p = y - y(0) - int f.
    """
    grid = window.grid
    y = window.y_samples[:, 0]
    u = window.u_samples
    a_s = np.array([a_eval(y[j], u[j]) for j in range(grid.count)])
    f_s = np.array([f_eval(y[j], u[j]) for j in range(grid.count)])
    c_s = np.array([c_eval(y[j]) for j in range(grid.count)])
    int_a = cumulative_trapezoid(a_s, grid)
    g = cumulative_trapezoid(c_s * np.exp(int_a), grid)
    p = y - y[0] - cumulative_trapezoid(f_s, grid)
    num = trapezoid(p * g, grid)
    den = trapezoid(g * g, grid)
    require_pivot(den, den, 1)
    return float(np.exp(int_a[-1]) * num / den)


def scalar_oracle_spec():
    """The canonical test system x' = 0, y' = x (n = k = 1)."""
    return make_lti(np.zeros((1, 1)), np.zeros(1), np.ones((1, 1)), np.zeros(1))


def scalar_spec(sys_cfg):
    """Scalar plant x' = a0 x, y' = f0 + g u + (c0 + c1 y) x."""
    a0 = sys_cfg.get("a0", 0.0)
    f0 = sys_cfg.get("f0", 0.0)
    g = sys_cfg.get("input_gain", 0.0)
    c0 = sys_cfg.get("c0", 1.0)
    c1 = sys_cfg.get("c1", 0.0)
    A, b = np.array([[a0]]), np.zeros(1)

    def eval_batch(Y, U):
        N = Y.shape[0]
        return (np.full((N, 1, 1), a0), np.zeros((N, 1)),
                (c0 + c1 * Y[:, :1])[:, :, None], f0 + g * U[:, :1])

    return SystemSpec(
        n=1, k=1, m=1,
        eval_A=lambda y, u: A,
        eval_b=lambda y, u: b,
        eval_C=lambda y: np.array([[c0 + c1 * y[0]]]),
        eval_f=lambda y, u: np.array([f0 + g * u[0]]),
        eval_batch=eval_batch,
    )


def indistinguishable_partner(ex, x0, y0, xi1):
    """The state sharing the output of (x0, y0) under the constructed input.

    Any first component xi1 works; the second is pinned by the construction.
    """
    x0 = np.asarray(x0, dtype=float)
    ratio = ex.c1(float(y0)) / ex.c2(float(y0))
    return np.array([xi1, x0[1] + ratio * (x0[0] - xi1)])


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


def pointwise_coefficients(spec, Y, U):
    """(A, b, C, f) at each row of (Y, U), stacked along a leading axis.

    Checks the four per-point evaluators at the first row, then fills the
    stacks point by point.
    """
    check_point_evaluators(spec, Y[0], U[0])
    n, k, N = spec.n, spec.k, Y.shape[0]
    A, b, C, f = (np.empty(shape) for shape in ((N, n, n), (N, n), (N, n, k), (N, k)))
    for i in range(N):
        y, u = Y[i], U[i]
        A[i] = spec.eval_A(y, u)
        b[i] = spec.eval_b(y, u)
        C[i] = spec.eval_C(y)
        f[i] = spec.eval_f(y, u)
    return A, b, C, f


def pointwise_spec(**fields):
    """SystemSpec of ``fields`` whose ``eval_batch`` is ``pointwise_coefficients``
    of the per-point evaluators it is built with."""
    spec = SystemSpec(eval_batch=lambda Y, U: pointwise_coefficients(spec, Y, U), **fields)
    return spec


def closed_form_rows(rows, grid):
    """Closed-form window reconstructions (z1, z2), one per output row on ``grid``.

    The reference of ``applications._closed_form_rows``: the same formula
    and the same IEEE operations in the same order, each quantity a fresh
    array and each integral its own ``trapezoid`` call.  It raises what the
    package's kernel raises, at the same row and node.
    """
    r = grid.span
    unit = Grid(0.0, grid.h / r, grid.count)
    t = unit.times()
    for y in rows:
        s = float(np.max(np.abs(y)))  # non-finite just when a sample is
        if not math.isfinite(s):
            bad = np.flatnonzero(~np.isfinite(y))[0]
            raise NonFiniteState(int(bad), f"non-finite output sample at window node {bad}")
        s = s or 1.0
        y = y / s
        Y = cumulative_trapezoid(y, unit)
        phi = cumulative_trapezoid(Y, unit)
        dy = y - y[0]
        I_pp = trapezoid(phi * phi, unit)
        I_tp = trapezoid(t * phi, unit)
        I_yt = trapezoid(dy * t, unit)
        I_yp = trapezoid(dy * phi, unit)
        den = I_pp - 3.0 * I_tp ** 2  # second Cholesky pivot of [[1/3, I_tp], [I_tp, I_pp]]
        require_pivot(min(den, 1.0 / 3.0), 1.0 / 3.0 + I_pp, 2)
        z2 = (I_yp - 3.0 * I_tp * I_yt) / den
        z1 = (3.0 * (I_pp - Y[-1] * I_tp) * I_yt + (Y[-1] - 3.0 * I_tp) * I_yp) / den
        z2 = float(z2) / r / r
        if not math.isfinite(z2):  # the scaling back by 1/r^2 overflowed
            raise NonFiniteState(grid.count - 1, "non-finite reconstruction of the window "
                                 f"ending at window node {grid.count - 1}")
        yield float(z1) * s / r, z2
