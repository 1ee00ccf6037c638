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
  * ``indistinguishable_partner``: the state that example 2.6's constructed
    input does not distinguish from the generating one;
  * ``pointwise_coefficients``: a system's window coefficients filled point
    by point from its per-point evaluators, the reference of every
    ``eval_batch``; ``pointwise_spec`` builds a test system whose batch is it.

Test modules import them as ``from oracles import ...``.
"""

from dataclasses import dataclass

import numpy as np

from deadbeat_observer.errors import DimensionMismatch, DomainExit
from deadbeat_observer.model import SystemSpec, check_point_evaluators, make_lti
from deadbeat_observer.numerics import cumulative_trapezoid, require_pivot, spd_solve, trapezoid


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


def indistinguishable_partner(ex, x0, y0, xi1):
    """The state sharing the output of (x0, y0) under the constructed input.

    Any first component xi1 works; the second is pinned by the construction.
    """
    x0 = np.asarray(x0, dtype=float)
    ratio = ex.c1(float(y0)) / ex.c2(float(y0))
    return np.array([xi1, x0[1] + ratio * (x0[0] - xi1)])


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
