"""Worked applications: batch reactor and sinusoid frequency estimation.

The reactor (reactions A -> B -> C with first-order Arrhenius kinetics and a
constant-temperature jacket) measures only the temperature; the observer
reconstructs both concentrations.  The frequency application treats
y(t) = A sin(w t + phi) as the output of a plant whose constant unmeasured
state is -w^2, so one reset window yields the frequency exactly (for clean
signals) or approximately (under additive sinusoidal noise).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidValue, NonFiniteState, NonNegativeZ2
from .model import SystemSpec
from .numerics import (Grid, cumulative_trapezoid, require_node_count, require_pivot, trapezoid,
                       window_grid)
# simulate_plant and corrupt are not called here; perfbench/spans.py times calls through these names
from .plant import SensorModel, corrupt, simulate_plant
from .window import IoWindow

# ---------------------------------------------------------------------------
# Batch reactor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReactorParams:
    k1: float  # pre-exponential rate of A -> B (1/s)
    k2: float  # pre-exponential rate of B -> C (1/s)
    E1: float  # activation temperature of A -> B (K)
    E2: float  # activation temperature of B -> C (K)
    J1: float  # adiabatic temperature rise per unit of reaction 1
    J2: float  # adiabatic temperature rise per unit of reaction 2
    h_coef: float  # jacket heat-transfer coefficient (1/s)
    Ts: float  # jacket temperature (K)
    c1_bar: float  # upper bound on c_A
    c2_bar: float  # upper bound on c_B
    Tmin: float  # lower temperature bound (K)
    Tmax: float  # upper temperature bound (K)

    def __post_init__(self):
        vals = [self.k1, self.k2, self.E1, self.E2, self.J1, self.J2,
                self.h_coef, self.Ts, self.c1_bar, self.c2_bar,
                self.Tmin, self.Tmax]
        if any(v <= 0 for v in vals):
            raise InvalidValue("all reactor parameters must be positive")
        if not (0 < self.Tmin <= self.Ts):
            raise InvalidValue("need 0 < Tmin <= Ts")
        heat = (self.J1 * self.k1 * self.c1_bar
                + self.J2 * self.k2 * self.c2_bar) / self.h_coef + self.Ts
        if heat > self.Tmax + 1e-12:
            raise InvalidValue(
                f"temperature bound violated: (J1 k1 c1 + J2 k2 c2)/h + Ts = "
                f"{heat:.6g} > Tmax = {self.Tmax:.6g}"
            )
        if self.E1 >= self.E2:
            if (self.k1 / self.k2) * self.c1_bar >= self.c2_bar:
                raise InvalidValue("need (k1/k2) c1_bar < c2_bar when E1 >= E2")
        else:
            with np.errstate(over="ignore"):  # an overflow is inf, which fails the test
                lhs = (self.k1 / self.k2) * np.exp((self.E2 - self.E1) / self.Tmin) * self.c1_bar
            if lhs >= self.c2_bar:
                raise InvalidValue(
                    "need (k1/k2) exp((E2-E1)/Tmin) c1_bar < c2_bar when E1 < E2"
                )


def canonical_reactor_params():
    """The parameter set all reactor regression values are pinned against.

    E1 < E2 with (J1 + J2) k2 < J1 k1, and the domain-bound inequalities are
    satisfied with room to spare.  The paper's sufficient margin condition
    holds here for a = 150 K/s (the test oracle checks it), which gives the
    window r = (Tmax - Tmin)/a = 1/3 s of ``configs/reactor.json``.
    """
    return ReactorParams(
        k1=0.8, k2=0.3, E1=300.0, E2=400.0, J1=30.0, J2=10.0,
        h_coef=1.0, Ts=310.0, c1_bar=1.0, c2_bar=4.0,
        Tmin=300.0, Tmax=350.0,
    )


def reactor_spec(p):
    """SystemSpec for the reactor: x = (c_A, c_B), y = T, no input."""
    k1, k2, E1, E2, J1, J2 = p.k1, p.k2, p.E1, p.E2, p.J1, p.J2
    h_coef, Ts, c1_bar, c2_bar, Tmin, Tmax = p.h_coef, p.Ts, p.c1_bar, p.c2_bar, p.Tmin, p.Tmax

    def rate1(T):
        return k1 * np.exp(-E1 / T)

    def rate2(T):
        return k2 * np.exp(-E2 / T)

    # The per-point evaluators read the temperature as a Python float: np.exp
    # gives the same double on it as on an np.float64, at half the cost
    # (math.exp differs in the last bit for some temperatures).
    def eval_A(y, u):
        T = float(y[0])
        r1, r2 = rate1(T), rate2(T)
        return np.array([[-r1, 0.0], [r1, -r2]])

    def eval_C(y):
        T = float(y[0])
        return np.array([[J1 * rate1(T)], [J2 * rate2(T)]])

    def eval_f(y, u):
        return np.array([h_coef * (Ts - float(y[0]))])

    def eval_batch(Y, U):
        T = Y[:, 0]
        r1, r2 = rate1(T), rate2(T)
        A = np.zeros((T.size, 2, 2))
        A[:, 0, 0] = -r1
        A[:, 1, 0] = r1
        A[:, 1, 1] = -r2
        C = np.stack([J1 * r1, J2 * r2], axis=1)[:, :, None]
        f = (h_coef * (Ts - T))[:, None]
        return A, np.zeros((T.size, 2)), C, f

    def in_domain(x, y):
        return 0.0 < x[0] < c1_bar and 0.0 < x[1] < c2_bar and Tmin < y[0] < Tmax

    b = np.zeros(2)

    return SystemSpec(
        n=2, k=1, m=1,
        eval_A=eval_A,
        eval_b=lambda y, u: b,
        eval_C=eval_C,
        eval_f=eval_f,
        eval_batch=eval_batch,
        in_domain=in_domain,
    )


# ---------------------------------------------------------------------------
# Frequency estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrequencyScenario:
    amplitude: float = 2.0  # signal amplitude
    omega: float = 3.0  # true frequency (rad/s)
    phase: float = 0.0  # phase (rad)
    noise_amplitude: float = SensorModel.amplitude
    noise_frequency: float = SensorModel.frequency  # rad/s
    r: float = 1.0  # window length (s)
    h: float = None  # grid step; defaults to r/2000

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.amplitude, self.omega, self.phase, self.r)):
            raise InvalidValue("scenario fields must be finite")
        if self.amplitude <= 0 or self.omega <= 0 or self.r <= 0:
            raise InvalidValue("amplitude, omega and r must be positive")
        # the sensor owns the rules of the two noise fields
        object.__setattr__(self, "_sensor", SensorModel(self.noise_amplitude,
                                                        self.noise_frequency))
        if self.h is None:
            object.__setattr__(self, "h", self.r / 2000.0)
        object.__setattr__(self, "grid", window_grid(self.r, self.h))  # of [0, r]

    def sensor(self):
        return self._sensor

    def initial_state(self):
        """Plant initial condition generating A sin(w t + phase)."""
        try:
            x2 = -self.omega ** 2
        except OverflowError:  # the plant rejects the state at node 0 (NonFiniteState)
            x2 = -math.inf
        x0 = np.array([self.amplitude * self.omega * np.cos(self.phase), x2])
        y0 = np.array([self.amplitude * np.sin(self.phase)])
        return x0, y0


def freq_spec():
    """Plant casting frequency estimation as state reconstruction.

        y' = x1,  x1' = x2 y,  x2' = 0   with x2 = -omega^2.

    The domain is x2 < 0 away from the origin, so that the frequency readout
    is well defined.
    """

    def eval_A(y, u):
        return np.array([[0.0, y[0]], [0.0, 0.0]])

    def eval_batch(Y, U):
        N = Y.shape[0]
        A = np.zeros((N, 2, 2))
        A[:, 0, 1] = Y[:, 0]
        C = np.zeros((N, 2, 1))
        C[:, 0, 0] = 1.0
        return A, np.zeros((N, 2)), C, np.zeros((N, 1))

    def in_domain(x, y):
        if y[0] == 0.0 and x[0] == 0.0:  # the origin; no squares, so no overflow
            return False
        return x[1] < 0.0

    b, C, f = np.zeros(2), np.array([[1.0], [0.0]]), np.zeros(1)

    return SystemSpec(
        n=2, k=1, m=1,
        eval_A=eval_A,
        eval_b=lambda y, u: b,
        eval_C=lambda y: C,
        eval_f=lambda y, u: f,
        eval_batch=eval_batch,
        in_domain=in_domain,
    )


def _closed_form_rows(rows, grid):
    """Closed-form window reconstructions (z1, z2), one per output row on ``grid``.

    ``rows`` gives the (count,) output samples of one window at a time.  The
    unit-window grid and its times are built once per call; each row is then
    reconstructed on arrays of its own length, so a sweep's working arrays
    stay a few times the size of one row whatever its phase count.  A row
    raises NonFiniteState at its first non-finite sample or
    NotPositiveDefinite through ``require_pivot`` before the next row is
    taken, as a loop over the windows would.  See ``freq_closed_form`` for
    the formula.
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
        yield float(z1) * s / r, float(z2) / r / r


def freq_closed_form(window):
    """Closed-form window reconstruction (z1, z2) for the frequency plant.

    phi(t) is the double integral of the output; the two quotients realize
    the generic Gram least-squares solution for this particular plant.  They
    are formed in units where the window is [0, 1] and max|y| is 1, so that
    no product overflows for a finite signal; with s = max|y|, z1 is scaled
    back by s/r and z2 by 1/r^2.  A non-finite sample raises NonFiniteState
    at its window node.
    """
    return next(_closed_form_rows([window.y_samples[:, 0]], window.grid))


def omega_hat(z2):
    """Frequency readout sqrt(-z2); valid only in the admissible region z2 < 0."""
    if not z2 < 0:  # NaN included
        raise NonNegativeZ2(f"z2 = {z2:.6g} is not negative")
    return float(np.sqrt(-z2))


def _sweep_basis(scn):
    """What every phase of a sweep shares: t, sin(w t), cos(w t) and the sensor's noise."""
    t = scn.grid.times()
    with np.errstate(over="ignore", invalid="ignore"):
        wt = scn.omega * t
        return t, np.sin(wt), np.cos(wt), scn.sensor().noise(t)


def _measured_rows(scn, basis, phases):
    """The measured samples of the scenario's signal, one (nodes,) row per phase.

    Each row is the exact sinusoid A sin(w t + phase) on the scenario's grid,
    expanded as A (cos(phase) sin(w t) + sin(phase) cos(w t)) so that the
    phase enters as the plant's initial state does, plus the sensor's noise
    as ``SensorModel.measure`` adds it.  Rows are made one at a time, when
    taken.  No numpy warning is raised: a sample that overflows is
    non-finite, and the closed form rejects its window.
    """
    t, sin_wt, cos_wt, noise = basis
    phases = np.asarray(phases, dtype=float)
    for c, s in zip(np.cos(phases).tolist(), np.sin(phases).tolist()):
        with np.errstate(over="ignore", invalid="ignore"):
            y = c * sin_wt
            y += s * cos_wt
            y *= scn.amplitude
            if noise is not None:
                y += noise
        yield y


def _windows_from_scenario(scn, phases):
    """The measured window [0, r] of the scenario's signal for each phase."""
    u = np.zeros((scn.grid.count, 1))
    return [IoWindow(grid=scn.grid, y_samples=y[:, None], u_samples=u)
            for y in _measured_rows(scn, _sweep_basis(scn), phases)]


def estimate_frequency(scn):
    """Frequency estimate from a single window of the (possibly noisy) signal."""
    (window,) = _windows_from_scenario(scn, [scn.phase])
    _, z2 = freq_closed_form(window)
    return omega_hat(z2)


def sweep_phases(phases=None):
    """The phases of a phase sweep, as a float array: the one rule of ``sweep.phases``.

    ``phases`` lists the phases, or counts them evenly spaced on [0, 2 pi] (64
    when None).  No phases, or a count that is not a whole number >= 1 or is
    above MAX_NODES, raise InvalidValue before any array is made.
    """
    if phases is None or np.ndim(phases) == 0:
        count = 64 if phases is None else phases
        require_node_count(count)  # the phases are a grid on [0, 2 pi]
        if not (count >= 1 and float(count).is_integer()):
            raise InvalidValue(f"a phase count must be a whole number >= 1, got {count}")
        phases = np.linspace(0.0, 2.0 * np.pi, int(count))
    phases = np.asarray(phases, dtype=float)
    if phases.size == 0:
        raise InvalidValue("a phase sweep needs at least one phase")
    return phases


def phase_sweep(scn, phases=None):
    """Relative frequency-estimation error as a function of the signal phase.

    ``phases`` is read by ``sweep_phases``.  Returns (phases, omega_hats,
    rel_errors, max_rel_error), one window each.  The signal's basis and the
    sensor's noise are made once per sweep; each phase's row is then made
    and reconstructed before the next, so that memory grows with the phase
    count only by the results.  The first failing phase in phase order
    raises what ``freq_closed_form`` or ``omega_hat`` would raise for its
    window alone.
    """
    phi_grid = sweep_phases(phases)
    rows = _measured_rows(scn, _sweep_basis(scn), phi_grid)
    omegas = np.array([omega_hat(z2) for _, z2 in _closed_form_rows(rows, scn.grid)])
    errors = np.abs(omegas - scn.omega) / scn.omega
    return phi_grid, omegas, errors, float(np.max(errors))


def horizon_scenarios(scenarios):
    """``scenarios``, checked by the one rule of ``sweep.r_values``: InvalidValue when empty."""
    if not scenarios:
        raise InvalidValue("a horizon sweep needs at least one scenario")
    return scenarios


def horizon_sweep(scenarios):
    """Relative frequency-estimation error as a function of the window length.

    ``scenarios`` are one signal over several window lengths, each ``replace(scn, r=r, h=h)``
    at one step h, or at r/2000 with h None.  Returns (r_values, omega_hats, rel_errors).
    """
    scenarios = horizon_scenarios(scenarios)
    omegas = np.array([estimate_frequency(scn) for scn in scenarios])
    omega = scenarios[0].omega
    return np.array([scn.r for scn in scenarios]), omegas, np.abs(omegas - omega) / omega

