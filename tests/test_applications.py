import dataclasses
import math

import numpy as np
import pytest

from deadbeat_observer import applications as apps
from deadbeat_observer.errors import (
    DeadbeatError,
    DimensionMismatch,
    DomainExit,
    InvalidValue,
    NonFiniteState,
    NonNegativeZ2,
    NotPositiveDefinite,
)
from deadbeat_observer.numerics import MAX_NODES, Grid
from deadbeat_observer.plant import SensorModel, SimConfig, simulate_plant
from deadbeat_observer.window import (
    Degenerate,
    IoWindow,
    StronglyObservableOnWindow,
    apply_P,
    compute_window,
    gram,
    observability_certificate,
)

from oracles import (
    DEFAULT_EQUAL_E_WINDOW,
    HypothesisFails,
    HypothesisFailsAt,
    HypothesisHolds,
    check_hypothesis,
    closed_form_rows,
    min_window_reactor,
    pointwise_spec,
    reactor_gains,
    scalar_observer_P,
)

CANONICAL_MARGIN = 150.0  # K/s; the margin whose window is the reactor config's r = 1/3 s
LUMPED_MARGIN = 1.0  # K/s


def lumped_reactor_params(k2=0.3):
    """Equal activation temperatures with (J1 + J2) k2 = J1 k1 at k2 = 0.3."""
    return apps.ReactorParams(
        k1=0.4, k2=k2, E1=350.0, E2=350.0, J1=30.0, J2=10.0,
        h_coef=1.0, Ts=310.0, c1_bar=1.0, c2_bar=4.0,
        Tmin=300.0, Tmax=350.0,
    )


def reactor_window(p, x0, y0, r, h):
    spec = apps.reactor_spec(p)
    trace = simulate_plant(spec, None, SimConfig(t_end=r, h=h, x0=x0, y0=[y0]))
    return spec, trace, IoWindow(grid=trace.grid, y_samples=trace.y_meas,
                                 u_samples=trace.u)


def test_canonical_reactor_params_valid():
    p = apps.canonical_reactor_params()
    assert p.E1 < p.E2
    assert (p.J1 + p.J2) * p.k2 < p.J1 * p.k1


def test_reactor_params_rejections():
    p = apps.canonical_reactor_params()
    with pytest.raises(ValueError, match="all reactor parameters must be positive"):
        apps.ReactorParams(**{**p.__dict__, "k1": -1.0})
    with pytest.raises(ValueError, match="temperature bound violated"):
        # heat release exceeds the upper temperature bound
        apps.ReactorParams(**{**p.__dict__, "Tmax": 312.0})
    with pytest.raises(ValueError, match=r"need \(k1/k2\) exp\(\(E2-E1\)/Tmin\) c1_bar < c2_bar"):
        # concentration-bound inequality for E1 < E2
        apps.ReactorParams(**{**p.__dict__, "c2_bar": 1.0, "Tmax": 400.0})
    with pytest.raises(ValueError, match="need 0 < Tmin <= Ts"):
        apps.ReactorParams(**{**p.__dict__, "Tmin": 320.0})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(apps.ReactorParams)])
def test_reactor_params_reject_a_non_finite_field(field, value):
    with pytest.raises(InvalidValue, match="reactor parameters must be finite"):
        dataclasses.replace(apps.canonical_reactor_params(), **{field: value})


def test_check_hypothesis_canonical_margin():
    result = check_hypothesis(apps.canonical_reactor_params(), CANONICAL_MARGIN, "A1")
    assert isinstance(result, HypothesisHolds)
    assert result.margin == pytest.approx(169.9861997378996, rel=1e-9)


def test_check_hypothesis_ungated_margin_is_positive_for_both_labels():
    # no grid point of the canonical set is gated, so neither label can fail
    p = apps.canonical_reactor_params()
    a1, a2 = (check_hypothesis(p, CANONICAL_MARGIN, which) for which in ("A1", "A2"))
    assert a1 == a2 == HypothesisHolds(margin=a1.margin, gated_points=0)
    assert a1.margin == pytest.approx(169.9861997378996, rel=1e-9)
    for which in ("A1", "A2"):
        assert min_window_reactor(p, CANONICAL_MARGIN, which) == pytest.approx(1.0 / 3.0)


def test_check_hypothesis_rejects_unknown_label():
    with pytest.raises(ValueError):
        check_hypothesis(apps.canonical_reactor_params(), CANONICAL_MARGIN, "A3")


def test_check_hypothesis_a2_fails_below_the_margin():
    # with k1 = 0.1 the drift is positive, about 62 K/s at Tmin, and every point is gated
    p = dataclasses.replace(apps.canonical_reactor_params(), k1=0.1)
    result = check_hypothesis(p, CANONICAL_MARGIN, "A2")
    assert isinstance(result, HypothesisFailsAt)
    assert result.worst_T == pytest.approx(300.005)
    assert result.worst_value == pytest.approx(61.78943656345341, rel=1e-9)
    with pytest.raises(HypothesisFails, match="hypothesis A2 fails"):
        min_window_reactor(p, CANONICAL_MARGIN, "A2")
    held = check_hypothesis(p, 50.0, "A2")
    assert isinstance(held, HypothesisHolds)
    assert held.margin == result.worst_value


def test_check_hypothesis_lumped_fails():
    result = check_hypothesis(lumped_reactor_params(), LUMPED_MARGIN, "A1")
    assert isinstance(result, HypothesisFailsAt)
    assert result.worst_value == 0.0


def test_check_hypothesis_perturbed_lumped_holds():
    result = check_hypothesis(lumped_reactor_params(k2=0.303), LUMPED_MARGIN, "A1")
    assert isinstance(result, HypothesisHolds)
    assert result.margin == pytest.approx(abs(40.0 * 0.303 - 12.0), rel=1e-9)


def test_check_hypothesis_a1_on_a_gated_set():
    # a stiffer jacket gates 3475 grid points, where the drift is <= -226.2 K/s
    p = dataclasses.replace(apps.canonical_reactor_params(), h_coef=10.0)
    held = check_hypothesis(p, CANONICAL_MARGIN, "A1")
    assert held == HypothesisHolds(margin=held.margin, gated_points=3475)
    assert held.margin == pytest.approx(226.21633296760075, rel=1e-12)
    a2 = check_hypothesis(p, CANONICAL_MARGIN, "A2")
    assert isinstance(a2, HypothesisFailsAt)
    assert a2.worst_T == pytest.approx(349.995, rel=1e-12)
    assert a2.worst_value == pytest.approx(-259.6112168047385, rel=1e-12)
    failed = check_hypothesis(p, 250.0, "A1")
    assert isinstance(failed, HypothesisFailsAt)
    assert failed.worst_T == pytest.approx(332.625, rel=1e-12)
    assert failed.worst_value == -held.margin
    with pytest.raises(HypothesisFails, match="hypothesis A1 fails at T = 332.625"):
        min_window_reactor(p, 250.0, "A1")


def test_reactor_params_concentration_bound_when_e1_exceeds_e2():
    # (k1/k2) c1_bar = 8/3 >= c2_bar = 2; the temperature bound holds (340 K)
    p = apps.canonical_reactor_params()
    with pytest.raises(ValueError, match=r"need \(k1/k2\) c1_bar < c2_bar when E1 >= E2"):
        apps.ReactorParams(**{**p.__dict__, "E1": 400.0, "E2": 300.0, "c2_bar": 2.0})


def test_min_window_canonical():
    p = apps.canonical_reactor_params()
    # margin exceeds the claimed a = 150, so r = (Tmax - Tmin) / 150
    assert min_window_reactor(p, CANONICAL_MARGIN) == pytest.approx(1.0 / 3.0)


def test_min_window_equal_activation_default():
    assert min_window_reactor(lumped_reactor_params(k2=0.303), LUMPED_MARGIN) == \
        DEFAULT_EQUAL_E_WINDOW
    with pytest.raises(HypothesisFails):
        min_window_reactor(lumped_reactor_params(), LUMPED_MARGIN)



def test_margin_hypothesis_predicts_the_certificate():
    # canonical set: the hypothesis holds at a = 150 and guarantees r = 1/3 s;
    # there the pivot is 6.4e-7 to 7.3e-7 of trace(Q)/n, against the 1e-8 threshold
    p = apps.canonical_reactor_params()
    assert isinstance(check_hypothesis(p, CANONICAL_MARGIN), HypothesisHolds)
    r = min_window_reactor(p, CANONICAL_MARGIN)
    assert r == pytest.approx(1.0 / 3.0)
    rng = np.random.default_rng(0)
    for _ in range(4):
        x0 = [rng.uniform(0.1, 0.9), rng.uniform(0.1, 3.5)]
        spec, _, window = reactor_window(p, x0, rng.uniform(305.0, 330.0), r, r / 2000)
        assert isinstance(observability_certificate(gram(compute_window(spec, window))),
                          StronglyObservableOnWindow)
    # lumped set: both labels fail, and criterion 8's window is degenerate (pivot 5.7e-17)
    lumped = lumped_reactor_params()
    for which in ("A1", "A2"):
        assert isinstance(check_hypothesis(lumped, LUMPED_MARGIN, which), HypothesisFailsAt)
    spec, _, window = reactor_window(lumped, [0.9, 0.5], 315.0, 16.0, 0.008)
    assert isinstance(observability_certificate(gram(compute_window(spec, window))), Degenerate)


def test_equal_e_window_is_degenerate_at_the_fixed_threshold():
    # the oracle's E1 = E2 window holds in exact arithmetic only: on the perturbed
    # lumped set the 1 s window's smallest pivot is 1.83e-9 of trace(Q)/n, at or
    # below REL_THRESHOLD = 1e-8, while criterion 8's 16 s window reaches 1.88e-7
    perturbed = lumped_reactor_params(k2=0.303)
    assert min_window_reactor(perturbed, LUMPED_MARGIN) == DEFAULT_EQUAL_E_WINDOW
    for r, h, verdict, ratio in ((DEFAULT_EQUAL_E_WINDOW, 5e-4, Degenerate, 1.83e-9),
                                 (16.0, 0.008, StronglyObservableOnWindow, 1.88e-7)):
        spec, _, window = reactor_window(perturbed, [0.9, 0.5], 315.0, r, h)
        gs = gram(compute_window(spec, window))
        certificate = observability_certificate(gs)
        assert isinstance(certificate, verdict), r
        assert certificate.smallest_pivot / (np.trace(gs.Q) / 2) == pytest.approx(ratio, rel=0.01)


def reference_reactor_evaluators(p):
    """The reactor's per-point evaluators computing on y[0] as an np.float64."""

    def rate1(T):
        return p.k1 * np.exp(-p.E1 / T)

    def rate2(T):
        return p.k2 * np.exp(-p.E2 / T)

    def eval_A(y, u):
        r1, r2 = rate1(y[0]), rate2(y[0])
        return np.array([[-r1, 0.0], [r1, -r2]])

    def eval_C(y):
        return np.array([[p.J1 * rate1(y[0])], [p.J2 * rate2(y[0])]])

    def eval_f(y, u):
        return np.array([p.h_coef * (p.Ts - y[0])])

    return eval_A, eval_C, eval_f


@pytest.mark.parametrize("params", [apps.canonical_reactor_params(), lumped_reactor_params()],
                         ids=["canonical", "lumped"])
def test_reactor_evaluators_are_bit_identical_to_float64_arithmetic(params):
    spec = apps.reactor_spec(params)
    eval_A, eval_C, eval_f = reference_reactor_evaluators(params)
    rng = np.random.default_rng(1701)
    temperatures = np.concatenate([np.linspace(params.Tmin, params.Tmax, 10001),
                                   rng.uniform(1.0, 2000.0, 2000),
                                   rng.uniform(params.Tmin, params.Tmax, 2000)])
    u = np.zeros(1)
    for T in temperatures:
        y = np.array([T])
        for got, want in ((spec.eval_A(y, u), eval_A(y, u)), (spec.eval_C(y), eval_C(y)),
                          (spec.eval_f(y, u), eval_f(y, u))):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), T
    for x0, x1, T in rng.uniform([-0.5, -0.5, 290.0], [1.5, 4.5, 360.0], size=(2000, 3)):
        x, y = np.array([x0, x1]), np.array([T])
        assert spec.in_domain(x, y) == (0.0 < x0 < params.c1_bar and 0.0 < x1 < params.c2_bar
                                        and params.Tmin < T < params.Tmax)


def test_reactor_gains_matches_generic_reconstruction():
    p = apps.canonical_reactor_params()
    r = 1.0 / 3.0
    spec, trace, window = reactor_window(p, [0.8, 0.5], 315.0, r, r / 2000.0)
    gains = reactor_gains(trace.y_meas[:, 0], p, trace.grid)
    z_generic = apply_P(spec, window)
    assert np.max(np.abs(gains.state_estimate - z_generic)) < 1e-6
    assert np.max(np.abs(gains.state_estimate - trace.x_true[-1])) < 1e-4
    # the transition matrix is lower triangular with exp(-int rate) diagonal
    assert gains.Phi_r[0, 1] == 0.0
    assert np.max(np.abs(gains.G - trace.x_true[0])) < 1e-4


def test_reactor_gains_validation():
    p = apps.canonical_reactor_params()
    grid = Grid.from_span(0.0, 1.0, 0.1)
    with pytest.raises(DimensionMismatch):
        reactor_gains(np.full(5, 315.0), p, grid)
    T = np.full(grid.count, 315.0)
    T[4:] = 299.0
    with pytest.raises(DomainExit) as left:
        reactor_gains(T, p, grid)
    assert left.value.index == 4


def test_frequency_scenario_defaults():
    scn = apps.FrequencyScenario()
    assert scn.h == pytest.approx(scn.r / 2000.0)
    x0, y0 = scn.initial_state()
    assert np.allclose(x0, [6.0, -9.0])
    assert y0[0] == 0.0
    assert apps.FrequencyScenario(noise_amplitude=0.2).sensor() == SensorModel(0.2)
    with pytest.raises(ValueError):
        apps.FrequencyScenario(omega=-1.0)
    with pytest.raises(ValueError):
        apps.FrequencyScenario(noise_amplitude=-0.1)


@pytest.mark.parametrize("field", ["amplitude", "omega", "phase", "noise_amplitude",
                                   "noise_frequency", "r", "h"])
def test_frequency_scenario_rejects_non_finite(field):
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            apps.FrequencyScenario(**{field: value})


def test_frequency_scenario_rejects_noise_without_a_frequency_when_built():
    with pytest.raises(ValueError, match="noise frequency must be > 0"):
        apps.FrequencyScenario(noise_amplitude=0.1, noise_frequency=0.0)
    assert apps.FrequencyScenario(noise_frequency=0.0).sensor().amplitude == 0.0


def test_estimate_frequency_clean():
    scn = apps.FrequencyScenario(phase=0.9)
    assert apps.estimate_frequency(scn) == pytest.approx(3.0, rel=1e-5)


def test_freq_closed_form_clean_recovers_state():
    scn = apps.FrequencyScenario(phase=1.0, h=5e-4)
    spec = apps.freq_spec()
    x0, y0 = scn.initial_state()
    trace = simulate_plant(spec, None, SimConfig(t_end=scn.r, h=scn.h,
                                                 x0=x0, y0=y0))
    window = IoWindow(grid=trace.grid, y_samples=trace.y_meas, u_samples=trace.u)
    z1, z2 = apps.freq_closed_form(window)
    assert z1 == pytest.approx(trace.x_true[-1, 0], abs=1e-4)
    assert z2 == pytest.approx(-9.0, abs=1e-4)


def test_freq_closed_form_singular_window():
    grid = Grid.from_span(0.0, 1.0, 0.01)
    window = IoWindow(grid=grid, y_samples=np.zeros((grid.count, 1)),
                      u_samples=np.zeros((grid.count, 1)))
    with pytest.raises(NotPositiveDefinite):
        apps.freq_closed_form(window)


@pytest.mark.filterwarnings("error")
def test_freq_closed_form_whose_z2_overflows_raises_at_the_last_node():
    # on [0, 1e-156] the unit-window z2 is finite, but z2 / r^2 exceeds the float range
    scn = apps.FrequencyScenario(noise_amplitude=0.2, noise_frequency=1e300, r=1e-156, h=5e-160)
    (window,) = apps._windows_from_scenario(scn, [0.0])
    with pytest.raises(NonFiniteState, match="non-finite reconstruction") as info:
        apps.freq_closed_form(window)
    assert info.value.index == 2000 == window.grid.count - 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_freq_domain_excludes_only_the_origin():
    spec = apps.freq_spec()
    assert not spec.in_domain(np.array([0.0, -1.0]), np.array([-0.0]))
    assert spec.in_domain(np.array([1e-200, -1.0]), np.array([0.0]))  # squares underflow
    assert spec.in_domain(np.array([0.0, -1.0]), np.array([1e-200]))
    assert spec.in_domain(np.array([1e300, -1.0]), np.array([1e300]))  # squares overflow
    assert spec.in_domain(np.array([np.nan, -1.0]), np.array([np.nan]))
    assert not spec.in_domain(np.array([0.0, 1.0]), np.array([2.0]))
    assert not spec.in_domain(np.array([0.0, np.nan]), np.array([2.0]))


def test_omega_hat_readout():
    assert apps.omega_hat(-9.0) == pytest.approx(3.0)
    for z2 in (0.0, float("nan")):
        with pytest.raises(NonNegativeZ2):
            apps.omega_hat(z2)


def test_clean_sweep_windows_match_the_plant():
    scn = apps.FrequencyScenario(h=5e-4)
    phases = [0.4, 2.0, 5.1]
    windows = apps._windows_from_scenario(scn, phases)
    assert len(windows) == len(phases)
    for phase, window in zip(phases, windows):
        x0, y0 = dataclasses.replace(scn, phase=phase).initial_state()
        trace = simulate_plant(apps.freq_spec(), None,
                               SimConfig(t_end=scn.r, h=scn.h, x0=x0, y0=y0))
        assert window.grid == trace.grid
        assert np.max(np.abs(window.y_samples - trace.y_true)) < 1e-9
        assert np.array_equal(window.u_samples, trace.u)


def test_phase_sweep_matches_per_phase_loop():
    # the Figure 1 scenario; the sweep against one window per phase
    scn = apps.FrequencyScenario(amplitude=2.0, omega=3.0, noise_amplitude=0.2,
                                 noise_frequency=10.0, r=1.0, h=5e-4)
    phases = np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False) + 0.3
    _, omegas, errors, max_err = apps.phase_sweep(scn, phases)
    ref = np.array([apps.estimate_frequency(dataclasses.replace(scn, phase=ph))
                    for ph in phases])
    assert np.max(np.abs(omegas - ref) / ref) <= 1e-12
    assert np.allclose(errors, np.abs(ref - 3.0) / 3.0, rtol=1e-12, atol=0.0)
    assert max_err == np.max(errors)


def test_phase_sweep_in_blocks_matches_one_sweep_per_phase():
    # a sweep of many phases; each phase swept alone gives the same estimate
    scn = apps.FrequencyScenario(amplitude=2.0, omega=3.0, noise_amplitude=0.2,
                                 noise_frequency=10.0, r=1.0, h=1e-2)
    phases = np.linspace(0.0, 2.0 * np.pi, 67)
    _, omegas, errors, _ = apps.phase_sweep(scn, phases)
    ref = [apps.phase_sweep(scn, [ph]) for ph in phases]
    assert np.array_equal(omegas, [omega for _, (omega,), _, _ in ref])
    assert np.array_equal(errors, [error for _, _, (error,), _ in ref])


def closed_form_of_each_window(scn, phases):
    """The ω̂ of each phase's window alone, or the (type, message) of the first error."""
    try:
        return [apps.omega_hat(apps.freq_closed_form(w)[1])
                for w in apps._windows_from_scenario(scn, phases)]
    except DeadbeatError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("h", [5e-4, 1e-4], ids=["2001-nodes", "10001-nodes"])
@pytest.mark.parametrize("noise", [0.0, 0.2], ids=["clean", "noisy"])
def test_phase_sweep_matches_the_closed_form_of_each_window(h, noise):
    # short sweeps of 1 to 9 phases, and a full sweep
    scn = apps.FrequencyScenario(amplitude=2.0, omega=3.0, noise_amplitude=noise,
                                 noise_frequency=10.0, r=1.0, h=h)
    rng = np.random.default_rng(29)
    for count in (1, 2, 3, 4, 5, 8, 9, 64):
        phases = rng.uniform(0.0, 2.0 * np.pi, count)
        _, omegas, _, _ = apps.phase_sweep(scn, phases)
        assert np.array_equal(omegas, closed_form_of_each_window(scn, phases)), count


# A signal and a noise both near the largest float: phase k pi/20 overflows at
# window node 1961 (k = 25), 1590 (k = 30) or 1136 (k = 0), gives z2 >= 0 for
# k = 13 to 16, and an estimate for k = 1 to 12.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("ks", [(25, 30), (30, 25), (5, 25), (5, 13, 30), (30, 13),
                                (1, 2, 3, 4, 0, 13), (1, 2, 3, 4, 5, 6, 7, 8, 13, 0)],
                         ids=["two-overflows", "two-overflows-reversed", "overflow-after-good",
                              "z2-before-overflow", "overflow-before-z2", "fifth-phase",
                              "ninth-phase"])
def test_phase_sweep_raises_what_the_first_failing_window_raises(ks):
    scn = apps.FrequencyScenario(amplitude=1e308, omega=3.0, noise_amplitude=1.5e308,
                                 noise_frequency=1.0, r=1.0, h=5e-4)
    phases = [k * np.pi / 20 for k in ks]
    expected = closed_form_of_each_window(scn, phases)
    assert isinstance(expected, tuple)
    with pytest.raises(expected[0]) as info:
        apps.phase_sweep(scn, phases)
    assert str(info.value) == expected[1]


# The scenarios of configs/figure1.json, figure2.json and figure3.json
FIGURE_SCENARIOS = {
    "figure1": dict(noise_frequency=10.0, h=5e-4),
    "figure2": dict(noise_frequency=100.0, h=5e-4),
    "figure3": dict(noise_frequency=1000.0, h=1e-4),
}


def figure_scenario(name):
    return apps.FrequencyScenario(amplitude=2.0, omega=3.0, noise_amplitude=0.2, r=1.0,
                                  **FIGURE_SCENARIOS[name])


def reference_omegas(scn, phases):
    """ω̂ of each phase by the reference closed form, on rows that are each a fresh array."""
    _, sin_wt, cos_wt, noise = apps._sweep_basis(scn)
    rows = []
    for c, s in zip(np.cos(phases).tolist(), np.sin(phases).tolist()):
        y = c * sin_wt
        y += s * cos_wt
        y *= scn.amplitude
        rows.append(y + noise)
    return np.array([apps.omega_hat(z2) for _, z2 in closed_form_rows(rows, scn.grid)])


@pytest.mark.parametrize("name", sorted(FIGURE_SCENARIOS))
def test_phase_sweep_is_bit_identical_to_the_reference_closed_form(name):
    # the golden files pin 13 digits; every bit of every ω̂ is pinned here
    scn = figure_scenario(name)
    rng = np.random.default_rng(40)
    for count in (16, 16, 64):
        phases = rng.uniform(0.0, 2.0 * np.pi, count)
        _, omegas, _, _ = apps.phase_sweep(scn, phases)
        assert omegas.tobytes() == reference_omegas(scn, phases).tobytes()


def test_freq_closed_form_on_criterion_7_windows_is_bit_identical_and_reads_only():
    rng = np.random.default_rng(7)  # criterion 7's frequency windows, drawn as it draws them
    for _ in range(20):
        scn = apps.FrequencyScenario(amplitude=float(rng.uniform(1.0, 3.0)),
                                     omega=float(rng.uniform(1.0, 5.0)),
                                     phase=float(rng.uniform(0.0, 2.0 * np.pi)),
                                     h=2e-4)
        (window,) = apps._windows_from_scenario(scn, [scn.phase])
        samples = window.y_samples.tobytes()
        z = apps.freq_closed_form(window)
        assert window.y_samples.tobytes() == samples
        ref = next(closed_form_rows([window.y_samples[:, 0]], window.grid))
        assert np.array(z).tobytes() == np.array(ref).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweeps_after_a_failing_sweep_and_across_grids_equal_fresh_sweeps():
    phases = np.random.default_rng(41).uniform(0.0, 2.0 * np.pi, 16)
    scenarios = [figure_scenario(name) for name in ("figure1", "figure3")]  # 2001, 10001 nodes
    fresh = [apps.phase_sweep(scn, phases)[1].tobytes() for scn in scenarios]
    overflowing = apps.FrequencyScenario(amplitude=1e308, omega=3.0, noise_amplitude=1.5e308,
                                         noise_frequency=1.0, r=1.0, h=5e-4)
    with pytest.raises(NonFiniteState):
        apps.phase_sweep(overflowing, [25 * np.pi / 20, 30 * np.pi / 20])
    for scn, omegas in zip(scenarios * 3, fresh * 3):
        assert apps.phase_sweep(scn, phases)[1].tobytes() == omegas


def test_phase_sweep_count_over_the_node_limit_is_rejected_before_any_array():
    scn = apps.FrequencyScenario(amplitude=2.0, omega=3.0, r=1.0, h=2e-3)
    for count in (MAX_NODES + 1.0, 1e300, float("inf")):
        with pytest.raises(InvalidValue, match="exceeds the limit of 10000000 nodes"):
            apps.phase_sweep(scn, count)


@pytest.mark.parametrize("phases", [0, 0.0, [], np.array([]), -3, -3.0, 2.5, float("nan")])
def test_phase_sweep_without_a_whole_number_of_phases_is_rejected(phases):
    scn = apps.FrequencyScenario(amplitude=2.0, omega=3.0, r=1.0, h=2e-3)
    with pytest.raises(InvalidValue):
        apps.phase_sweep(scn, phases)


def test_horizon_sweep_without_a_scenario_is_rejected():
    with pytest.raises(InvalidValue):
        apps.horizon_sweep([])


def test_phase_sweep_defaults_to_64_phases():
    scn = apps.FrequencyScenario(amplitude=2.0, omega=3.0, r=1.0, h=2e-3)
    phases, omegas, errors, max_err = apps.phase_sweep(scn)
    assert np.array_equal(phases, np.linspace(0.0, 2.0 * np.pi, 64))
    assert omegas.shape == errors.shape == (64,)
    assert max_err == np.max(errors) < 1e-4


def test_horizon_sweep_error_drops_with_window_length():
    scn = apps.FrequencyScenario(phase=1.9, noise_amplitude=0.2,
                                 noise_frequency=10.0)
    r_vals, _, errors, _ = apps.horizon_sweep([dataclasses.replace(scn, r=r, h=None)
                                               for r in (1.0, 3.0)])
    assert errors[1] < errors[0]


def test_scalar_observer_matches_generic_reconstruction():
    a0, c0, c1v, f0 = -0.5, 1.0, 0.1, 0.2
    spec = pointwise_spec(
        n=1, k=1, m=1,
        eval_A=lambda y, u: np.array([[a0]]),
        eval_b=lambda y, u: np.zeros(1),
        eval_C=lambda y: np.array([[c0 + c1v * float(np.atleast_1d(y)[0])]]),
        eval_f=lambda y, u: np.array([f0 + float(np.atleast_1d(u)[0])]),
    )
    u = np.array([0.3])
    trace = simulate_plant(spec, lambda t: u,
                           SimConfig(t_end=1.0, h=5e-4, x0=[1.4], y0=[0.2]))
    window = IoWindow(grid=trace.grid, y_samples=trace.y_meas, u_samples=trace.u)
    z_closed = scalar_observer_P(
        window,
        a_eval=lambda y, u: a0,
        f_eval=lambda y, u: f0 + float(np.atleast_1d(u)[0]),
        c_eval=lambda y: c0 + c1v * float(y),
    )
    z_generic = apply_P(spec, window)
    assert z_closed == pytest.approx(z_generic[0], abs=1e-6)
    assert z_closed == pytest.approx(trace.x_true[-1, 0], abs=1e-6)


def test_scalar_observer_singular_kernel():
    grid = Grid.from_span(0.0, 1.0, 0.01)
    window = IoWindow(grid=grid, y_samples=np.zeros((grid.count, 1)),
                      u_samples=np.zeros((grid.count, 1)))
    with pytest.raises(NotPositiveDefinite):
        scalar_observer_P(window, a_eval=lambda y, u: 0.0,
                          f_eval=lambda y, u: 0.0,
                          c_eval=lambda y: 0.0)
