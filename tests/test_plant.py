import dataclasses

import numpy as np
import pytest

from deadbeat_observer import applications as apps
from deadbeat_observer.cli import build_scalar_spec, canonical_example26
from deadbeat_observer.errors import DimensionMismatch, DomainExit, InvalidValue, NonFiniteState
from deadbeat_observer.model import make_lti, sampled_input
from deadbeat_observer.numerics import Grid, integrate_rk4
from deadbeat_observer.plant import (
    SensorModel,
    SimConfig,
    Trace,
    corrupt,
    simulate_plant,
)
from deadbeat_observer.window import indistinguishing_input

from oracles import pointwise_spec, scalar_oracle_spec


def test_simulate_scalar_oracle():
    spec = scalar_oracle_spec()
    trace = simulate_plant(spec, None, SimConfig(t_end=2.0, h=1e-3,
                                                 x0=[2.0], y0=[0.0]))
    t = trace.grid.times()
    assert np.max(np.abs(trace.x_true[:, 0] - 2.0)) < 1e-12
    assert np.max(np.abs(trace.y_true[:, 0] - 2.0 * t)) < 1e-10
    assert np.array_equal(trace.y_meas, trace.y_true)
    assert np.all(trace.u == 0.0)


def test_simulate_frequency_matches_sinusoid():
    scn = apps.FrequencyScenario(phase=0.4, h=5e-4)
    spec = apps.freq_spec()
    x0, y0 = scn.initial_state()
    trace = simulate_plant(spec, None, SimConfig(t_end=1.0, h=scn.h, x0=x0, y0=y0))
    t = trace.grid.times()
    exact = scn.amplitude * np.sin(scn.omega * t + scn.phase)
    assert np.max(np.abs(trace.y_true[:, 0] - exact)) < 1e-9


def ramp_spec(ceiling):
    """y' = 1 with the domain y < ceiling, so y(t) = y0 + t leaves it on a known node."""
    return pointwise_spec(
        n=1, k=1, m=1,
        eval_A=lambda y, u: np.zeros((1, 1)),
        eval_b=lambda y, u: np.zeros(1),
        eval_C=lambda y: np.zeros((1, 1)),
        eval_f=lambda y, u: np.ones(1),
        in_domain=lambda x, y: float(y[0]) < ceiling,
    )


def test_simulate_domain_exit_reports_node():
    with pytest.raises(DomainExit) as exc:
        simulate_plant(ramp_spec(0.55), None,
                       SimConfig(t_end=1.0, h=0.1, x0=[1.0], y0=[0.0]))
    assert exc.value.index == 6  # y(t) = t crosses 0.55 at node 6


def test_simulate_initial_condition_outside_domain():
    spec = apps.freq_spec()
    with pytest.raises(DomainExit) as exc:
        simulate_plant(spec, None, SimConfig(t_end=1.0, h=0.1,
                                             x0=[1.0, 4.0], y0=[0.0]))
    assert exc.value.index == 0


def square_spec():
    """y' = y^2, which blows up at t = 1 / y0."""
    return pointwise_spec(
        n=1, k=1, m=1,
        eval_A=lambda y, u: np.zeros((1, 1)),
        eval_b=lambda y, u: np.zeros(1),
        eval_C=lambda y: np.zeros((1, 1)),
        eval_f=lambda y, u: np.atleast_1d(y) ** 2,
    )


@pytest.mark.filterwarnings("ignore:overflow")
def test_simulate_finite_time_blowup():
    spec = square_spec()
    with pytest.raises(NonFiniteState):
        simulate_plant(spec, None, SimConfig(t_end=2.0, h=0.01,
                                             x0=[0.0], y0=[1.0]))


@pytest.mark.parametrize("t_end, h", [(float("nan"), 0.1), (float("inf"), 0.1),
                                       (1.0, float("nan"))])
def test_sim_config_rejects_a_non_finite_span_or_step(t_end, h):
    with pytest.raises(InvalidValue):
        SimConfig(t_end=t_end, h=h, x0=[1.0], y0=[0.0])


def test_simulate_deterministic():
    spec = apps.reactor_spec(apps.canonical_reactor_params())
    cfg = SimConfig(t_end=0.5, h=1e-3, x0=[0.8, 0.5], y0=[315.0])
    a = simulate_plant(spec, None, cfg)
    b = simulate_plant(spec, None, cfg)
    assert np.array_equal(a.x_true, b.x_true)
    assert np.array_equal(a.y_true, b.y_true)


def test_input_width_must_match_the_spec():
    spec = scalar_oracle_spec()  # m = 1
    cfg = SimConfig(t_end=0.1, h=0.01, x0=[2.0], y0=[0.0])
    for signal in (lambda t: np.array([1.0, 2.0]), lambda t: np.zeros(3),
                   lambda t: 0.0):
        with pytest.raises(DimensionMismatch, match="input has shape"):
            simulate_plant(spec, signal, cfg)
    simulate_plant(spec, lambda t: np.array([1.0]), cfg)


@pytest.mark.parametrize("x0, y0", [([1.0], [-4.0, 2.0]), ([1.0, -4.0, 2.0], []),
                                    ([[1.0, -4.0]] * 2, [[2.0]] * 2)],
                         ids=["x0 short", "y0 empty", "2-D states"])
def test_initial_state_widths_must_match_the_spec(x0, y0):
    good = apps.freq_spec()  # n = 2, k = 1
    calls = []

    def in_domain(x, y):
        calls.append(1)
        return True

    spec = dataclasses.replace(good, in_domain=in_domain)
    with pytest.raises(DimensionMismatch, match="initial states"):
        simulate_plant(spec, None, SimConfig(t_end=0.01, h=0.001, x0=x0, y0=y0))
    assert not calls


def test_corrupt_batched_trace_shares_noise():
    # a leading phase axis, as the frequency sweep reads its windows
    grid = Grid.from_span(0.0, 1.0, 0.01)
    y = np.array([2.0, -1.0, 0.5])[:, None, None] * grid.times()[:, None]
    trace = Trace(grid=grid, x_true=-y, y_true=y, y_meas=y.copy(),
                  u=np.zeros((grid.count, 1)))
    noisy = corrupt(trace, SensorModel(amplitude=0.2, frequency=10.0))
    noise = 0.2 * np.sin(10.0 * trace.grid.times())
    for i in range(3):
        assert np.array_equal(noisy.y_meas[i], trace.y_true[i] + noise[:, None])
    assert np.array_equal(noisy.y_true, trace.y_true)
    assert np.array_equal(noisy.x_true, trace.x_true)


def test_sensor_noise_is_what_measure_adds():
    t = Grid.from_span(0.0, 1.0, 0.01).times()
    assert SensorModel().noise(t) is None
    sensor = SensorModel(amplitude=0.2, frequency=10.0)
    assert np.array_equal(sensor.noise(t), 0.2 * np.sin(10.0 * t))
    y = np.array([2.0, -1.0])[:, None] * t  # one row per phase, as a sweep makes them
    assert np.array_equal(sensor.measure(y[:, :, None], t)[:, :, 0], y + sensor.noise(t))


def test_corrupt_additive_sinusoid():
    spec = scalar_oracle_spec()
    trace = simulate_plant(spec, None, SimConfig(t_end=1.0, h=0.01,
                                                 x0=[2.0], y0=[0.0]))
    noisy = corrupt(trace, SensorModel(amplitude=0.2, frequency=10.0))
    t = trace.grid.times()
    assert np.allclose(noisy.y_meas[:, 0] - noisy.y_true[:, 0],
                       0.2 * np.sin(10.0 * t))
    assert np.array_equal(noisy.y_true, trace.y_true)
    assert np.array_equal(noisy.x_true, trace.x_true)


def test_corrupt_clean_sensor_is_identity():
    spec = scalar_oracle_spec()
    trace = simulate_plant(spec, None, SimConfig(t_end=1.0, h=0.1,
                                                 x0=[2.0], y0=[0.0]))
    clean = corrupt(trace, SensorModel())
    assert np.array_equal(clean.y_meas, trace.y_true)


def test_sensor_model_validation():
    with pytest.raises(ValueError):
        SensorModel(amplitude=-0.1)
    with pytest.raises(ValueError):
        SensorModel(amplitude=0.2, frequency=0.0)
    SensorModel(amplitude=0.0, frequency=0.0)  # frequency unused when clean


@pytest.mark.parametrize("amplitude, frequency", [
    (float("nan"), 1.0), (float("inf"), 1.0), (0.2, float("nan")), (0.0, float("inf")),
])
def test_sensor_model_rejects_non_finite(amplitude, frequency):
    with pytest.raises(ValueError):
        SensorModel(amplitude=amplitude, frequency=frequency)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(t_end=0.0, h=0.1, x0=[1.0], y0=[0.0])


def coercing_point_rate(spec, s, u):
    """The (x, y) rate as it was written before the evaluator contract was
    checked once per run: every result coerced and reshaped at every call."""
    n, k = spec.n, spec.k
    x, y = s[:n], s[n:]
    A = np.asarray(spec.eval_A(y, u), dtype=float)
    b = np.asarray(spec.eval_b(y, u), dtype=float)
    C = np.asarray(spec.eval_C(y), dtype=float).reshape(n, k)
    f = np.atleast_1d(np.asarray(spec.eval_f(y, u), dtype=float))
    return np.concatenate([A @ x + b, f + C.T @ x])


def single_plant_cases():
    """(name, spec, input signal, SimConfig) of single-trajectory plant runs."""
    cases = [("reactor", apps.reactor_spec(apps.canonical_reactor_params()), None,
              SimConfig(t_end=0.5, h=2.5e-3, x0=[0.8, 0.5], y0=[315.0]))]
    scn = apps.FrequencyScenario(phase=0.7, h=1e-3)
    x0, y0 = scn.initial_state()
    cases.append(("frequency", apps.freq_spec(), None,
                  SimConfig(t_end=0.5, h=scn.h, x0=x0, y0=y0)))
    cases.append(("scalar plant under sin(7t)",
                  build_scalar_spec({"a0": -0.4, "f0": 0.2, "input_gain": 0.7,
                                     "c0": 1.1, "c1": -0.3}),
                  lambda t: np.array([np.sin(7.0 * t)]),
                  SimConfig(t_end=1.0, h=0.005, x0=[1.5], y0=[0.2])))
    ex = canonical_example26()
    grid = Grid.from_span(0.0, 1.0, 1e-3)
    u_s, _ = indistinguishing_input(ex, np.array([0.5, -0.3]), 0.2, grid)
    cases.append(("example26 under its indistinguishing input", ex.to_system_spec(),
                  sampled_input(grid, u_s),
                  SimConfig(t_end=1.0, h=1e-3, x0=[0.5, -0.3], y0=[0.2])))
    rng = np.random.default_rng(2024)
    for n in range(1, 7):
        for k in range(1, 4):
            A = rng.normal(size=(n, n))
            spec = make_lti(A / np.linalg.norm(A, 2), rng.normal(size=n),
                            rng.normal(size=(n, k)), rng.normal(size=k))
            cases.append((f"lti n={n} k={k}", spec, None,
                          SimConfig(t_end=0.2, h=0.01, x0=rng.normal(size=n),
                                    y0=rng.normal(size=k))))
    return cases


def test_single_trajectory_bit_for_bit_as_the_coercing_rate():
    for name, spec, signal, cfg in single_plant_cases():
        trace = simulate_plant(spec, signal, cfg)
        signal = signal or (lambda t: np.zeros(spec.m))
        expected = integrate_rk4(lambda t, s: coercing_point_rate(spec, s, signal(t)),
                                 np.concatenate([cfg.x0, cfg.y0]), trace.grid)
        assert np.array_equal(trace.x_true, expected[:, :spec.n]), name
        assert np.array_equal(trace.y_true, expected[:, spec.n:]), name


def test_single_trajectory_makes_sixteen_evaluator_calls_a_step():
    spec = apps.reactor_spec(apps.canonical_reactor_params())
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(1)
            return fn(*args)
        return wrapper

    counting = dataclasses.replace(spec, eval_A=counted(spec.eval_A),
                                   eval_b=counted(spec.eval_b),
                                   eval_C=counted(spec.eval_C),
                                   eval_f=counted(spec.eval_f))
    trace = simulate_plant(counting, None, SimConfig(t_end=0.25, h=2.5e-3,
                                                     x0=[0.8, 0.5], y0=[315.0]))
    steps = trace.grid.count - 1
    assert steps == 100
    assert len(calls) == 16 * steps + 4  # four stages of four, plus the node-0 check


@pytest.mark.parametrize("wrong_C", [lambda y: [[1.0], [0.0]], lambda y: np.array([1.0, 0.0])],
                         ids=["list", "(n,) array"])
def test_single_trajectory_checks_evaluator_shapes_before_any_step(wrong_C):
    good = apps.freq_spec()
    calls = []

    def eval_A(y, u):
        calls.append(1)
        return good.eval_A(y, u)

    scn = apps.FrequencyScenario(phase=0.7, h=1e-3)
    x0, y0 = scn.initial_state()
    with pytest.raises(DimensionMismatch, match="eval_C"):
        simulate_plant(dataclasses.replace(good, eval_A=eval_A, eval_C=wrong_C), None,
                       SimConfig(t_end=0.5, h=scn.h, x0=x0, y0=y0))
    assert len(calls) == 1
