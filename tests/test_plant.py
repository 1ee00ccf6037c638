import numpy as np
import pytest

from deadbeat_observer import applications as apps
from deadbeat_observer.cli import build_scalar_spec
from deadbeat_observer.errors import DimensionMismatch, DomainExit, NonFiniteState
from deadbeat_observer.model import InputSignal, SystemSpec, scalar_oracle_spec
from deadbeat_observer.plant import (
    SensorModel,
    SimConfig,
    corrupt,
    simulate_plant,
)


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
    return SystemSpec(
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
    return SystemSpec(
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


def test_simulate_deterministic():
    spec = apps.reactor_spec(apps.canonical_reactor_params())
    cfg = SimConfig(t_end=0.5, h=1e-3, x0=[0.8, 0.5], y0=[315.0])
    a = simulate_plant(spec, None, cfg)
    b = simulate_plant(spec, None, cfg)
    assert np.array_equal(a.x_true, b.x_true)
    assert np.array_equal(a.y_true, b.y_true)


def _frequency_batch():
    states = [apps.FrequencyScenario(phase=ph).initial_state() for ph in (0.2, 1.7, 4.0)]
    return apps.freq_spec(), None, [x for x, _ in states], [y for _, y in states]


BATCH_CASES = {
    "frequency": _frequency_batch,
    "reactor": lambda: (apps.reactor_spec(apps.canonical_reactor_params()), None,
                        [[0.8, 0.5], [0.3, 1.2], [0.95, 0.1]],
                        [[315.0], [305.0], [330.0]]),
    "scalar_oracle": lambda: (scalar_oracle_spec(), None, [[2.0], [-1.0], [0.5]],
                              [[0.0], [3.0], [-2.0]]),
    # the input is shared by the batch and must be sampled at each stage time
    "scalar_input": lambda: (
        build_scalar_spec({"a0": -0.4, "f0": 0.2, "input_gain": 0.7, "c0": 1.1, "c1": -0.3}),
        InputSignal.closure(lambda t: np.sin(7.0 * t), 1),
        [[2.0], [-1.0], [0.5]], [[0.0], [1.0], [-0.5]]),
}


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_batch_matches_single_runs(name):
    spec, signal, x0s, y0s = BATCH_CASES[name]()
    batch = simulate_plant(spec, signal, SimConfig(t_end=0.5, h=1e-3, x0=x0s, y0=y0s))
    assert batch.x_true.shape == (3, batch.grid.count, spec.n)
    assert batch.y_true.shape == batch.y_meas.shape == (3, batch.grid.count, spec.k)
    for i, (x0, y0) in enumerate(zip(x0s, y0s)):
        single = simulate_plant(spec, signal, SimConfig(t_end=0.5, h=1e-3, x0=x0, y0=y0))
        for got, ref in ((batch.x_true[i], single.x_true), (batch.y_true[i], single.y_true)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(batch.u, single.u)


def test_batch_domain_exit_reports_earliest_member():
    # members cross 0.55 at nodes 6, 3 and 5: the batch stops at node 3
    with pytest.raises(DomainExit) as exc:
        simulate_plant(ramp_spec(0.55), None, SimConfig(
            t_end=1.0, h=0.1, x0=[[1.0], [1.0], [1.0]], y0=[[0.0], [0.3], [0.1]]))
    assert exc.value.index == 3
    assert "member 1" in str(exc.value)


def test_batch_initial_condition_outside_domain():
    spec, _, x0s, y0s = _frequency_batch()
    x0s[2] = [1.0, 4.0]
    with pytest.raises(DomainExit) as exc:
        simulate_plant(spec, None, SimConfig(t_end=1.0, h=0.1, x0=x0s, y0=y0s))
    assert exc.value.index == 0
    assert "member 2" in str(exc.value)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_batch_blowup_in_one_member():
    spec = square_spec()
    with pytest.raises(NonFiniteState) as single:
        simulate_plant(spec, None, SimConfig(t_end=2.0, h=0.01, x0=[0.0], y0=[1.0]))
    with pytest.raises(NonFiniteState) as exc:
        simulate_plant(spec, None, SimConfig(t_end=2.0, h=0.01, x0=[[0.0], [0.0]],
                                             y0=[[0.1], [1.0]]))
    assert exc.value.index == single.value.index
    assert "member 1" in str(exc.value)


def test_batch_leading_sizes_must_agree():
    with pytest.raises(DimensionMismatch):
        SimConfig(t_end=1.0, h=0.1, x0=np.zeros((3, 2)), y0=np.zeros((2, 1)))
    with pytest.raises(DimensionMismatch):
        SimConfig(t_end=1.0, h=0.1, x0=np.zeros((3, 2)), y0=np.zeros(1))
    with pytest.raises(DimensionMismatch):
        SimConfig(t_end=1.0, h=0.1, x0=np.zeros((0, 2)), y0=np.zeros((0, 1)))


def test_corrupt_batched_trace_shares_noise():
    trace = simulate_plant(scalar_oracle_spec(), None, SimConfig(
        t_end=1.0, h=0.01, x0=[[2.0], [-1.0], [0.5]], y0=[[0.0], [1.0], [2.0]]))
    noisy = corrupt(trace, SensorModel(amplitude=0.2, frequency=10.0))
    noise = 0.2 * np.sin(10.0 * trace.grid.times())
    for i in range(3):
        assert np.array_equal(noisy.y_meas[i], trace.y_true[i] + noise[:, None])
    assert np.array_equal(noisy.y_true, trace.y_true)
    assert np.array_equal(noisy.x_true, trace.x_true)


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
    clean = corrupt(trace, SensorModel.clean())
    assert np.array_equal(clean.y_meas, trace.y_true)


def test_sensor_model_validation():
    with pytest.raises(ValueError):
        SensorModel(amplitude=-0.1)
    with pytest.raises(ValueError):
        SensorModel(amplitude=0.2, frequency=0.0)
    SensorModel(amplitude=0.0, frequency=0.0)  # frequency unused when clean


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(t_end=0.0, h=0.1, x0=[1.0], y0=[0.0])
