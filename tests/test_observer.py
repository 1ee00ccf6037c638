import dataclasses
import warnings

import numpy as np
import pytest

from deadbeat_observer import applications as apps
from deadbeat_observer import numerics, observer, window
from deadbeat_observer.errors import (
    DimensionMismatch,
    DomainExit,
    InvalidValue,
    NonFiniteState,
)
from deadbeat_observer.model import make_lti
from deadbeat_observer.observer import (
    FULL,
    REDUCED,
    ObserverConfig,
    observer_init,
    observer_step,
    run_observer,
)
from deadbeat_observer.plant import SimConfig, Trace, simulate_plant

from oracles import pointwise_spec, scalar_oracle_spec, scalar_spec


def test_config_validation():
    with pytest.raises(ValueError):
        ObserverConfig(r=1.0, h=0.1, mode="adaptive")
    with pytest.raises(ValueError):
        ObserverConfig(r=1.0, h=0.3)  # r not a multiple of h
    with pytest.raises(ValueError):
        ObserverConfig(r=0.1, h=0.1)  # fewer than 2 steps per window
    for r in (float("nan"), float("inf")):  # the grid's value rule, not numpy's int()
        with pytest.raises(InvalidValue):
            ObserverConfig(r=r, h=0.1)
    cfg = ObserverConfig(r=1.0, h=0.01)
    assert cfg.steps_per_window == 100


def test_steps_per_window_is_derived_once_and_not_compared():
    with pytest.raises(TypeError):
        ObserverConfig(r=1.0, h=0.01, steps_per_window=50)
    cfg = ObserverConfig(r=0.3, h=0.1)
    assert cfg.steps_per_window == 3
    other = ObserverConfig(r=0.3, h=0.1)
    object.__setattr__(other, "steps_per_window", 7)
    assert cfg == other and hash(cfg) == hash(other)
    assert "steps_per_window" not in repr(cfg)
    assert dataclasses.replace(cfg, r=0.5).steps_per_window == 5


def test_snapshot_is_immutable():
    spec = scalar_oracle_spec()
    snap = observer_init(spec, ObserverConfig(r=1.0, h=0.1), z0=[0.0], y0=[0.0], u0=[0.0])
    for name in ("z", "node", "degenerate_events", "last_reset_applied"):
        with pytest.raises(AttributeError):
            setattr(snap, name, getattr(snap, name))
    with pytest.raises(AttributeError):
        snap.extra = 1


def test_init_requires_w0_in_full_mode():
    spec = scalar_oracle_spec()
    cfg = ObserverConfig(r=1.0, h=0.1, mode=FULL)
    with pytest.raises(ValueError):
        observer_init(spec, cfg, z0=[0.0], y0=[0.0])
    snap = observer_init(spec, cfg, z0=[0.0], w0=[1.0], y0=[0.0])
    assert snap.w[0] == 1.0


def test_init_seeds_history():
    # y0 starts the first reset window: on y = 0.5 + 2t the scalar oracle's
    # reset at node M = 10 is the exact x = 2
    spec = scalar_oracle_spec()
    cfg = ObserverConfig(r=1.0, h=0.1)
    snap = observer_init(spec, cfg, z0=[0.0], y0=[0.5], u0=[0.0])
    assert snap.node == 0
    for j in range(1, 11):
        snap = observer_step(spec, cfg, snap, y_meas=[0.5 + 0.2 * j], u=[0.0])
    assert snap.last_reset_applied
    assert snap.z[0] == pytest.approx(2.0, rel=1e-12)


def test_init_rejects_out_of_domain_estimate():
    spec = apps.freq_spec()
    cfg = ObserverConfig(r=1.0, h=0.1)
    with pytest.raises(DomainExit) as exc:
        observer_init(spec, cfg, z0=[1.0, 4.0], y0=[1.0])
    assert exc.value.index == 0


def test_full_init_checks_the_domain_at_the_output_estimate():
    # the full-order state is (z, w): w0 = 400 K lies above Tmax = 350 K while
    # y0 = 315 K does not, so the estimate is rejected at node 0 on both paths
    spec = apps.reactor_spec(apps.canonical_reactor_params())
    cfg = ObserverConfig(r=1 / 3, h=1 / 750, mode=FULL)
    with pytest.raises(DomainExit, match=r"w0=\[400\.\]") as exc:
        observer_init(spec, cfg, z0=[0.5, 1.0], w0=[400.0], y0=[315.0])
    assert exc.value.index == 0
    trace = simulate_plant(spec, None, SimConfig(t_end=1 / 3, h=1 / 750, x0=[0.5, 1.0],
                                                 y0=[315.0]))
    with pytest.raises(DomainExit) as exc:
        run_observer(spec, cfg, trace, z0=[0.5, 1.0], w0=[400.0])
    assert exc.value.index == 0


def test_full_step_leaving_the_domain_names_the_output_estimate():
    # w' = z = 1 carries the output estimate from 0.95 past the bound w < 1 in one step
    plant = make_lti(np.zeros((1, 1)), np.zeros(1), np.ones((1, 1)), np.zeros(1))
    spec = dataclasses.replace(plant, in_domain=lambda x, y: y[0] < 1.0)
    cfg = ObserverConfig(r=1.0, h=0.1, mode=FULL)
    snap = observer_init(spec, cfg, z0=[1.0], w0=[0.95], y0=[0.0])
    with pytest.raises(DomainExit, match=r"\(z=\[1\.\], w=\[1\.05\]\)") as exc:
        observer_step(spec, cfg, snap, [0.0], [0.0])
    assert exc.value.index == 1


def test_init_requires_the_initial_measurement():
    spec = scalar_oracle_spec()
    cfg = ObserverConfig(r=1.0, h=0.1)
    with pytest.raises(TypeError):
        observer_init(spec, cfg, z0=[0.0])
    with pytest.raises(TypeError):  # y0 is keyword-only
        observer_init(spec, cfg, [0.0], None, 0.0, [0.5])


@pytest.mark.parametrize("mode, field, value", [
    (REDUCED, "z0", [0.0, -4.0, 1.0]), (REDUCED, "y0", [1.0, 0.0]), (FULL, "w0", [1.0, 0.0]),
    (REDUCED, "u0", [0.0, 0.0]), (FULL, "u0", []),
], ids=["z0", "y0", "w0", "u0 wide", "u0 empty"])
def test_init_checks_the_widths_of_its_initial_values(mode, field, value):
    spec = apps.freq_spec()  # n = 2, k = 1, m = 1
    cfg = ObserverConfig(r=1.0, h=0.1, mode=mode)
    good = {"z0": [0.0, -4.0], "w0": [1.0], "y0": [1.0], "u0": [0.0]}
    with pytest.raises(DimensionMismatch, match=f"{field} has shape"):
        observer_init(spec, cfg, **{**good, field: value})
    observer_init(spec, cfg, **good)


def test_replay_checks_the_estimate_width_before_any_step():
    spec = scalar_oracle_spec()
    trace = simulate_plant(spec, None, SimConfig(t_end=1.0, h=0.1, x0=[2.0], y0=[0.0]))
    for mode, w0 in ((REDUCED, None), (FULL, [0.0])):
        with pytest.raises(DimensionMismatch, match="z0 has shape"):
            run_observer(spec, ObserverConfig(r=0.5, h=0.1, mode=mode), trace, [0.0, 1.0], w0)


def test_reduced_init_ignores_w0():
    spec = scalar_oracle_spec()
    cfg = ObserverConfig(r=1.0, h=0.1)
    for w0 in (None, [7.0]):
        snap = observer_init(spec, cfg, z0=[0.0], w0=w0, y0=[0.5], u0=[0.0])
        assert np.array_equal(snap.w, [0.5])
        snap = observer_step(spec, cfg, snap, y_meas=[0.6], u=[0.0])
        assert np.array_equal(snap.w, [0.6])


def test_step_advances_clock_and_history():
    spec = scalar_oracle_spec()
    cfg = ObserverConfig(r=1.0, h=0.1)
    snap = observer_init(spec, cfg, z0=[0.0], y0=[0.0], u0=[0.0])
    snap = observer_step(spec, cfg, snap, y_meas=[0.2], u=[0.0])
    assert snap.node == 1
    assert not snap.last_reset_applied
    for j in range(2, 11):  # the first reset fires at node M = r/h = 10
        assert not snap.last_reset_applied
        snap = observer_step(spec, cfg, snap, y_meas=[0.2 * j], u=[0.0])
    assert snap.node == 10
    assert snap.last_reset_applied


def test_run_observer_dead_beat_scalar():
    spec = scalar_oracle_spec()
    trace = simulate_plant(spec, None, SimConfig(t_end=1.5, h=0.005,
                                                 x0=[2.0], y0=[0.0]))
    est = run_observer(spec, ObserverConfig(r=0.5, h=0.005), trace, z0=[0.0])
    t = trace.grid.times()
    # before the first reset the estimate flows from z0 = 0 (x' = 0)
    assert np.max(np.abs(est.z[t < 0.5 - 1e-12, 0])) < 1e-12
    # from the first reset on, the estimate matches the true state
    post = t >= 0.5 - 1e-12
    assert np.max(np.abs(est.z[post, 0] - trace.x_true[post, 0])) < 1e-8
    # resets fire exactly at multiples of r
    reset_nodes = np.flatnonzero(est.reset_flags)
    assert list(reset_nodes) == [100, 200, 300]
    assert est.degenerate_events == 0


def test_run_observer_full_mode_frequency():
    scn = apps.FrequencyScenario(phase=1.0, h=5e-4)
    spec = apps.freq_spec()
    x0, y0 = scn.initial_state()
    trace = simulate_plant(spec, None, SimConfig(t_end=2.0, h=scn.h, x0=x0, y0=y0))
    cfg = ObserverConfig(r=1.0, h=scn.h, mode=FULL)
    est = run_observer(spec, cfg, trace, z0=[1.0, -4.0], w0=y0)
    t = trace.grid.times()
    post = t >= 1.0 - 1e-12
    err = np.linalg.norm(est.z[post] - trace.x_true[post], axis=1)
    assert np.max(err) < 1e-4
    # the internal output copy is snapped to the measurement at resets
    reset_nodes = np.flatnonzero(est.reset_flags)
    assert np.allclose(est.w[reset_nodes], trace.y_meas[reset_nodes])


def test_run_observer_reduced_mirrors_measurement():
    spec = scalar_oracle_spec()
    trace = simulate_plant(spec, None, SimConfig(t_end=1.0, h=0.01,
                                                 x0=[2.0], y0=[0.0]))
    est = run_observer(spec, ObserverConfig(r=0.5, h=0.01), trace, z0=[0.0])
    assert np.array_equal(est.w, trace.y_meas)


def degenerate_cases():
    """(name, spec, trace) triples whose every r = 0.25 reset window is degenerate.

    The zero output map gives Q = 0.  The second state of the hidden-state
    plant never reaches the output, so Q = [[q, 0], [0, 0]] with q > 0 and a
    smallest pivot of 0: the fixed rule rejects a Q that is not zero.  Every
    plant state starts at 3.
    """
    zero_output = make_lti(np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)),
                           np.zeros(1))
    hidden_state = make_lti([[0, 0], [0, -1]], [0, 0], [[1], [0]], [0])
    return [(name, spec, simulate_plant(spec, None, SimConfig(t_end=1.0, h=0.01,
                                                              x0=np.full(spec.n, 3.0),
                                                              y0=[0.0])))
            for name, spec in (("zero output", zero_output), ("hidden state", hidden_state))]


def test_degenerate_window_hold_keeps_estimate():
    for name, spec, trace in degenerate_cases():
        first = window.IoWindow(numerics.Grid(0.0, 0.01, 26), trace.y_meas[:26], trace.u[:26])
        Q = window.gram(window.compute_window(spec, first)).Q
        assert (np.trace(Q) > 0) == (name == "hidden state"), name
        z0 = np.full(spec.n, 0.5)
        # the flow from z0 with no reset: 0.5, and 0.5 exp(-t) for a second state
        flowed = 0.5 * np.exp(-np.outer(trace.grid.times(), np.arange(spec.n)))
        for mode, w0 in ((REDUCED, None), (FULL, [0.0])):
            cfg = ObserverConfig(r=0.25, h=0.01, mode=mode)
            est = run_observer(spec, cfg, trace, z0, w0)
            streamed = stepped(spec, cfg, trace, z0, w0)
            for z, reset_flags, degenerate_flags, events in (
                    (est.z, est.reset_flags, est.degenerate_flags, est.degenerate_events),
                    (streamed[0], *streamed[2:])):
                assert events == 4, (name, mode)
                assert np.all(z[:, 0] == 0.5), (name, mode)
                assert np.allclose(z, flowed, rtol=0.0, atol=1e-9), (name, mode)
                assert np.all(reset_flags == 0), (name, mode)
                assert np.count_nonzero(degenerate_flags) == 4, (name, mode)


def test_run_observer_rejects_mismatched_step():
    spec = scalar_oracle_spec()
    trace = simulate_plant(spec, None, SimConfig(t_end=1.0, h=0.01,
                                                 x0=[2.0], y0=[0.0]))
    with pytest.raises(ValueError):
        run_observer(spec, ObserverConfig(r=0.5, h=0.005), trace, z0=[0.0])


def reactor_trace():
    spec = apps.reactor_spec(apps.canonical_reactor_params())
    return spec, simulate_plant(spec, None, SimConfig(t_end=0.5, h=2.5e-3,
                                                      x0=[0.8, 0.5], y0=[315.0]))


def test_run_observer_deterministic():
    spec, trace = reactor_trace()
    cfg = ObserverConfig(r=0.25, h=2.5e-3)
    a = run_observer(spec, cfg, trace, z0=[0.5, 1.0])
    b = run_observer(spec, cfg, trace, z0=[0.5, 1.0])
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.reset_flags, b.reset_flags)


def test_each_reset_factorises_once(monkeypatch):
    calls = []
    cholesky = numerics.cholesky_pivots

    def counted(Q):
        calls.append(Q.shape)
        return cholesky(Q)

    def forbidden(*args, **kwargs):
        raise AssertionError("eigen-decomposition on the reset path")

    # both names a reset could reach the factorization through
    monkeypatch.setattr(numerics, "cholesky_pivots", counted)
    monkeypatch.setattr(window, "cholesky_pivots", counted)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    spec, trace = reactor_trace()
    est = run_observer(spec, ObserverConfig(r=0.25, h=2.5e-3), trace,
                       z0=[0.5, 1.0])
    attempted = np.count_nonzero(est.reset_flags) + np.count_nonzero(est.degenerate_flags)
    assert attempted == 2
    assert len(calls) == attempted


def stepped(spec, cfg, trace, z0, w0=None):
    """The trace streamed through observer_init/observer_step, node by node."""
    snap = observer_init(spec, cfg, z0, w0, t0=trace.grid.t0,
                         y0=trace.y_meas[0], u0=trace.u[0])
    count = trace.grid.count
    z, w = [snap.z], [snap.w]
    reset_flags, degenerate_flags = np.zeros(count, dtype=int), np.zeros(count, dtype=int)
    for j in range(1, count):
        before = snap.degenerate_events
        snap = observer_step(spec, cfg, snap, trace.y_meas[j], trace.u[j - 1])
        z.append(snap.z)
        w.append(snap.w)
        reset_flags[j] = int(snap.last_reset_applied)
        degenerate_flags[j] = int(snap.degenerate_events > before)
    return np.array(z), np.array(w), reset_flags, degenerate_flags, snap.degenerate_events


def replay_cases():
    """(name, spec, config, trace, z0, w0) replayed both ways."""
    cases = []
    spec = apps.reactor_spec(apps.canonical_reactor_params())
    trace = simulate_plant(spec, None, SimConfig(t_end=0.6, h=2.5e-3,
                                                 x0=[0.8, 0.5], y0=[315.0]))
    cases.append(("reactor", spec, ObserverConfig(r=0.25, h=2.5e-3), trace,
                  [0.5, 1.0], None))
    spec = scalar_oracle_spec()
    trace = simulate_plant(spec, None, SimConfig(t_end=1.3, h=0.005, x0=[2.0], y0=[0.0]))
    cases.append(("scalar oracle, partial tail window", spec,
                  ObserverConfig(r=0.5, h=0.005), trace, [0.0], None))
    scn = apps.FrequencyScenario(phase=1.0, h=1e-3)
    spec = apps.freq_spec()
    x0, y0 = scn.initial_state()
    trace = simulate_plant(spec, None, SimConfig(t_end=2.3, h=scn.h, x0=x0, y0=y0))
    cases.append(("frequency, full", spec, ObserverConfig(r=1.0, h=scn.h, mode=FULL),
                  trace, [1.0, -4.0], y0))
    spec = scalar_spec({"a0": -0.4, "f0": 0.2, "input_gain": 0.7, "c0": 1.1, "c1": -0.3})
    trace = simulate_plant(spec, lambda t: np.array([np.sin(7.0 * t)]),
                           SimConfig(t_end=1.3, h=0.005, x0=[1.5], y0=[0.2]))
    for mode in (REDUCED, FULL):
        cases.append((f"scalar plant under a varying input, {mode}", spec,
                      ObserverConfig(r=0.5, h=0.005, mode=mode), trace, [0.0], [0.2]))
    for name, spec, trace in degenerate_cases():
        cases.append((f"degenerate, {name}", spec, ObserverConfig(r=0.25, h=0.01), trace,
                      np.full(spec.n, 0.5), None))
    return cases


def assert_close(a, b):
    scale = np.maximum(np.max(np.abs(b), axis=0), 1e-300)
    assert np.all(np.abs(a - b) <= 1e-12 * scale)


def test_replay_matches_streaming():
    applied = held = 0
    for name, spec, cfg, trace, z0, w0 in replay_cases():
        est = run_observer(spec, cfg, trace, z0, w0)
        z, w, reset_flags, degenerate_flags, events = stepped(spec, cfg, trace, z0, w0)
        assert_close(est.z, z)
        assert_close(est.w, w)
        assert np.array_equal(est.reset_flags, reset_flags), name
        assert np.array_equal(est.degenerate_flags, degenerate_flags), name
        assert est.degenerate_events == events, name
        applied += np.count_nonzero(reset_flags)
        held += events
    assert applied == 2 + 2 + 2 + 2 + 2 and held == 4 + 4


def hand_written_full_flow_step(spec, h, z, w, u):
    """The full-order flow step as it was written out by hand, stage by stage."""
    n, k = spec.n, spec.k

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


def assert_full_mode_as_hand_written(name, spec, cfg, trace, z0, w0):
    """Full-mode replay and streaming equal the hand-written step bit for bit."""
    y, u = trace.y_meas, trace.u
    M = cfg.steps_per_window
    z, w = [np.asarray(z0, dtype=float)], [np.asarray(w0, dtype=float)]
    for j in range(1, trace.grid.count):
        zj, wj = hand_written_full_flow_step(spec, cfg.h, z[-1], w[-1], u[j - 1])
        if j % M == 0:
            io = window.IoWindow(numerics.Grid(0.0, cfg.h, M + 1),
                                 y[j - M:j + 1], u[j - M:j + 1])
            zj, wj = window.apply_P(spec, io), y[j]
        z.append(zj)
        w.append(wj)
    est = run_observer(spec, cfg, trace, z0, w0)
    assert np.count_nonzero(est.reset_flags) == 2, name
    streamed_z, streamed_w = stepped(spec, cfg, trace, z0, w0)[:2]
    for got_z, got_w in ((est.z, est.w), (streamed_z, streamed_w)):
        assert np.array_equal(got_z, np.array(z)), name
        assert np.array_equal(got_w, np.array(w)), name


def test_full_mode_flows_bit_for_bit_as_the_hand_written_step():
    cases = [case for case in replay_cases() if case[2].mode == FULL]
    assert [name for name, *_ in cases] == [
        "frequency, full", "scalar plant under a varying input, full"]
    for case in cases:
        assert_full_mode_as_hand_written(*case)


def test_full_mode_on_the_reactor_and_lti_plants_as_the_hand_written_step():
    spec = apps.reactor_spec(apps.canonical_reactor_params())
    trace = simulate_plant(spec, None, SimConfig(t_end=0.6, h=2.5e-3,
                                                 x0=[0.8, 0.5], y0=[315.0]))
    assert_full_mode_as_hand_written("reactor", spec,
                                     ObserverConfig(r=0.25, h=2.5e-3, mode=FULL),
                                     trace, [0.5, 1.0], [316.0])
    rng = np.random.default_rng(77)
    for n, k in ((1, 3), (3, 2), (4, 3)):
        A = rng.normal(size=(n, n))
        spec = make_lti(A / np.linalg.norm(A, 2), rng.normal(size=n),
                        rng.normal(size=(n, k)), rng.normal(size=k))
        trace = simulate_plant(spec, None, SimConfig(t_end=2.3, h=0.01,
                                                     x0=rng.normal(size=n),
                                                     y0=rng.normal(size=k)))
        assert_full_mode_as_hand_written(f"lti n={n} k={k}", spec,
                                         ObserverConfig(r=1.0, h=0.01, mode=FULL),
                                         trace, np.zeros(n), rng.normal(size=k))


@pytest.mark.parametrize("wrong", [{"eval_C": lambda y: [[1.0], [0.0]]},
                                   {"eval_C": lambda y: np.array([1.0, 0.0])},
                                   {"eval_A": lambda y, u: np.array([0.0])}],
                         ids=["list", "(n,) array", "(1,) eval_A"])
def test_evaluator_shapes_checked_before_any_step(wrong):
    good = apps.freq_spec()
    scn = apps.FrequencyScenario(phase=1.0, h=1e-3)
    x0, y0 = scn.initial_state()
    trace = simulate_plant(good, None, SimConfig(t_end=0.3, h=scn.h, x0=x0, y0=y0))
    name, = wrong
    calls = []

    def eval_b(y, u):
        calls.append(1)
        return good.eval_b(y, u)

    spec = dataclasses.replace(good, eval_b=eval_b, **wrong)
    for mode in (REDUCED, FULL):
        cfg = ObserverConfig(r=0.1, h=scn.h, mode=mode)
        with pytest.raises(DimensionMismatch, match=name):
            observer_init(spec, cfg, [1.0, -4.0], y0, y0=y0, u0=trace.u[0])
    with pytest.raises(DimensionMismatch, match=name):
        run_observer(spec, ObserverConfig(r=0.1, h=scn.h, mode=FULL), trace,
                     [1.0, -4.0], y0)
    assert len(calls) == 3  # one check per call, no flow step


def test_plant_samples_stage_times_and_observer_holds_left_input():
    # y' = u(t) = t^3 and x' = 0; RK4 with u sampled at its stage times is
    # Simpson's rule, exact for a cubic, while the observer holds u(t_j)
    spec = scalar_spec({"a0": 0.0, "f0": 0.0, "input_gain": 1.0, "c0": 0.0})
    signal = lambda t: np.array([t ** 3])
    trace = simulate_plant(spec, signal, SimConfig(t_end=0.5, h=0.05, x0=[0.0], y0=[0.0]))
    t = trace.grid.times()
    assert np.allclose(trace.y_true[:, 0], t ** 4 / 4, rtol=0.0, atol=1e-15)
    cfg = ObserverConfig(r=1.0, h=0.05, mode=FULL)  # no reset within the trace
    est = run_observer(spec, cfg, trace, z0=[0.0], w0=[0.0])
    held = np.concatenate([[0.0], np.cumsum(0.05 * t[:-1] ** 3)])
    assert np.allclose(est.w[:, 0], held, rtol=0.0, atol=1e-15)
    assert not np.allclose(est.w[-1], trace.y_true[-1], rtol=0.0, atol=1e-6)


def test_replay_and_streaming_fail_alike():
    # the estimate holds at 0 until the reset at node 50 puts it on the true
    # x = 2, outside its domain x < 1.5
    plant = make_lti([[0.0]], [0.0], [[1.0]], [0.0])
    trace = simulate_plant(plant, None, SimConfig(t_end=1.0, h=0.01, x0=[2.0], y0=[0.0]))
    spec = dataclasses.replace(plant, in_domain=lambda x, y: x[0] < 1.5)
    cfg = ObserverConfig(r=0.5, h=0.01)
    with pytest.raises(DomainExit) as replayed:
        run_observer(spec, cfg, trace, z0=[0.0])
    with pytest.raises(DomainExit) as streamed:
        stepped(spec, cfg, trace, [0.0])
    assert str(replayed.value) == str(streamed.value)
    assert replayed.value.index == streamed.value.index == 50


def test_observer_flow_divergence_on_both_paths():
    # z' = 50 z from z0 = 1e300 overflows in the first window; the replay
    # forms Phi_j z0 and overflows at node 39, while rk4_step sums its four
    # stages before it scales them by h/6, so streaming overflows at node 28
    spec = make_lti([[50.0]], [0.0], [[1.0]], [0.0])
    trace = simulate_plant(spec, None, SimConfig(t_end=1.0, h=0.01, x0=[0.0], y0=[0.0]))
    cfg = ObserverConfig(r=0.5, h=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteState) as replayed:
            run_observer(spec, cfg, trace, [1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # streaming's stage sum warns
        with pytest.raises(NonFiniteState) as streamed:
            stepped(spec, cfg, trace, [1e300])
    for raised, node in ((replayed, 39), (streamed, 28)):
        assert raised.value.index == node
        assert str(raised.value).startswith("observer flow diverged at t = ")


def with_nan(trace, j):
    y = trace.y_meas.copy()
    y[j] = np.nan
    return dataclasses.replace(trace, y_meas=y)


def test_nan_measurement_reports_trace_node():
    spec = scalar_oracle_spec()
    trace = simulate_plant(spec, None, SimConfig(t_end=1.3, h=0.005, x0=[2.0], y0=[0.0]))
    scn = apps.FrequencyScenario(phase=1.0, h=1e-3)
    x0, y0 = scn.initial_state()
    freq = simulate_plant(apps.freq_spec(), None, SimConfig(t_end=1.2, h=scn.h, x0=x0, y0=y0))
    reactor = apps.reactor_spec(apps.canonical_reactor_params())
    reactor_trace = simulate_plant(reactor, None, SimConfig(t_end=1.0, h=2.5e-3,
                                                            x0=[0.8, 0.5], y0=[315.0]))
    long_h = 1.0 / 6000.0
    long_trace = scalar_oracle_line(long_h, 2 * 2185 + 1)
    cases = [
        # reduced mode: in the second window, and in the partial tail window
        (spec, ObserverConfig(r=0.5, h=0.005), trace, 150, [0.0], None),
        (spec, ObserverConfig(r=0.5, h=0.005), trace, 230, [0.0], None),
        # full mode: the replay meets the measurement at the reset of its window
        (apps.freq_spec(), ObserverConfig(r=0.5, h=scn.h, mode=FULL), freq, 700,
         [1.0, -4.0], y0),
        # the initial node, the first window, a reset node and a later window
        *((reactor, ObserverConfig(r=0.25, h=2.5e-3), reactor_trace, j, [0.5, 1.0], None)
          for j in (0, 37, 100, 300)),
        # long windows in both modes; the scalar oracle's flow ignores y
        (spec, ObserverConfig(r=2185 * long_h, h=long_h), long_trace, 2300, [0.0], None),
        (spec, ObserverConfig(r=2185 * long_h, h=long_h, mode=FULL), long_trace, 2300,
         [0.0], [0.0]),
    ]
    for spec, cfg, trace, j, z0, w0 in cases:
        bad = with_nan(trace, j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState) as replayed:
                run_observer(spec, cfg, bad, z0, w0)
            with pytest.raises(NonFiniteState) as streamed:
                stepped(spec, cfg, bad, z0, w0)
        assert replayed.value.index == j
        assert streamed.value.index == j


def test_overflowing_gram_raises_at_the_reset_node():
    # q' = 2000 q grows about 8221-fold per RK4 step, so int q q' dt overflows
    # at the first reset, before the flow from z0 = 1 does
    spec = make_lti([[2000.0]], [0.0], [[1.0]], [0.0])
    trace = simulate_plant(spec, None, SimConfig(t_end=1.0, h=0.01, x0=[0.0], y0=[0.0]))
    for mode, w0 in ((REDUCED, None), (FULL, [0.0])):
        cfg = ObserverConfig(r=0.5, h=0.01, mode=mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState) as replayed:
                run_observer(spec, cfg, trace, [1.0], w0)
            with pytest.raises(NonFiniteState) as streamed:
                stepped(spec, cfg, trace, [1.0], w0)
        assert replayed.value.index == streamed.value.index == 50, cfg
        for raised in (replayed, streamed):
            assert str(raised.value) == ("non-finite Gram matrix of the window "
                                         "ending at grid index 50"), cfg


def test_reset_window_overflow_reports_the_stream_node():
    # A = 2e4 u: the flow from the exact reset at node 50 stays 0, while the
    # second window's transition matrix overflows at its node 40
    spec = pointwise_spec(n=1, k=1, m=1,
                          eval_A=lambda y, u: np.array([[2e4 * u[0]]]),
                          eval_b=lambda y, u: np.zeros(1),
                          eval_C=lambda y: np.ones((1, 1)),
                          eval_f=lambda y, u: np.ones(1))
    step = lambda t: np.array([0.0 if t < 0.5 else 1.0])
    trace = simulate_plant(spec, step, SimConfig(t_end=1.5, h=0.01, x0=[0.0], y0=[0.0]))
    for mode, w0 in ((REDUCED, None), (FULL, [0.0])):
        cfg = ObserverConfig(r=0.5, h=0.01, mode=mode)
        with pytest.raises(NonFiniteState) as replayed:
            run_observer(spec, cfg, trace, [0.0], w0)
        with pytest.raises(NonFiniteState) as streamed:
            stepped(spec, cfg, trace, [0.0], w0)
        assert replayed.value.index == streamed.value.index == 90, mode


def test_domain_exit_at_the_streaming_time():
    # x' = x from x0 = 1 crosses x = 2 at t = ln 2, after the reset at t = 0.5
    plant = make_lti(np.ones((1, 1)), np.zeros(1), np.ones((1, 1)), np.zeros(1))
    spec = dataclasses.replace(plant, in_domain=lambda x, y: x[0] < 2.0)
    trace = simulate_plant(plant, None, SimConfig(t_end=1.0, h=0.01, x0=[1.0], y0=[0.0]))
    for mode, w0 in ((REDUCED, None), (FULL, [0.0])):
        cfg = ObserverConfig(r=0.5, h=0.01, mode=mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainExit) as replayed:
                run_observer(spec, cfg, trace, [0.1], w0)
            with pytest.raises(DomainExit) as streamed:
                stepped(spec, cfg, trace, [0.1], w0)
        assert "at t = 0.7 " in str(replayed.value)
        assert replayed.value.index == streamed.value.index == 70, mode


def scalar_oracle_line(h, count):
    """The scalar oracle's exact trace from x = 2, y = 0: y = 2t (x' = 0, y' = x)."""
    grid = numerics.Grid(0.0, h, count)
    x = np.full((count, 1), 2.0)
    y = 2.0 * grid.times()[:, None]
    return Trace(grid=grid, x_true=x, y_true=y, y_meas=y, u=np.zeros((count, 1)))


def test_streaming_counts_nodes_on_long_windows():
    # r = 2185 h with h = 1/6000: a clock kept by adding h to t drops the
    # reset at node 10925; counting nodes fires at every multiple of M
    h = 1.0 / 6000.0
    M = 2185
    spec = scalar_oracle_spec()
    trace = scalar_oracle_line(h, 5 * M + 1)
    cfg = ObserverConfig(r=M * h, h=h)
    est = run_observer(spec, cfg, trace, [0.0])
    z, _, reset_flags, degenerate_flags, events = stepped(spec, cfg, trace, [0.0])
    assert list(np.flatnonzero(reset_flags)) == [M, 2 * M, 3 * M, 4 * M, 5 * M]
    assert np.array_equal(est.reset_flags, reset_flags)
    assert np.array_equal(est.degenerate_flags, degenerate_flags)
    assert events == 0
    assert_close(est.z, z)


def test_stepping_one_snapshot_twice_gives_independent_branches():
    reactor = apps.reactor_spec(apps.canonical_reactor_params())
    reactor_trace = simulate_plant(reactor, None, SimConfig(t_end=0.6, h=2.5e-3,
                                                            x0=[0.8, 0.5], y0=[315.0]))
    scn = apps.FrequencyScenario(phase=1.0, h=1e-3)
    x0, y0 = scn.initial_state()
    freq = simulate_plant(apps.freq_spec(), None, SimConfig(t_end=1.3, h=scn.h, x0=x0, y0=y0))
    cases = [
        (reactor, ObserverConfig(r=0.25, h=2.5e-3), reactor_trace, [0.5, 1.0], None, 1e-6),
        (apps.freq_spec(), ObserverConfig(r=0.5, h=scn.h, mode=FULL), freq, [1.0, -4.0],
         y0, 1e-3),
    ]
    for spec, cfg, trace, z0, w0, offset in cases:
        M = cfg.steps_per_window
        fork = M // 2  # both branches then run through the resets at M and 2M
        other = trace.y_meas.copy()
        other[fork + 1:] += offset
        traces = (trace, dataclasses.replace(trace, y_meas=other))
        snap = observer_init(spec, cfg, z0, w0, y0=trace.y_meas[0], u0=trace.u[0])
        for j in range(1, fork + 1):
            snap = observer_step(spec, cfg, snap, trace.y_meas[j], trace.u[j - 1])
        branches = [snap, snap]
        z = [np.empty((trace.grid.count, spec.n)) for _ in traces]
        flags = [np.zeros(trace.grid.count, dtype=int) for _ in traces]
        for j in range(fork + 1, trace.grid.count):
            for i, tr in enumerate(traces):  # interleaved, so no state is shared
                branches[i] = observer_step(spec, cfg, branches[i], tr.y_meas[j], tr.u[j - 1])
                z[i][j] = branches[i].z
                flags[i][j] = branches[i].last_reset_applied
        assert not np.array_equal(z[0][-1], z[1][-1])
        for i, tr in enumerate(traces):
            fresh, _, reset_flags, _, _ = stepped(spec, cfg, tr, z0, w0)
            assert np.array_equal(z[i][fork + 1:], fresh[fork + 1:])
            assert np.array_equal(flags[i][fork + 1:], reset_flags[fork + 1:])
            assert list(np.flatnonzero(reset_flags)) == [M, 2 * M]


def test_reduced_step_reuses_right_node_coefficients():
    # A and b depend on y and u; the input changes every seventh step
    calls = []

    def eval_A(y, u):
        calls.append(1)
        return np.array([[-1.0 - 0.1 * y[0] ** 2 + 0.2 * u[0]]])

    spec = pointwise_spec(n=1, k=1, m=1, eval_A=eval_A,
                          eval_b=lambda y, u: np.array([0.3 * u[0] + np.sin(y[0])]),
                          eval_C=lambda y: np.ones((1, 1)), eval_f=lambda y, u: np.zeros(1))
    h = 0.01
    count = 60
    t = h * np.arange(count)
    y = np.sin(3.0 * t)[:, None]
    u = np.floor(np.arange(count) / 7.0)[:, None] * 0.5
    cfg = ObserverConfig(r=1.0, h=h)  # no reset within the stream
    snap = observer_init(spec, cfg, [0.3], y0=y[0], u0=u[0])
    z_ref = np.array([0.3])
    for j in range(1, count):
        calls.clear()
        snap = observer_step(spec, cfg, snap, y[j], u[j - 1])
        fresh_input = j == 1 or not np.array_equal(u[j - 1], u[j - 2])
        assert len(calls) == (3 if fresh_input else 2)
        # classical RK4 evaluated at all three stage points, as before reuse
        A1, b1 = eval_A(y[j - 1], u[j - 1]), spec.eval_b(y[j - 1], u[j - 1])
        ym = 0.5 * (y[j - 1] + y[j])
        Am, bm = eval_A(ym, u[j - 1]), spec.eval_b(ym, u[j - 1])
        A4, b4 = eval_A(y[j], u[j - 1]), spec.eval_b(y[j], u[j - 1])
        k1 = A1 @ z_ref + b1
        k2 = Am @ (z_ref + 0.5 * h * k1) + bm
        k3 = Am @ (z_ref + 0.5 * h * k2) + bm
        k4 = A4 @ (z_ref + h * k3) + b4
        z_ref = z_ref + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.array_equal(snap.z, z_ref)


def window_samples_by_rows(link, count):
    """The window read of a link chain, one row assignment at a time."""
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


def test_window_read_matches_the_row_by_row_read():
    # two output channels and a time-varying two-channel input; link j is (y_j, u_{j-1})
    rng = np.random.default_rng(5)
    link = (rng.normal(size=2), rng.normal(size=2), None)
    for _ in range(12):
        link = (rng.normal(size=2), rng.normal(size=2), link)
    for count in (1, 2, 7, 13):
        Y, U = observer._window_samples(link, count)
        Y_ref, U_ref = window_samples_by_rows(link, count)
        assert Y.shape == Y_ref.shape == (count, 2) and U.shape == U_ref.shape
        assert Y.tobytes() == Y_ref.tobytes() and U.tobytes() == U_ref.tobytes()
        assert np.array_equal(U[-1], link[1])


def test_step_keeps_the_window_of_its_snapshot():
    spec = scalar_oracle_spec()
    snap = observer_init(spec, ObserverConfig(r=1.0, h=0.1), z0=[0.0], y0=[0.0], u0=[0.0])
    snap = observer_step(spec, ObserverConfig(r=1.0, h=0.1), snap, y_meas=[0.2], u=[0.0])
    assert snap.node == 1
    with pytest.raises(ValueError):
        observer_step(spec, ObserverConfig(r=0.5, h=0.1), snap, y_meas=[0.4], u=[0.0])


@pytest.mark.parametrize("change", [{"mode": FULL}], ids=["mode"])
def test_step_rejects_a_config_other_than_its_snapshots(change):
    spec = scalar_oracle_spec()
    config = ObserverConfig(r=1.0, h=0.1)
    snap = observer_init(spec, config, z0=[0.0], w0=[0.0], y0=[0.0])
    with pytest.raises(ValueError, match="cannot step it with"):
        observer_step(spec, dataclasses.replace(config, **change), snap,
                      y_meas=[0.2], u=[0.0])


def test_step_rejects_a_measurement_of_another_width():
    # on the frequency plant (k = 1) a (2,) measurement fails at its own node
    spec = apps.freq_spec()
    config = ObserverConfig(r=0.01, h=1e-3)
    snap = observer_init(spec, config, z0=[1.0, -4.0], y0=[0.5])
    for y in ([0.51], [0.52]):
        snap = observer_step(spec, config, snap, y, [0.0])
    with pytest.raises(DimensionMismatch, match="measurement of shape \\(2,\\) .* node 3"):
        observer_step(spec, config, snap, [0.53, 0.0], [0.0])


def test_step_rejects_an_input_of_another_width():
    spec = scalar_spec({"input_gain": 1.0})  # m = 1
    config = ObserverConfig(r=1.0, h=0.1)
    snap = observer_init(spec, config, z0=[0.0], y0=[0.0])
    with pytest.raises(DimensionMismatch, match="input of shape \\(2,\\)"):
        observer_step(spec, config, snap, [0.2], [1.0, 5.0])
