import numpy as np
import pytest

from deadbeat_observer import applications as apps
from deadbeat_observer import numerics, window
from deadbeat_observer.errors import DomainViolation, GramDegenerate
from deadbeat_observer.model import make_lti, scalar_oracle_spec
from deadbeat_observer.observer import (
    FAIL,
    FULL,
    ObserverConfig,
    observer_init,
    observer_step,
    run_observer,
)
from deadbeat_observer.plant import SimConfig, simulate_plant


def test_config_validation():
    with pytest.raises(ValueError):
        ObserverConfig(r=1.0, h=0.1, mode="adaptive")
    with pytest.raises(ValueError):
        ObserverConfig(r=1.0, h=0.1, on_degenerate="retry")
    with pytest.raises(ValueError):
        ObserverConfig(r=1.0, h=0.3)  # r not a multiple of h
    with pytest.raises(ValueError):
        ObserverConfig(r=0.1, h=0.1)  # fewer than 2 steps per window
    cfg = ObserverConfig(r=1.0, h=0.01)
    assert cfg.steps_per_window == 100


def test_init_requires_w0_in_full_mode():
    spec = scalar_oracle_spec()
    cfg = ObserverConfig(r=1.0, h=0.1, mode=FULL)
    with pytest.raises(ValueError):
        observer_init(spec, cfg, z0=[0.0])
    snap = observer_init(spec, cfg, z0=[0.0], w0=[1.0])
    assert snap.w[0] == 1.0
    assert snap.next_reset == pytest.approx(1.0)


def test_init_seeds_history():
    spec = scalar_oracle_spec()
    cfg = ObserverConfig(r=1.0, h=0.1)
    empty = observer_init(spec, cfg, z0=[0.0])
    assert empty.history == ()
    seeded = observer_init(spec, cfg, z0=[0.0], y0=[0.5], u0=[0.0])
    assert len(seeded.history) == 1
    assert seeded.history[0][0][0] == 0.5


def test_init_rejects_out_of_domain_estimate():
    spec = apps.freq_spec()
    cfg = ObserverConfig(r=1.0, h=0.1)
    with pytest.raises(DomainViolation):
        observer_init(spec, cfg, z0=[1.0, 4.0], y0=[1.0])


def test_step_without_seed_raises():
    spec = scalar_oracle_spec()
    cfg = ObserverConfig(r=1.0, h=0.1)
    snap = observer_init(spec, cfg, z0=[0.0])
    with pytest.raises(ValueError):
        observer_step(spec, cfg, snap, y_meas=[0.1], u=[0.0])


def test_step_advances_clock_and_history():
    spec = scalar_oracle_spec()
    cfg = ObserverConfig(r=1.0, h=0.1)
    snap = observer_init(spec, cfg, z0=[0.0], y0=[0.0], u0=[0.0])
    snap = observer_step(spec, cfg, snap, y_meas=[0.2], u=[0.0])
    assert snap.t == pytest.approx(0.1)
    assert len(snap.history) == 2
    assert not snap.last_reset_applied


def test_run_observer_dead_beat_scalar():
    spec = scalar_oracle_spec()
    trace = simulate_plant(spec, None, SimConfig(t_end=1.5, h=0.005,
                                                 x0=[2.0], y0=[0.0]))
    # n = 1, so the smallest pivot over trace/n is exactly 1: any threshold
    # below 1 accepts every window
    for rel_threshold in (1e-8, 0.99):
        cfg = ObserverConfig(r=0.5, h=0.005, rel_threshold=rel_threshold)
        est = run_observer(spec, cfg, trace, z0=[0.0])
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
    """(spec, rel_threshold) pairs whose every reset window is degenerate.

    The zero output map gives Q = 0.  The scalar oracle's smallest pivot over
    trace/n is exactly 1, so a threshold of 1.01 rejects every window.
    """
    zero_output = make_lti(np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)),
                           np.zeros(1))
    return [(zero_output, 1e-8), (scalar_oracle_spec(), 1.01)]


def test_degenerate_window_hold_keeps_estimate():
    for spec, rel_threshold in degenerate_cases():
        trace = simulate_plant(spec, None, SimConfig(t_end=1.0, h=0.01,
                                                     x0=[3.0], y0=[0.0]))
        cfg = ObserverConfig(r=0.25, h=0.01, rel_threshold=rel_threshold)
        est = run_observer(spec, cfg, trace, z0=[0.5])
        assert est.degenerate_events == 4
        assert np.all(est.z == 0.5)
        assert np.all(est.reset_flags == 0)
        assert np.count_nonzero(est.degenerate_flags) == 4


def test_degenerate_window_fail_raises():
    for spec, rel_threshold in degenerate_cases():
        trace = simulate_plant(spec, None, SimConfig(t_end=1.0, h=0.01,
                                                     x0=[3.0], y0=[0.0]))
        cfg = ObserverConfig(r=0.25, h=0.01, rel_threshold=rel_threshold,
                             on_degenerate=FAIL)
        with pytest.raises(GramDegenerate):
            run_observer(spec, cfg, trace, z0=[0.5])


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
