"""End-to-end acceptance suite.

Each test exercises one numbered acceptance criterion at its stated tolerance
and prints a single pass/fail line (visible with ``pytest -s`` or on failure).
"""

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from deadbeat_observer import applications as apps
from deadbeat_observer.cli import EXIT_OK, main as cli_main
from deadbeat_observer.model import make_lti
from deadbeat_observer.numerics import trapezoid
from deadbeat_observer.observer import FULL, ObserverConfig, run_observer
from deadbeat_observer.plant import SimConfig, simulate_plant
from deadbeat_observer.window import (
    Degenerate,
    IoWindow,
    StronglyObservableOnWindow,
    apply_P,
    compute_window,
    gram,
    observability_certificate,
    reconstruct_initial,
)

from oracles import (indistinguishable_partner, reactor_gains, scalar_observer_P,
                     scalar_oracle_spec, scalar_spec)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num} ({name}): {detail}")


def _post_window_scaled_error(trace, est, r):
    t = trace.grid.times()
    post = t >= trace.grid.t0 + r - 1e-9 * trace.grid.h
    err = np.linalg.norm(est.z[post] - trace.x_true[post], axis=1)
    scale = 1.0 + np.linalg.norm(trace.x_true[post], axis=1)
    return float(np.max(err / scale))


def test_criterion_1_dead_beat_exactness():
    started = time.perf_counter()
    worst = 0.0

    # constant scalar state
    spec = scalar_oracle_spec()
    trace = simulate_plant(spec, None, SimConfig(t_end=2.5, h=5e-4,
                                                 x0=[2.0], y0=[0.0]))
    est = run_observer(spec, ObserverConfig(r=1.0, h=5e-4), trace, z0=[0.0])
    worst = max(worst, _post_window_scaled_error(trace, est, 1.0))

    # constant-coefficient double integrator
    spec = make_lti(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2),
                    np.array([[1.0], [0.0]]), np.zeros(1))
    trace = simulate_plant(spec, None, SimConfig(t_end=2.5, h=5e-4,
                                                 x0=[1.0, -0.5], y0=[0.3]))
    est = run_observer(spec, ObserverConfig(r=1.0, h=5e-4), trace,
                       z0=[0.0, 0.0])
    worst = max(worst, _post_window_scaled_error(trace, est, 1.0))

    # batch reactor (documented parameter set)
    p = apps.canonical_reactor_params()
    r = 1.0 / 3.0
    spec = apps.reactor_spec(p)
    trace = simulate_plant(spec, None, SimConfig(t_end=2.5 * r, h=r / 2000.0,
                                                 x0=[0.8, 0.5], y0=[315.0]))
    est = run_observer(spec, ObserverConfig(r=r, h=r / 2000.0), trace,
                       z0=[0.5, 1.0])
    worst = max(worst, _post_window_scaled_error(trace, est, r))

    # clean sinusoid, internal-output-copy variant
    scn = apps.FrequencyScenario(phase=1.0, h=5e-4)
    spec = apps.freq_spec()
    x0, y0 = scn.initial_state()
    trace = simulate_plant(spec, None, SimConfig(t_end=2.5, h=5e-4,
                                                 x0=x0, y0=y0))
    est = run_observer(spec, ObserverConfig(r=1.0, h=5e-4, mode=FULL), trace,
                       z0=[1.0, -4.0], w0=y0)
    worst = max(worst, _post_window_scaled_error(trace, est, 1.0))

    elapsed = time.perf_counter() - started
    ok = worst <= 1e-4 and elapsed < 10.0
    _line(1, "dead-beat exactness", ok,
          f"max scaled error {worst:.2e} over 4 systems in {elapsed:.1f}s")
    assert ok


def test_criterion_2_noisy_sweep_f10():
    scn = apps.FrequencyScenario(noise_amplitude=0.2, noise_frequency=10.0,
                                 h=5e-4)
    _, _, _, max_err = apps.phase_sweep(scn, np.linspace(0.0, 2.0 * np.pi, 64))
    ok = 0.053 <= max_err <= 0.079
    _line(2, "noisy sweep, noise at 10 rad/s", ok,
          f"max relative error {100 * max_err:.2f}% in [5.3%, 7.9%]")
    assert ok


def test_criterion_3_noisy_sweeps_f100_f1000():
    scn100 = apps.FrequencyScenario(noise_amplitude=0.2, noise_frequency=100.0,
                                    h=5e-4)
    _, _, _, err100 = apps.phase_sweep(scn100, np.linspace(0.0, 2.0 * np.pi, 64))
    scn1000 = apps.FrequencyScenario(noise_amplitude=0.2,
                                     noise_frequency=1000.0, h=1e-4)
    _, _, _, err1000 = apps.phase_sweep(scn1000,
                                        np.linspace(0.0, 2.0 * np.pi, 64))
    ok = 0.010 <= err100 <= 0.016 and 0.00066 <= err1000 <= 0.0010
    _line(3, "noisy sweeps at 100 and 1000 rad/s", ok,
          f"max errors {100 * err100:.2f}% in [1.0%, 1.6%] and "
          f"{100 * err1000:.3f}% in [0.066%, 0.100%]")
    assert ok


def test_criterion_4_longer_window_beats_short():
    scn = apps.FrequencyScenario(phase=1.9, noise_amplitude=0.2,
                                 noise_frequency=10.0)
    err1 = abs(apps.estimate_frequency(replace(scn, r=1.0, h=5e-4)) - 3.0) / 3.0
    err3 = abs(apps.estimate_frequency(replace(scn, r=3.0, h=1.5e-3)) - 3.0) / 3.0
    ok = 0.0005 <= err3 <= 0.0009 and err3 <= err1 / 50.0
    _line(4, "window-length payoff", ok,
          f"error {100 * err3:.3f}% at r=3 in [0.05%, 0.09%], "
          f"improvement factor {err1 / err3:.0f} >= 50")
    assert ok


def test_criterion_5_random_linear_instances():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    accepted = 0
    tried = 0
    worst_recon = 0.0
    worst_resid = 0.0
    all_observable = True
    while accepted < 50 and tried < 500:
        tried += 1
        n = int(rng.integers(1, 5))
        A = rng.normal(size=(n, n))
        A = A / max(1.0, np.linalg.norm(A, 2))  # keep dynamics mild
        C = rng.normal(size=(n, 1))
        obs_rows = np.vstack([C.T @ np.linalg.matrix_power(A, i)
                              for i in range(n)])
        if np.linalg.svd(obs_rows, compute_uv=False)[-1] < 0.1:
            continue
        accepted += 1
        b = rng.normal(size=n)
        f = rng.normal(size=1)
        spec = make_lti(A, b, C, f)
        x0 = rng.normal(size=n)
        y0 = rng.normal(size=1)
        r = 2.0
        trace = simulate_plant(spec, None, SimConfig(t_end=r, h=r / 2000.0,
                                                     x0=x0, y0=y0))
        window = IoWindow(grid=trace.grid, y_samples=trace.y_meas,
                          u_samples=trace.u)
        wc = compute_window(spec, window)
        gs = gram(wc)
        if not isinstance(observability_certificate(gs),
                          StronglyObservableOnWindow):
            all_observable = False
            continue
        x0_hat = reconstruct_initial(gs)
        worst_recon = max(worst_recon, np.linalg.norm(x0_hat - x0)
                          / max(np.linalg.norm(x0), 1.0))

        def residual(xi):
            mismatch = wc.p - np.einsum("tik,i->tk", wc.q, xi)
            return float(trapezoid(np.sum(mismatch ** 2, axis=1), wc.grid))

        base = residual(x0_hat)
        for _ in range(20):
            xi = x0_hat + rng.normal(size=n)
            d = xi - x0_hat
            lhs = residual(xi) - base
            rhs = float(d @ gs.Q @ d)
            worst_resid = max(worst_resid,
                              abs(lhs - rhs) / max(abs(rhs), 1e-9))
    elapsed = time.perf_counter() - started
    ok = (accepted == 50 and all_observable and worst_recon <= 1e-5
          and worst_resid <= 1e-6 and elapsed < 20.0)
    _line(5, "random linear instance suite", ok,
          f"50/50 certified observable, worst reconstruction {worst_recon:.1e},"
          f" worst residual-identity defect {worst_resid:.1e} in {elapsed:.1f}s")
    assert ok


def test_criterion_6_indistinguishing_counterexample():
    from deadbeat_observer.cli import canonical_example26

    ex = canonical_example26()
    spec = ex.to_system_spec()
    x0 = np.array([0.5, -0.3])
    y0 = 0.2
    mix = x0[1] + x0[0] * math.exp(y0)

    def u_exact(t):
        return -1.0 - math.exp(-2.0 * t) * mix

    signal = lambda t: np.array([u_exact(t)])
    cfg = SimConfig(t_end=1.0, h=5e-4, x0=x0, y0=[y0])
    trace = simulate_plant(spec, signal, cfg)
    gs = gram(compute_window(spec, IoWindow(grid=trace.grid,
                                            y_samples=trace.y_meas,
                                            u_samples=trace.u)))
    eigvals = np.linalg.eigvalsh(gs.Q)
    degenerate = (isinstance(observability_certificate(gs), Degenerate)
                  and eigvals[0] <= 1e-8 * np.trace(gs.Q))

    partner = indistinguishable_partner(ex, x0, y0, xi1=1.2)
    trace_b = simulate_plant(spec, signal,
                             SimConfig(t_end=1.0, h=5e-4, x0=partner, y0=[y0]))
    gap = float(np.max(np.abs(trace.y_true - trace_b.y_true)))
    ok = degenerate and gap <= 1e-6
    _line(6, "indistinguishing-input counterexample", ok,
          f"smallest eigenvalue / trace {eigvals[0] / np.trace(gs.Q):.1e}, "
          f"output gap {gap:.1e}")
    assert ok


def test_criterion_7_closed_form_cross_validation():
    rng = np.random.default_rng(7)
    worst = 0.0

    def rel(a, b):
        return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))
                     / max(1.0, float(np.max(np.abs(b)))))

    # sinusoid plant: two-quotient formula vs generic reconstruction on the
    # exact signal windows
    spec = apps.freq_spec()
    for _ in range(20):
        scn = apps.FrequencyScenario(amplitude=float(rng.uniform(1.0, 3.0)),
                                     omega=float(rng.uniform(1.0, 5.0)),
                                     phase=float(rng.uniform(0.0, 2.0 * np.pi)),
                                     h=2e-4)
        (window,) = apps._windows_from_scenario(scn, [scn.phase])
        z1, z2 = apps.freq_closed_form(window)
        worst = max(worst, rel([z1, z2], apply_P(spec, window)))

    # reactor: kernel-quotient gains vs generic reconstruction
    p = apps.canonical_reactor_params()
    spec = apps.reactor_spec(p)
    r = 1.0 / 3.0
    for _ in range(20):
        x0 = [rng.uniform(0.2, 0.9), rng.uniform(0.2, 2.5)]
        y0 = [float(rng.uniform(306.0, 330.0))]
        trace = simulate_plant(spec, None, SimConfig(t_end=r, h=r / 2000.0, x0=x0, y0=y0))
        window = IoWindow(grid=trace.grid, y_samples=trace.y_meas, u_samples=trace.u)
        gains = reactor_gains(trace.y_meas[:, 0], p, trace.grid)
        worst = max(worst, rel(gains.state_estimate, apply_P(spec, window)))

    # scalar plant: single-fraction formula vs generic reconstruction
    for _ in range(20):
        a0 = float(rng.uniform(-1.0, 1.0))
        f0 = float(rng.uniform(-0.5, 0.5))
        c0 = float(rng.uniform(0.5, 1.5))
        c1 = float(rng.uniform(-0.3, 0.3))
        g = float(rng.uniform(-0.5, 0.5))
        u_val = float(rng.uniform(-0.5, 0.5))
        spec_s = scalar_spec({"a0": a0, "f0": f0, "input_gain": g, "c0": c0, "c1": c1})
        u = np.array([u_val])
        trace = simulate_plant(spec_s, lambda t: u,
                               SimConfig(t_end=1.0, h=5e-4,
                                         x0=[rng.uniform(0.5, 2.0)],
                                         y0=[rng.uniform(-0.5, 0.5)]))
        window = IoWindow(grid=trace.grid, y_samples=trace.y_meas,
                          u_samples=trace.u)
        z = scalar_observer_P(
            window,
            a_eval=lambda y, u: a0,
            f_eval=lambda y, u: f0 + g * float(np.atleast_1d(u)[0]),
            c_eval=lambda y: c0 + c1 * float(y),
        )
        worst = max(worst, rel([z], apply_P(spec_s, window)))

    ok = worst <= 1e-5
    _line(7, "closed-form cross-validation", ok,
          f"worst relative gap {worst:.1e} over 60 windows")
    assert ok


def test_criterion_8_reactor_observability_boundary():
    def params(k2):
        return apps.ReactorParams(
            k1=0.4, k2=k2, E1=350.0, E2=350.0, J1=30.0, J2=10.0,
            h_coef=1.0, Ts=310.0, c1_bar=1.0, c2_bar=4.0,
            Tmin=300.0, Tmax=350.0,
        )

    def certificate(p):
        spec = apps.reactor_spec(p)
        r, h = 16.0, 0.008
        trace = simulate_plant(spec, None, SimConfig(t_end=r, h=h,
                                                     x0=[0.9, 0.5],
                                                     y0=[315.0]))
        gs = gram(compute_window(spec, IoWindow(grid=trace.grid,
                                                y_samples=trace.y_meas,
                                                u_samples=trace.u)))
        return observability_certificate(gs)

    lumped = certificate(params(0.3))       # (J1 + J2) k2 = J1 k1 exactly
    perturbed = certificate(params(0.303))  # 1% perturbation of k2
    ok = (isinstance(lumped, Degenerate)
          and isinstance(perturbed, StronglyObservableOnWindow))
    _line(8, "reactor unobservability boundary", ok,
          "lumped kinetics degenerate, 1% perturbation strongly observable")
    assert ok


def test_criterion_9_cli_determinism(tmp_path):
    jobs = [
        (["simulate", str(CONFIG_DIR / "scalar_oracle.json")],
         ("_trace.csv", "_estimate.csv", "_summary.json")),
        (["simulate", str(CONFIG_DIR / "frequency_clean.json")],
         ("_trace.csv", "_estimate.csv", "_summary.json")),
        (["simulate", str(CONFIG_DIR / "reactor.json")],
         ("_trace.csv", "_estimate.csv", "_summary.json")),
        (["sweep", "--mode", "phase", str(CONFIG_DIR / "figure1.json")],
         ("_sweep.csv", "_sweep_summary.json")),
        (["sweep", "--mode", "horizon", str(CONFIG_DIR / "figure4.json")],
         ("_sweep.csv", "_sweep_summary.json")),
        (["observability", str(CONFIG_DIR / "example26.json")],
         ("_observability.json",)),
        (["observability", str(CONFIG_DIR / "reactor_lumped.json")],
         ("_observability.json",)),
    ]
    identical = True
    for idx, (argv, suffixes) in enumerate(jobs):
        pa = str(tmp_path / f"job{idx}_a")
        pb = str(tmp_path / f"job{idx}_b")
        assert cli_main(argv + ["--out-prefix", pa]) == EXIT_OK
        assert cli_main(argv + ["--out-prefix", pb]) == EXIT_OK
        for suffix in suffixes:
            if (Path(pa + suffix).read_bytes()
                    != Path(pb + suffix).read_bytes()):
                identical = False
    ok = identical
    _line(9, "command-line determinism", ok,
          f"{len(jobs)} commands rerun byte-identically")
    assert ok
