import dataclasses
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from deadbeat_observer import applications as apps
from deadbeat_observer import window as window_module
from deadbeat_observer.errors import (
    DimensionMismatch,
    KappaVanished,
    NonFiniteState,
    NotPositiveDefinite,
)
from deadbeat_observer.model import make_lti, sampled_input
from deadbeat_observer.numerics import Grid
from deadbeat_observer.plant import SimConfig, simulate_plant
from deadbeat_observer.window import (
    Degenerate,
    Example26Spec,
    GramSummary,
    IoWindow,
    StronglyObservableOnWindow,
    apply_P,
    compute_window,
    end_state,
    gram,
    indistinguishing_input,
    observability_certificate,
    reconstruct_initial,
)

from oracles import (
    cumulative_trapezoid,
    determinant_condition,
    indistinguishable_partner,
    pointwise_coefficients,
    scalar_oracle_spec,
)


def scalar_window(r=1.0, h=1e-3, x0=2.0, y0=0.0):
    spec = scalar_oracle_spec()
    trace = simulate_plant(spec, None, SimConfig(t_end=r, h=h,
                                                 x0=[x0], y0=[y0]))
    return spec, IoWindow(grid=trace.grid, y_samples=trace.y_meas,
                          u_samples=trace.u)


def canonical_planar_example():
    return Example26Spec(
        a1=lambda y: -1.0,
        a2=lambda y: -2.0,
        c1=lambda y: math.exp(y),
        c2=lambda y: 1.0,
        kappa=lambda y: 1.0,
    )


def reference_window(spec, window):
    """Per-node joint RK4 of (Phi, theta, q, xi): four evaluator calls per stage."""
    n, k = spec.n, spec.k
    y_s, u_s = window.y_samples, window.u_samples
    count, h = window.grid.count, window.grid.h
    phi = np.empty((count, n, n))
    theta = np.zeros((count, n))
    q = np.zeros((count, n, k))
    xi = np.zeros((count, k))
    phi[0] = np.eye(n)

    def rhs(y, u, P, th):
        A = np.asarray(spec.eval_A(y, u), dtype=float)
        b = np.asarray(spec.eval_b(y, u), dtype=float)
        C = np.asarray(spec.eval_C(y), dtype=float).reshape(n, k)
        f = np.atleast_1d(np.asarray(spec.eval_f(y, u), dtype=float))
        return A @ P, A @ th + b, P.T @ C, f + C.T @ th

    for j in range(count - 1):
        y0, y1 = y_s[j], y_s[j + 1]
        ym = 0.5 * (y0 + y1)
        u = u_s[j]
        P, th = phi[j], theta[j]
        k1 = rhs(y0, u, P, th)
        k2 = rhs(ym, u, P + 0.5 * h * k1[0], th + 0.5 * h * k1[1])
        k3 = rhs(ym, u, P + 0.5 * h * k2[0], th + 0.5 * h * k2[1])
        k4 = rhs(y1, u, P + h * k3[0], th + h * k3[1])
        new = [(h / 6.0) * (a + 2 * b + 2 * c + d) for a, b, c, d in zip(k1, k2, k3, k4)]
        phi[j + 1] = P + new[0]
        theta[j + 1] = th + new[1]
        q[j + 1] = q[j] + new[2]
        xi[j + 1] = xi[j] + new[3]
    return phi, theta, q, xi, y_s - y_s[0] - xi


def recorded_window(spec, signal, t_end, h, x0, y0):
    trace = simulate_plant(spec, signal, SimConfig(t_end=t_end, h=h, x0=x0, y0=y0))
    return IoWindow(grid=trace.grid, y_samples=trace.y_meas, u_samples=trace.u)


def random_lti_window():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(3, 3))
    spec = make_lti(A / np.linalg.norm(A, 2), rng.normal(size=3),
                    rng.normal(size=(3, 1)), rng.normal(size=1))
    return spec, recorded_window(spec, None, 1.0, 1e-3, rng.normal(size=3),
                                 rng.normal(size=1))


def example26_window():
    # driven by its indistinguishing input, which varies from node to node
    ex = canonical_planar_example()
    grid = Grid.from_span(0.0, 1.0, 1e-3)
    u_s, y_s = indistinguishing_input(ex, np.array([0.5, -0.3]), 0.2, grid)
    return ex.to_system_spec(), IoWindow(grid=grid, y_samples=y_s, u_samples=u_s)


def reactor_window(h=1.0 / 750.0):
    spec = apps.reactor_spec(apps.canonical_reactor_params())
    return spec, recorded_window(spec, None, 1.0 / 3.0, h, [0.6, 1.2], [318.0])


def frequency_window():
    scn = apps.FrequencyScenario(phase=0.7, h=5e-4)
    spec = apps.freq_spec()
    x0, y0 = scn.initial_state()
    return spec, recorded_window(spec, None, scn.r, scn.h, x0, y0)


def k2_input_window():
    # two outputs (C is 3 x 2); the recorded input varies from node to node,
    # though the rates of make_lti do not read it
    rng = np.random.default_rng(29)
    A = rng.normal(size=(3, 3))
    spec = make_lti(A / np.linalg.norm(A, 2), rng.normal(size=3),
                    rng.normal(size=(3, 2)), rng.normal(size=2))
    return spec, recorded_window(spec, lambda t: np.array([np.sin(7.0 * t)]), 1.0, 1e-3,
                                 rng.normal(size=3), rng.normal(size=2))


WINDOW_CASES = {
    "reactor": reactor_window,
    "frequency": frequency_window,
    "random_lti": random_lti_window,
    "example26": example26_window,
    "k2_input": k2_input_window,
}


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_compute_window_matches_per_node_rk4(case):
    spec, window = WINDOW_CASES[case]()
    wc = compute_window(spec, window)
    names = ("phi", "theta", "q", "xi", "p")
    for name, ref in zip(names, reference_window(spec, window)):
        got = getattr(wc, name)
        assert got.shape == ref.shape, name
        scale = max(float(np.max(np.abs(ref))), 1e-300)
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale, name


def test_compute_window_one_batch_call_and_no_point_calls(monkeypatch):
    # one eval_batch call per block of WINDOW_BLOCK_STEPS steps: one for the
    # 250-step reactor window at the default block, several in blocks of 7
    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    for block in (window_module.WINDOW_BLOCK_STEPS, 7):
        monkeypatch.setattr(window_module, "WINDOW_BLOCK_STEPS", block)
        for case in ("reactor", "example26"):
            spec, window = WINDOW_CASES[case]()
            calls = {"batch": 0, "point": 0}
            counting = dataclasses.replace(
                spec,
                eval_A=counted("point", spec.eval_A),
                eval_b=counted("point", spec.eval_b),
                eval_C=counted("point", spec.eval_C),
                eval_f=counted("point", spec.eval_f),
                eval_batch=counted("batch", spec.eval_batch),
            )
            compute_window(counting, window)
            blocks = math.ceil((window.grid.count - 1) / block)
            assert calls == {"batch": blocks, "point": 0}, (case, block)


def assert_blocks_change_no_bit(spec, window, blocks, monkeypatch):
    """compute_window in blocks of each size gives the arrays of one block."""
    monkeypatch.setattr(window_module, "WINDOW_BLOCK_STEPS", window.grid.count - 1)
    whole = compute_window(spec, window)
    for block in blocks:
        monkeypatch.setattr(window_module, "WINDOW_BLOCK_STEPS", block)
        wc = compute_window(spec, window)
        for name in ("phi", "theta", "q", "xi", "p"):
            assert np.array_equal(getattr(wc, name), getattr(whole, name)), (block, name)
            assert np.array_equal(np.signbit(getattr(wc, name)),
                                  np.signbit(getattr(whole, name))), (block, name)


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_compute_window_blocks_change_no_bit(case, monkeypatch):
    spec, window = WINDOW_CASES[case]()
    steps = window.grid.count - 1
    assert_blocks_change_no_bit(spec, window, (1, 7, steps + 5), monkeypatch)


@pytest.mark.parametrize("extra", [0, 1])
def test_compute_window_two_whole_blocks_and_one_more_step_change_no_bit(extra, monkeypatch):
    steps = 2 * window_module.WINDOW_BLOCK_STEPS + extra
    spec, window = reactor_window(h=(1.0 / 3.0) / steps)
    assert window.grid.count == steps + 1
    assert_blocks_change_no_bit(spec, window, (1, 7, window_module.WINDOW_BLOCK_STEPS),
                                monkeypatch)


def test_compute_window_memory_does_not_grow_with_the_window():
    # 20,001 nodes: the outputs take about 2.1 MB, one block's working arrays
    # about 0.45 MB; the whole window at once would hold about 17 MB
    spec, window = reactor_window(h=(1.0 / 3.0) / 20000)
    assert window.grid.count == 20001
    tracemalloc.start()
    try:
        compute_window(spec, window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


@pytest.mark.parametrize("batched", [True, False])
@pytest.mark.parametrize("node", [0, 1, 100, 101, 137, 250])
def test_compute_window_nan_reports_first_bad_node(batched, node, monkeypatch):
    spec, window = reactor_window()
    if not batched:  # the batch filled point by point
        spec = dataclasses.replace(spec, eval_batch=functools.partial(pointwise_coefficients, spec))
    y = window.y_samples.copy()
    y[node, 0] = np.nan
    bad = IoWindow(grid=window.grid, y_samples=y, u_samples=window.u_samples)
    # the 250 steps as one block, then in blocks of 100: node 100 ends the
    # first block and node 101 is the first that the second block computes
    for block in (window_module.WINDOW_BLOCK_STEPS, 100):
        monkeypatch.setattr(window_module, "WINDOW_BLOCK_STEPS", block)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState) as exc:
                compute_window(spec, bad)
        assert exc.value.index == node, block


def test_window_sample_count_mismatch():
    g = Grid.from_span(0.0, 1.0, 0.25)
    with pytest.raises(DimensionMismatch):
        IoWindow(grid=g, y_samples=np.zeros((3, 1)), u_samples=np.zeros((5, 1)))
    for y, u in ((np.zeros((5, 1)), np.zeros(())), (np.zeros((5, 1, 1)), np.zeros((5, 1))),
                 (np.zeros(4), np.zeros(5))):
        with pytest.raises(DimensionMismatch):
            IoWindow(grid=g, y_samples=y, u_samples=u)


def sinusoid_window():
    """2 sin(3t + 1) on 101 nodes at h = 0.01: y (101, 1) and a zero u (101, 1)."""
    grid = Grid(0.0, 0.01, 101)
    y = 2.0 * np.sin(3.0 * grid.times() + 1.0)[:, None]
    return grid, y, np.zeros((grid.count, 1))


def test_window_of_one_dimensional_samples_is_a_dimension_mismatch():
    # samples are one row per node: a (count,) array is not one channel
    grid, y, u = sinusoid_window()
    for y_s, u_s in ((y[:, 0], u), (y, u[:, 0]), (y[:, 0], u[:, 0])):
        with pytest.raises(DimensionMismatch, match="window samples"):
            IoWindow(grid=grid, y_samples=y_s, u_samples=u_s)


@pytest.mark.parametrize("widths", [(3, 1), (1, 2), (0, 1), (1, 0)],
                         ids=["y-3", "u-2", "y-0", "u-0"])
def test_window_of_the_wrong_widths_is_a_dimension_mismatch(widths):
    # the frequency plant has k = m = 1; a repeated y column moved the estimate to 5.2
    grid, y, u = sinusoid_window()
    k, m = widths
    window = IoWindow(grid=grid, y_samples=np.repeat(y, k, axis=1),
                      u_samples=np.repeat(u, m, axis=1))
    with pytest.raises(DimensionMismatch, match="k = 1 and m = 1"):
        apply_P(apps.freq_spec(), window)


def test_compute_window_initial_node():
    spec, window = scalar_window(h=0.25)
    wc = compute_window(spec, window)
    assert np.array_equal(wc.phi[0], np.eye(1))
    assert np.all(wc.theta[0] == 0.0)
    assert np.all(wc.q[0] == 0.0)
    assert np.all(wc.xi[0] == 0.0)
    assert np.all(wc.p[0] == 0.0)


def test_compute_window_scalar_oracle():
    # x' = 0, y' = x: Phi = 1, theta = 0, q(t) = t, p(t) = x0 t
    spec, window = scalar_window()
    wc = compute_window(spec, window)
    t = window.grid.times()
    assert np.max(np.abs(wc.phi[:, 0, 0] - 1.0)) < 1e-12
    assert np.max(np.abs(wc.theta)) < 1e-12
    assert np.max(np.abs(wc.q[:, 0, 0] - t)) < 1e-10
    assert np.max(np.abs(wc.p[:, 0] - 2.0 * t)) < 1e-8


def test_compute_window_frequency_kernel():
    # for the sinusoid plant the second kernel column is the double integral
    # of the output, and the first is exactly t
    scn = apps.FrequencyScenario(phase=0.7, h=1e-4)
    spec = apps.freq_spec()
    x0, y0 = scn.initial_state()
    trace = simulate_plant(spec, None, SimConfig(t_end=scn.r, h=scn.h,
                                                 x0=x0, y0=y0))
    window = IoWindow(grid=trace.grid, y_samples=trace.y_meas, u_samples=trace.u)
    wc = compute_window(spec, window)
    y = window.y_samples[:, 0]
    double_int = cumulative_trapezoid(cumulative_trapezoid(y, window.grid),
                                      window.grid)
    t = window.grid.times()
    assert np.max(np.abs(wc.q[:, 0, 0] - t)) < 1e-10
    assert np.max(np.abs(wc.q[:, 1, 0] - double_int)) < 1e-8


def test_gram_scalar_oracle_values():
    # Q = int t^2 = 1/3, v = int t * 2t = 2/3
    spec, window = scalar_window()
    gs = gram(compute_window(spec, window))
    assert gs.Q[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert gs.v[0] == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_gram_symmetric_exactly():
    spec = make_lti(np.array([[0.0, 1.0], [-0.3, 0.0]]), np.zeros(2),
                    np.array([[1.0], [0.5]]), np.zeros(1))
    trace = simulate_plant(spec, None, SimConfig(t_end=1.0, h=1e-3,
                                                 x0=[1.0, -0.5], y0=[0.2]))
    gs = gram(compute_window(spec, IoWindow(grid=trace.grid,
                                            y_samples=trace.y_meas,
                                            u_samples=trace.u)))
    assert np.array_equal(gs.Q, gs.Q.T)


def test_gram_zero_output_map():
    spec = make_lti(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 1)), np.zeros(1))
    trace = simulate_plant(spec, None, SimConfig(t_end=1.0, h=0.01,
                                                 x0=[1.0, 2.0], y0=[0.0]))
    gs = gram(compute_window(spec, IoWindow(grid=trace.grid,
                                            y_samples=trace.y_meas,
                                            u_samples=trace.u)))
    assert np.all(gs.Q == 0.0)
    verdict = observability_certificate(gs)
    assert isinstance(verdict, Degenerate)


def test_reconstruct_scalar_oracle():
    spec, window = scalar_window()
    x0_hat = reconstruct_initial(gram(compute_window(spec, window)))
    assert x0_hat[0] == pytest.approx(2.0, abs=1e-8)


def test_reconstruct_identity_gram():
    gs = GramSummary(Q=np.eye(2), v=np.array([3.0, -1.0]))
    assert np.allclose(reconstruct_initial(gs), [3.0, -1.0])


def test_reconstruct_singular_gram():
    gs = GramSummary(Q=np.zeros((2, 2)), v=np.zeros(2))
    with pytest.raises(NotPositiveDefinite):
        reconstruct_initial(gs)


def test_degenerate_window_ends_in_none_and_its_reconstruction_raises():
    # C = 0: the output carries nothing of x, so Q = 0 and the window is held
    spec = make_lti(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 1)), np.zeros(1))
    grid = Grid(0.0, 0.01, 101)
    window = IoWindow(grid=grid, y_samples=np.ones((grid.count, 1)),
                      u_samples=np.zeros((grid.count, 1)))
    wc = compute_window(spec, window)
    assert end_state(wc) is None
    assert apply_P(spec, window) is None
    with pytest.raises(NotPositiveDefinite):
        reconstruct_initial(gram(wc))


def test_apply_P_scalar_oracle():
    # constant unmeasured state: the window-end value equals x0
    spec, window = scalar_window()
    z = apply_P(spec, window)
    assert z[0] == pytest.approx(2.0, abs=1e-8)


def test_apply_P_double_integrator():
    spec = make_lti(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2),
                    np.array([[1.0], [0.0]]), np.zeros(1))
    x0 = np.array([1.0, -0.5])
    trace = simulate_plant(spec, None, SimConfig(t_end=1.0, h=5e-4,
                                                 x0=x0, y0=[0.3]))
    window = IoWindow(grid=trace.grid, y_samples=trace.y_meas, u_samples=trace.u)
    z = apply_P(spec, window)
    assert np.max(np.abs(z - trace.x_true[-1])) < 1e-8


def test_apply_P_frequency_plant():
    scn = apps.FrequencyScenario(phase=1.0, h=5e-4)
    spec = apps.freq_spec()
    x0, y0 = scn.initial_state()
    trace = simulate_plant(spec, None, SimConfig(t_end=scn.r, h=scn.h,
                                                 x0=x0, y0=y0))
    window = IoWindow(grid=trace.grid, y_samples=trace.y_meas, u_samples=trace.u)
    z = apply_P(spec, window)
    # true end state: x1 = A w cos(w r + phase), x2 = -w^2
    assert z[0] == pytest.approx(6.0 * np.cos(4.0), abs=1e-4)
    assert z[1] == pytest.approx(-9.0, abs=1e-4)


def test_certificate_scalar_oracle():
    spec, window = scalar_window()
    verdict = observability_certificate(gram(compute_window(spec, window)))
    assert isinstance(verdict, StronglyObservableOnWindow)
    assert verdict.eigenvalues[0] == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_certificate_null_direction_unit_norm():
    gs = GramSummary(Q=np.array([[1.0, 0.0], [0.0, 0.0]]), v=np.zeros(2))
    verdict = observability_certificate(gs)
    assert isinstance(verdict, Degenerate)
    assert np.linalg.norm(verdict.null_direction) == pytest.approx(1.0)
    assert abs(verdict.null_direction[1]) == pytest.approx(1.0)


def test_certificate_lti_every_window_length():
    # an observable constant-coefficient pair stays observable for every r > 0
    spec = make_lti(np.array([[0.0, 1.0], [-2.0, -0.5]]), np.zeros(2),
                    np.array([[1.0], [0.0]]), np.zeros(1))
    for r in (0.25, 0.5, 1.0):
        trace = simulate_plant(spec, None, SimConfig(t_end=r, h=r / 500.0,
                                                     x0=[0.7, -0.2], y0=[0.1]))
        verdict = observability_certificate(
            gram(compute_window(spec, IoWindow(grid=trace.grid,
                                               y_samples=trace.y_meas,
                                               u_samples=trace.u))))
        assert isinstance(verdict, StronglyObservableOnWindow)


def test_gram_consistency_property():
    # v = Q x0 for noiseless windows of the true plant
    rng = np.random.default_rng(19)
    for _ in range(5):
        x0 = rng.normal(size=2)
        spec = make_lti(np.array([[0.0, 1.0], [-1.5, -0.2]]), rng.normal(size=2),
                        np.array([[1.0], [0.3]]), np.zeros(1))
        trace = simulate_plant(spec, None, SimConfig(t_end=0.5, h=5e-4,
                                                     x0=x0, y0=[0.1]))
        gs = gram(compute_window(spec, IoWindow(grid=trace.grid,
                                                y_samples=trace.y_meas,
                                                u_samples=trace.u)))
        scale = max(np.linalg.norm(gs.v), 1e-12)
        assert np.linalg.norm(gs.v - gs.Q @ x0) <= 1e-6 * scale


def test_determinant_condition_scalar():
    spec, window = scalar_window(h=0.25)
    wc = compute_window(spec, window)
    assert determinant_condition(spec, window, wc, [2]) == pytest.approx(1.0)


def test_determinant_condition_zero_output_map():
    spec = make_lti(np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)), np.zeros(1))
    trace = simulate_plant(spec, None, SimConfig(t_end=1.0, h=0.25,
                                                 x0=[1.0], y0=[0.0]))
    window = IoWindow(grid=trace.grid, y_samples=trace.y_meas, u_samples=trace.u)
    wc = compute_window(spec, window)
    assert determinant_condition(spec, window, wc, [3]) == 0.0


def test_determinant_condition_errors():
    spec = make_lti(np.zeros((2, 2)), np.zeros(2), np.eye(2), np.zeros(2))
    trace = simulate_plant(spec, None, SimConfig(t_end=1.0, h=0.25,
                                                 x0=[1.0, 1.0], y0=[0.0, 0.0]))
    window = IoWindow(grid=trace.grid, y_samples=trace.y_meas, u_samples=trace.u)
    wc = compute_window(spec, window)
    with pytest.raises(DimensionMismatch, match="requires k = 1"):
        determinant_condition(spec, window, wc, [0, 4])
    spec1, window1 = scalar_window(h=0.25)
    wc1 = compute_window(spec1, window1)
    with pytest.raises(DimensionMismatch):
        determinant_condition(spec1, window1, wc1, [0, 4])
    spec2, window2 = reactor_window()
    wc2 = compute_window(spec2, window2)
    count = window2.grid.count
    for nodes in ([0, count], [0, 500 * count], [-1, 0], [0, -count]):
        with pytest.raises(DimensionMismatch, match="outside"):
            determinant_condition(spec2, window2, wc2, nodes)
    assert determinant_condition(spec2, window2, wc2, [0, count - 1]) != 0.0


def test_determinant_condition_checks_the_evaluators_once():
    spec = apps.reactor_spec(apps.canonical_reactor_params())
    trace = simulate_plant(spec, None, SimConfig(t_end=0.25, h=2.5e-3,
                                                 x0=[0.8, 0.5], y0=[315.0]))
    window = IoWindow(grid=trace.grid, y_samples=trace.y_meas, u_samples=trace.u)
    wc = compute_window(spec, window)
    calls = []

    def eval_C(y):
        calls.append(1)
        return spec.eval_C(y)

    good = dataclasses.replace(spec, eval_C=eval_C)
    assert determinant_condition(good, window, wc, [0, 50]) != 0.0
    assert len(calls) == 3  # the check at node 0, then one per row
    listed = dataclasses.replace(spec, eval_C=lambda y: spec.eval_C(y).tolist())
    with pytest.raises(DimensionMismatch, match="eval_C"):
        determinant_condition(listed, window, wc, [0, 50])


def test_determinant_condition_on_a_degenerate_window_is_integration_error():
    # the plant driven by example 2.6's indistinguishing input, as the observability
    # report simulates it: the Gram matrix is degenerate at both steps, while the
    # determinant at the window's end nodes halves with h, so it measures the
    # plant's first-order hold of the sampled input, not observability
    ex = canonical_planar_example()
    spec = ex.to_system_spec()
    determinants = []
    for h in (1e-3, 5e-4):
        grid = Grid.from_span(0.0, 1.0, h)
        u_s, _ = indistinguishing_input(ex, np.array([0.5, -0.3]), 0.2, grid)
        window = recorded_window(spec, sampled_input(grid, u_s), 1.0, h, [0.5, -0.3], [0.2])
        wc = compute_window(spec, window)
        assert isinstance(observability_certificate(gram(wc)), Degenerate)
        determinants.append(determinant_condition(spec, window, wc, [0, grid.count - 1]))
    assert 1.9 <= determinants[0] / determinants[1] <= 2.1


def test_indistinguishing_input_output_trajectory():
    # for the canonical planar instance the constructed output is y0 - t
    ex = canonical_planar_example()
    grid = Grid.from_span(0.0, 1.0, 1e-3)
    x0 = np.array([0.5, -0.3])
    y0 = 0.2
    u_s, y_s = indistinguishing_input(ex, x0, y0, grid)
    t = grid.times()
    assert np.max(np.abs(y_s[:, 0] - (y0 - t))) < 1e-10
    # u(0) = -1 - (x20 + x10 e^{y0})
    expected_u0 = -1.0 - (x0[1] + x0[0] * math.exp(y0))
    assert u_s[0, 0] == pytest.approx(expected_u0, abs=1e-12)


def test_indistinguishing_input_degenerate_gram():
    ex = canonical_planar_example()
    spec = ex.to_system_spec()
    grid = Grid.from_span(0.0, 1.0, 5e-4)
    x0 = np.array([0.5, -0.3])
    y0 = 0.2

    def u_exact(t):
        return -1.0 - math.exp(-2.0 * t) * (x0[1] + x0[0] * math.exp(y0))

    trace = simulate_plant(spec, lambda t: np.array([u_exact(t)]),
                           SimConfig(t_end=1.0, h=5e-4, x0=x0, y0=[y0]))
    gs = gram(compute_window(spec, IoWindow(grid=trace.grid,
                                            y_samples=trace.y_meas,
                                            u_samples=trace.u)))
    verdict = observability_certificate(gs)
    assert isinstance(verdict, Degenerate)
    eigvals = np.linalg.eigvalsh(gs.Q)
    assert eigvals[0] <= 1e-8 * np.trace(gs.Q)


def test_indistinguishable_partner_formula():
    ex = canonical_planar_example()
    x0 = np.array([0.5, -0.3])
    partner = indistinguishable_partner(ex, x0, 0.2, xi1=1.2)
    assert partner[0] == 1.2
    assert partner[1] == pytest.approx(-0.3 + math.exp(0.2) * (0.5 - 1.2))
    same = indistinguishable_partner(ex, x0, 0.2, xi1=x0[0])
    assert np.allclose(same, x0)


def test_indistinguishing_input_kappa_vanished():
    ex = Example26Spec(a1=lambda y: -1.0, a2=lambda y: -2.0,
                       c1=lambda y: 1.0, c2=lambda y: 1.0,
                       kappa=lambda y: 0.0)
    with pytest.raises(KappaVanished):
        indistinguishing_input(ex, np.array([1.0, 1.0]), 0.0,
                               Grid.from_span(0.0, 1.0, 0.1))


def test_indistinguishing_input_kappa_changing_sign_inside_a_step():
    # y' = -1/(y + 0.5) from y = 0 reaches kappa = y + 0.5 = 0 at t = 0.125; no
    # node or stage meets |kappa| <= 1e-9, but one RK4 stage sees y = -0.500286
    ex = Example26Spec(a1=lambda y: -1.0, a2=lambda y: -2.0,
                       c1=lambda y: 1.0, c2=lambda y: 1.0,
                       kappa=lambda y: y + 0.5)
    with pytest.raises(KappaVanished, match="changed sign at y = -0.500286"):
        indistinguishing_input(ex, np.array([1.0, 1.0]), 0.0,
                               Grid.from_span(0.0, 1.0, 0.01))


def test_indistinguishing_input_kappa_changing_sign_at_the_final_node():
    # y' = y from y = 1, one RK4 step of 0.1: the stages see y = 1, 1.05, 1.0525
    # and 1.10525, the node y = 1.1051708; kappa is -1 only on (1.1051, 1.1052)
    ex = Example26Spec(a1=lambda y: 0.0, a2=lambda y: y,
                       c1=lambda y: 1.0, c2=lambda y: 1.0,
                       kappa=lambda y: -1.0 if 1.1051 < y < 1.1052 else 1.0)
    with pytest.raises(KappaVanished, match="along the constructed trajectory"):
        indistinguishing_input(ex, np.array([1.0, 1.0]), 1.0,
                               Grid.from_span(0.0, 0.1, 0.1))
