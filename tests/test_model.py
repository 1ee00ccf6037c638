import dataclasses

import numpy as np
import pytest

from deadbeat_observer import applications as apps
from deadbeat_observer.cli import build_scalar_spec
from deadbeat_observer.errors import DimensionMismatch
from deadbeat_observer.model import (
    InputSignal,
    eval_coefficients,
    make_lti,
    scalar_oracle_spec,
)
from deadbeat_observer.numerics import Grid


def eval_rhs(spec, x, y, u):
    """Plant right-hand side (A x + b, f + C^T x) from the spec's evaluators."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    A = np.asarray(spec.eval_A(y, u), dtype=float)
    b = np.asarray(spec.eval_b(y, u), dtype=float)
    C = np.asarray(spec.eval_C(y), dtype=float).reshape(spec.n, spec.k)
    f = np.atleast_1d(np.asarray(spec.eval_f(y, u), dtype=float))
    return A @ x + b, f + C.T @ x


def test_eval_rhs_frequency_system():
    spec = apps.freq_spec()
    xdot, ydot = eval_rhs(spec, [0.0, -9.0], [2.0], np.zeros(1))
    assert np.allclose(xdot, [-18.0, 0.0])
    assert np.allclose(ydot, [0.0])


def test_eval_rhs_zero_state():
    spec = make_lti(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros(2),
                    np.array([[1.0], [0.0]]), np.zeros(1))
    xdot, ydot = eval_rhs(spec, np.zeros(2), np.zeros(1), np.zeros(1))
    assert np.allclose(xdot, 0.0)
    assert np.allclose(ydot, 0.0)


def test_eval_rhs_reactor_at_jacket_temperature():
    p = apps.canonical_reactor_params()
    spec = apps.reactor_spec(p)
    rate1 = p.k1 * np.exp(-p.E1 / p.Ts)
    xdot, ydot = eval_rhs(spec, [1.0 - 1e-9, 1e-9], [p.Ts], np.zeros(1))
    # c_B ~ 0 so the second-reaction terms vanish; f(Ts) = 0
    assert xdot[0] == pytest.approx(-rate1, rel=1e-6)
    assert xdot[1] == pytest.approx(rate1, rel=1e-6)
    assert ydot[0] == pytest.approx(p.J1 * rate1, rel=1e-6)


def test_eval_rhs_domain_violation():
    spec = apps.freq_spec()
    assert not spec.in_domain(np.array([1.0, 4.0]), np.array([2.0]))  # x2 >= 0
    assert spec.in_domain(np.array([1.0, -4.0]), np.array([2.0]))


def test_eval_rhs_linear_in_x():
    rng = np.random.default_rng(3)
    spec = apps.freq_spec(relaxed_domain=True)
    y = np.array([1.3])
    u = np.zeros(1)

    def f(x):
        return np.concatenate(eval_rhs(spec, x, y, u))

    for _ in range(10):
        x1 = rng.normal(size=2)
        x2 = rng.normal(size=2)
        defect = f(x1 + x2) - f(x1) - f(x2) + f(np.zeros(2))
        assert np.max(np.abs(defect)) < 1e-12


def test_make_lti_scalar_oracle():
    spec = scalar_oracle_spec()
    xdot, ydot = eval_rhs(spec, [2.0], [0.0], np.zeros(1))
    assert xdot[0] == 0.0
    assert ydot[0] == 2.0


def test_make_lti_unobservable_zero_C():
    spec = make_lti(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 1)), np.zeros(1))
    _, ydot = eval_rhs(spec, [3.0, 4.0], [1.0], np.zeros(1))
    assert np.allclose(ydot, 0.0)


def test_make_lti_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        make_lti(np.zeros((2, 2)), np.zeros(3), np.zeros((2, 1)), np.zeros(1))


def test_make_lti_constant_across_probes():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 3))
    C = rng.normal(size=(3, 2))
    spec = make_lti(A, np.zeros(3), C, np.zeros(2))
    for _ in range(5):
        y = rng.normal(size=2)
        u = rng.normal(size=1)
        assert np.array_equal(spec.eval_A(y, u), A)
        assert np.array_equal(spec.eval_C(y), C)


def test_input_signals():
    const = InputSignal.constant([1.5])
    assert const(0.0)[0] == 1.5 and const(7.0)[0] == 1.5
    grid = Grid.from_span(0.0, 1.0, 0.25)
    sampled = InputSignal.sampled(grid, np.arange(5.0).reshape(-1, 1))
    assert sampled(0.1)[0] == 0.0  # previous-node hold
    assert sampled(0.26)[0] == 1.0
    closure = InputSignal.closure(lambda t: 2.0 * t, 1)
    assert closure(0.5)[0] == 1.0


BATCH_FACTORIES = {
    "reactor": (lambda: apps.reactor_spec(apps.canonical_reactor_params()), 300.0, 350.0),
    "frequency": (apps.freq_spec, -3.0, 3.0),
    "lti": (lambda: make_lti(np.array([[0.1, -1.0, 0.0], [0.4, 0.0, 0.3], [0.0, 0.2, -0.5]]),
                             np.array([0.1, 0.2, -0.3]),
                             np.array([[1.0, 0.0], [0.5, -1.0], [0.0, 2.0]]),
                             np.array([0.3, -0.1])), -2.0, 2.0),
    "scalar": (lambda: build_scalar_spec({"a0": -0.4, "f0": 0.2, "input_gain": 0.7,
                                          "c0": 1.1, "c1": -0.3}), -2.0, 2.0),
}


@pytest.mark.parametrize("name", sorted(BATCH_FACTORIES))
def test_eval_batch_agrees_with_point_evaluators(name):
    factory, lo, hi = BATCH_FACTORIES[name]
    spec = factory()
    assert spec.eval_batch is not None
    rng = np.random.default_rng(23)
    Y = rng.uniform(lo, hi, size=(40, spec.k))
    U = rng.normal(size=(40, spec.m))
    batched = eval_coefficients(spec, Y, U)
    pointwise = eval_coefficients(dataclasses.replace(spec, eval_batch=None), Y, U)
    for got, ref in zip(batched, pointwise):
        assert got.shape == ref.shape
        assert np.allclose(got, ref, rtol=1e-14, atol=0.0)


def test_eval_batch_wrong_shape_rejected():
    spec = dataclasses.replace(
        scalar_oracle_spec(),
        eval_batch=lambda Y, U: (np.zeros((len(Y), 1, 1)), np.zeros(len(Y)),
                                 np.ones((len(Y), 1, 1)), np.zeros((len(Y), 1))))
    with pytest.raises(DimensionMismatch):
        eval_coefficients(spec, np.zeros((4, 1)), np.zeros((4, 1)))
