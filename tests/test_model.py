import dataclasses

import numpy as np
import pytest

from deadbeat_observer import applications as apps
from deadbeat_observer.cli import build_scalar_spec, canonical_example26
from deadbeat_observer.errors import DimensionMismatch
from deadbeat_observer.model import (
    check_point_evaluators,
    eval_coefficients,
    make_lti,
    point_rate,
    sampled_input,
)
from deadbeat_observer.numerics import Grid

from oracles import pointwise_coefficients, scalar_oracle_spec


def test_eval_rhs_frequency_system():
    spec = apps.freq_spec()
    xdot, ydot = np.split(point_rate(spec, np.array([0.0, -9.0, 2.0]), np.zeros(1)), [2])
    assert np.allclose(xdot, [-18.0, 0.0])
    assert np.allclose(ydot, [0.0])


def test_eval_rhs_zero_state():
    spec = make_lti(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros(2),
                    np.array([[1.0], [0.0]]), np.zeros(1))
    xdot, ydot = np.split(point_rate(spec, np.zeros(3), np.zeros(1)), [2])
    assert np.allclose(xdot, 0.0)
    assert np.allclose(ydot, 0.0)


def test_eval_rhs_reactor_at_jacket_temperature():
    p = apps.canonical_reactor_params()
    spec = apps.reactor_spec(p)
    rate1 = p.k1 * np.exp(-p.E1 / p.Ts)
    rate = point_rate(spec, np.array([1.0 - 1e-9, 1e-9, p.Ts]), np.zeros(1))
    xdot, ydot = rate[:2], rate[2:]
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
    spec = apps.freq_spec()
    y = np.array([1.3])
    u = np.zeros(1)

    def f(x):
        return point_rate(spec, np.concatenate([x, y]), u)

    for _ in range(10):
        x1 = rng.normal(size=2)
        x2 = rng.normal(size=2)
        defect = f(x1 + x2) - f(x1) - f(x2) + f(np.zeros(2))
        assert np.max(np.abs(defect)) < 1e-12


def test_make_lti_scalar_oracle():
    spec = scalar_oracle_spec()
    xdot, ydot = np.split(point_rate(spec, np.array([2.0, 0.0]), np.zeros(1)), [1])
    assert xdot[0] == 0.0
    assert ydot[0] == 2.0


def test_make_lti_unobservable_zero_C():
    spec = make_lti(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 1)), np.zeros(1))
    _, ydot = np.split(point_rate(spec, np.array([3.0, 4.0, 1.0]), np.zeros(1)), [2])
    assert np.allclose(ydot, 0.0)


def test_make_lti_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        make_lti(np.zeros((2, 2)), np.zeros(3), np.zeros((2, 1)), np.zeros(1))


def test_make_lti_rejects_a_non_square_A_and_an_f_of_the_wrong_length():
    with pytest.raises(DimensionMismatch, match="A must be square"):
        make_lti(np.zeros((2, 3)), np.zeros(2), np.zeros((2, 1)), np.zeros(1))
    with pytest.raises(DimensionMismatch, match="f must have length 1"):
        make_lti(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 1)), np.zeros(2))


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
    # a recorded input holds the sample of the previous node
    grid = Grid.from_span(0.0, 1.0, 0.25)
    for values in (np.arange(5.0), np.arange(5.0).reshape(-1, 1)):
        u = sampled_input(grid, values)
        # the 1e-9 guard puts a time just short of a node on that node; a time
        # before the grid holds the first sample
        for t, held in ((0.0, 0.0), (0.1, 0.0), (0.25 - 1e-12, 1.0), (0.26, 1.0),
                        (1.0, 4.0), (2.0, 4.0), (-0.5, 0.0)):
            assert np.array_equal(u(t), [held])
    assert sampled_input(grid, np.ones((5, 2)))(0.5).shape == (2,)
    for values in (np.arange(4.0), np.ones((6, 1)), np.ones((5, 1, 1))):
        with pytest.raises(DimensionMismatch, match="input samples"):
            sampled_input(grid, values)


BATCH_FACTORIES = {
    "reactor": (lambda: apps.reactor_spec(apps.canonical_reactor_params()), 300.0, 350.0),
    "frequency": (apps.freq_spec, -3.0, 3.0),
    "lti": (lambda: make_lti(np.array([[0.1, -1.0, 0.0], [0.4, 0.0, 0.3], [0.0, 0.2, -0.5]]),
                             np.array([0.1, 0.2, -0.3]),
                             np.array([[1.0, 0.0], [0.5, -1.0], [0.0, 2.0]]),
                             np.array([0.3, -0.1])), -2.0, 2.0),
    "scalar": (lambda: build_scalar_spec({"a0": -0.4, "f0": 0.2, "input_gain": 0.7,
                                          "c0": 1.1, "c1": -0.3}), -2.0, 2.0),
    "example26": (lambda: canonical_example26().to_system_spec(), -2.0, 2.0),
}


@pytest.mark.parametrize("name", sorted(BATCH_FACTORIES))
def test_eval_batch_agrees_with_point_evaluators(name):
    factory, lo, hi = BATCH_FACTORIES[name]
    spec = factory()
    rng = np.random.default_rng(23)
    Y = rng.uniform(lo, hi, size=(40, spec.k))
    U = rng.normal(size=(40, spec.m))
    batched = eval_coefficients(spec, Y, U)
    pointwise = pointwise_coefficients(spec, Y, U)
    for got, ref in zip(batched, pointwise):
        assert got.shape == ref.shape
        assert np.allclose(got, ref, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("field, value", [
    ("eval_A", lambda y, u: [[0.0]]),
    ("eval_b", lambda y, u: np.zeros((1, 1))),
    ("eval_C", lambda y: np.ones(1)),
    ("eval_f", lambda y, u: 0.0),
])
def test_point_contract_rejects_other_results(field, value):
    spec = dataclasses.replace(scalar_oracle_spec(), **{field: value})
    with pytest.raises(DimensionMismatch, match=field):
        check_point_evaluators(spec, np.zeros(1), np.zeros(1))


def test_eval_batch_wrong_shape_rejected():
    spec = dataclasses.replace(
        scalar_oracle_spec(),
        eval_batch=lambda Y, U: (np.zeros((len(Y), 1, 1)), np.zeros(len(Y)),
                                 np.ones((len(Y), 1, 1)), np.zeros((len(Y), 1))))
    with pytest.raises(DimensionMismatch):
        eval_coefficients(spec, np.zeros((4, 1)), np.zeros((4, 1)))
