import re

import numpy as np
import pytest

from deadbeat_observer.applications import FrequencyScenario
from deadbeat_observer.errors import (DimensionMismatch, InvalidValue, NonFiniteState,
                                      NotPositiveDefinite)
from deadbeat_observer.numerics import (
    MAX_NODES,
    Grid,
    _step_constants,
    cumulative_trapezoid,
    integrate_rk4,
    rk4_step,
    spd_solve,
    trapezoid,
    window_grid,
)
from deadbeat_observer.observer import ObserverConfig


def test_grid_invariants():
    g = Grid(0.0, 1e-3, 1001)
    assert g.span == pytest.approx(1.0)
    assert g.times()[3] == pytest.approx(3e-3)
    with pytest.raises(ValueError):
        Grid(0.0, -1e-3, 10)
    with pytest.raises(ValueError):
        Grid(0.0, 1e-3, 1)
    with pytest.raises(ValueError):
        Grid.from_span(0.0, 1.0, 3e-4)
    for h in (0.0, -0.1, float("nan")):
        with pytest.raises(ValueError):
            Grid.from_span(0.0, 1.0, h)


def test_grid_rejects_non_finite_values_and_fractional_counts():
    nan, inf = float("nan"), float("inf")
    for t0, h, count in ((0.0, nan, 5), (nan, 0.1, 5), (inf, 0.1, 5), (0.0, inf, 5),
                         (0.0, 0.1, 5.5), (0.0, 0.1, 5.0), (0.0, 0.1, inf)):
        with pytest.raises(InvalidValue):
            Grid(t0, h, count)
    assert Grid(0.0, 0.1, np.int64(5)).count == 5
    for span, h in ((nan, 0.1), (inf, 0.1), (1.0, nan), (1.0, inf), (-inf, 0.1)):
        with pytest.raises(InvalidValue):
            Grid.from_span(0.0, span, h)


def test_grid_over_the_node_limit_is_rejected_before_any_array():
    assert Grid(0.0, 1.0, MAX_NODES).count == MAX_NODES
    with pytest.raises(InvalidValue, match="^a grid of 10000001 nodes exceeds the limit of "
                                           "10000000 nodes$"):
        Grid(0.0, 1.0, MAX_NODES + 1)
    # 2e12 nodes, and a span over h that overflows to inf before it could be rounded
    for span, h, count in ((1e9, 5e-4, "2e\\+12"), (2.5, 1e-310, "inf")):
        with pytest.raises(InvalidValue, match=f"^a grid of {count} nodes exceeds the limit"):
            Grid.from_span(0.0, span, h)


@pytest.mark.parametrize("r, h, message", [
    (1.0, 0.5, None),
    (1.0, 1.0, "window length r=1.0 must be an integer multiple (>= 2) of h=1.0"),
    (1.0, 0.3, "window length r=1.0 must be an integer multiple (>= 2) of h=0.3"),
    (1e300, 1.0, "a grid of 1e+300 nodes exceeds the limit of 10000000 nodes"),
], ids=["two-steps", "one-step", "no-multiple", "over-the-limit"])
def test_observer_and_sweep_windows_follow_one_rule(r, h, message):
    # a reset window and a sweep window accept and reject the same (r, h), with one message
    windows = (lambda: Grid(0.0, h, ObserverConfig(r=r, h=h).steps_per_window + 1),
               lambda: FrequencyScenario(r=r, h=h).grid)
    for window in windows:
        if message is None:
            assert window() == window_grid(r, h) == Grid(0.0, h, 3)
        else:
            with pytest.raises(InvalidValue, match=f"^{re.escape(message)}$"):
                window()


def test_rk4_exponential():
    g = Grid.from_span(0.0, 1.0, 1e-3)
    traj = integrate_rk4(lambda t, x: x, np.array([1.0]), g)
    assert traj[0, 0] == 1.0
    assert abs(traj[-1, 0] - np.e) < 1e-9


def textbook_rk4_step(field, t, s, h):
    """The classical RK4 step, written as the textbook writes it."""
    k1 = field(t, s)
    k2 = field(t + 0.5 * h, s + 0.5 * h * k1)
    k3 = field(t + 0.5 * h, s + 0.5 * h * k2)
    k4 = field(t + h, s + h * k3)
    return s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_rk4_step_is_bit_identical_to_the_textbook_step():
    rng = np.random.default_rng(17)
    special = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 1e308, -1e-320])
    for n in range(1, 7):
        A = rng.normal(size=(n, n))
        b = rng.normal(size=n)
        c = rng.normal(size=n)
        fields = (lambda t, s: A.dot(s) + b,
                  lambda t, s: A.dot(s) + t * c,
                  lambda t, s: np.sin(s) * s[::-1] - t * s * s,
                  lambda t, s: np.exp(-s) - c)
        for trial in range(40):
            s = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=n)
            if trial % 4 == 0:
                s[rng.integers(n)] = rng.choice(special)
            t, h = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(1e-5, 0.5))
            with np.errstate(all="ignore"):
                for field in fields:
                    got = rk4_step(field, t, s, h)
                    want = textbook_rk4_step(field, t, s, h)
                    assert got.tobytes() == want.tobytes(), (n, trial, s, t, h)


def fresh_constants_rk4_step(field, t, s, h):
    """rk4_step's operations, with its step-size arrays built afresh for this step."""
    half, full = np.array(0.5 * h), np.array(h)
    t_mid = t + 0.5 * h
    k1 = field(t, s)
    k2 = field(t_mid, s + half * k1)
    k3 = field(t_mid, s + half * k2)
    k4 = field(t + h, s + full * k3)
    return s + np.array(h / 6.0) * (k1 + (k2 + k2) + (k3 + k3) + k4)


def test_rk4_step_interleaving_two_step_sizes_keeps_each_bit_for_bit():
    A = np.array([[-0.3, 1.0], [-1.0, -0.2]])

    def field(t, s):
        return A.dot(s) + np.sin(t)

    states = {1e-3: np.array([1.0, -0.5]), 1.0 / 750.0: np.array([-2.0, 0.25])}
    for j in range(200):
        for h in states:
            got = rk4_step(field, j * h, states[h], h)
            want = fresh_constants_rk4_step(field, j * h, states[h], h)
            assert got.tobytes() == want.tobytes(), (j, h)
            states[h] = got
    for h in states:
        constants = _step_constants(h)
        assert constants is _step_constants(h)
        for c in constants:
            assert not c.flags.writeable
            with pytest.raises(ValueError):
                c[...] = 0.0


def test_rk4_step_leaves_the_field_arrays_alone():
    b = np.array([1.0, -2.0])
    before = b.copy()

    def field(t, s):
        return b

    s = rk4_step(field, 0.0, np.zeros(2), 0.1)
    assert np.array_equal(b, before)
    assert np.array_equal(s, textbook_rk4_step(field, 0.0, np.zeros(2), 0.1))


def test_rk4_zero_field_constant():
    g = Grid.from_span(0.0, 2.0, 0.1)
    traj = integrate_rk4(lambda t, x: np.zeros(1), np.array([5.0]), g)
    assert np.all(traj == 5.0)


def test_rk4_double_integrator():
    g = Grid.from_span(0.0, 1.0, 1e-3)
    traj = integrate_rk4(lambda t, x: np.array([x[1], 0.0]), np.array([0.0, 1.0]), g)
    assert np.allclose(traj[-1], [1.0, 1.0], atol=1e-9)


def test_rk4_deterministic():
    g = Grid.from_span(0.0, 1.0, 1e-2)
    a = integrate_rk4(lambda t, x: np.sin(x), np.array([0.3]), g)
    b = integrate_rk4(lambda t, x: np.sin(x), np.array([0.3]), g)
    assert np.array_equal(a, b)


def test_rk4_nonfinite_reports_index():
    g = Grid.from_span(0.0, 1.0, 0.25)

    def field(t, x):
        return np.array([np.inf]) if t > 0.6 else x

    with pytest.raises(NonFiniteState) as exc:
        integrate_rk4(field, np.array([1.0]), g)
    assert exc.value.index == 3


def test_rk4_check_runs_at_every_node_in_order():
    g = Grid.from_span(0.0, 1.0, 0.125)
    seen = []
    traj = integrate_rk4(lambda t, x: -x + t, np.array([1.0, 2.0]), g,
                         check=lambda s, j: seen.append((j, s.copy())))
    assert [j for j, _ in seen] == list(range(g.count))
    for j, s in seen:
        assert np.array_equal(s, traj[j])


def test_rk4_check_exception_propagates_unchanged():
    raised = LookupError("stop at node 3")

    def check(s, j):
        if j == 3:
            raise raised

    with pytest.raises(LookupError) as exc:
        integrate_rk4(lambda t, x: x, np.array([1.0]), Grid.from_span(0.0, 1.0, 0.125), check)
    assert exc.value is raised


def test_rk4_batched_init_rows_equal_single_runs():
    g = Grid.from_span(0.0, 1.0, 1e-2)

    def field(t, x):
        return np.stack([x[..., 1], -x[..., 0] - 0.1 * x[..., 0] ** 3 + t], axis=-1)

    inits = np.array([[0.3, 0.0], [1.0, -0.5], [-2.0, 0.7]])
    batch = integrate_rk4(field, inits, g)
    assert batch.shape == (g.count, 3, 2)
    for i, x0 in enumerate(inits):
        assert np.array_equal(batch[:, i], integrate_rk4(field, x0, g))


def test_rk4_fourth_order_convergence():
    # error on xdot = x over [0,1] drops by >= 12x when h is halved
    errs = []
    for h in (1e-2, 5e-3):
        g = Grid.from_span(0.0, 1.0, h)
        traj = integrate_rk4(lambda t, x: x, np.array([1.0]), g)
        errs.append(abs(traj[-1, 0] - np.e))
    assert errs[0] / errs[1] >= 12.0


def test_trapezoid_linear_exact():
    g = Grid.from_span(0.0, 1.0, 1e-3)
    t = g.times()
    assert trapezoid(t, g) == pytest.approx(0.5, abs=1e-14)


def test_trapezoid_quadratic():
    g = Grid.from_span(0.0, 1.0, 1e-3)
    t = g.times()
    assert trapezoid(t * t, g) == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_trapezoid_zero():
    g = Grid.from_span(0.0, 1.0, 0.1)
    assert trapezoid(np.zeros(g.count), g) == 0.0


def test_trapezoid_length_mismatch():
    g = Grid.from_span(0.0, 1.0, 0.1)
    with pytest.raises(DimensionMismatch):
        trapezoid(np.zeros(g.count + 1), g)


def test_cumulative_trapezoid_length_mismatch():
    g = Grid.from_span(0.0, 1.0, 0.1)
    with pytest.raises(DimensionMismatch, match="got 10 samples for a 11-node grid"):
        cumulative_trapezoid(np.zeros(g.count - 1), g)


def test_trapezoid_linearity():
    rng = np.random.default_rng(7)
    g = Grid.from_span(0.0, 1.0, 1e-2)
    f = rng.normal(size=g.count)
    gg = rng.normal(size=g.count)
    a, b = 2.5, -1.75
    lhs = trapezoid(a * f + b * gg, g)
    rhs = a * trapezoid(f, g) + b * trapezoid(gg, g)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_cumulative_trapezoid_matches_total():
    g = Grid.from_span(0.0, 1.0, 1e-3)
    t = g.times()
    cum = cumulative_trapezoid(t * t, g)
    assert cum[0] == 0.0
    assert cum[-1] == pytest.approx(trapezoid(t * t, g), abs=1e-14)


def test_spd_solve_identity():
    x, _ = spd_solve(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(x, [1.0, 2.0, 3.0])


def test_spd_solve_diagonal():
    x, pivot = spd_solve(np.diag([4.0, 9.0]), np.array([8.0, 27.0]))
    assert np.allclose(x, [2.0, 3.0])
    assert pivot == pytest.approx(4.0)


def test_spd_solve_rank_deficient():
    with pytest.raises(NotPositiveDefinite):
        spd_solve(np.ones((2, 2)), np.array([1.0, 1.0]))


def test_spd_solve_roundtrip_property():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 8))
        M = rng.normal(size=(n, n))
        Q = M @ M.T + 0.1 * np.eye(n)
        eig = np.linalg.eigvalsh(Q)
        if eig[-1] / eig[0] >= 1e8:
            continue
        rhs = rng.normal(size=n)
        x, _ = spd_solve(Q, rhs)
        assert np.linalg.norm(Q @ x - rhs) <= 1e-8 * max(np.linalg.norm(rhs), 1.0)


def test_spd_solve_rejects_a_non_square_Q_and_an_rhs_of_the_wrong_length():
    with pytest.raises(DimensionMismatch, match="Q must be square"):
        spd_solve(np.eye(2, 3), np.ones(2))
    with pytest.raises(DimensionMismatch, match="rhs length 3 does not match Q size 2"):
        spd_solve(np.eye(2), np.ones(3))


def test_spd_solve_rejects_asymmetric():
    Q = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        spd_solve(Q, np.array([1.0, 1.0]))
