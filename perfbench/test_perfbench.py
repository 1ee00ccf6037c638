"""Tests of the benchmark's own helpers; they never run a workload.

    python3 -m pytest -q perfbench
"""

import numpy as np
import pytest

import measures
import pace
import spans
import workloads


# ---------------------------------------------------------------------------
# Tail percentile: the highest level with at least ten samples beyond it
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, level", [
    (19, None), (20, "50"), (99, "50"), (100, "90"), (999, "90"),
    (1000, "99"), (9999, "99"), (10000, "99.9"), (100000, "99.99"),
])
def test_tail_level_picks_highest_level_with_ten_beyond(n, level):
    assert measures.tail_level(n) == level


def test_tail_level_keeps_ten_beyond_and_next_level_would_not():
    for n in range(20, 30000, 7):
        level = measures.tail_level(n)
        assert measures.samples_beyond(n, level) >= measures.MIN_BEYOND
        higher = measures.TAIL_LADDER.index(level) + 1
        if higher < len(measures.TAIL_LADDER):
            assert measures.samples_beyond(n, measures.TAIL_LADDER[higher]) < measures.MIN_BEYOND


def test_tail_value_leaves_ten_larger_samples():
    samples = list(range(1, 1001))  # ranks equal values
    level, value = measures.tail(samples)
    assert level == 99.0
    assert value == 990
    assert sum(1 for x in samples if x > value) == 10


def test_nearest_rank_percentiles():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert measures.median(samples) == 3.0
    assert measures.percentile(samples, "99") == 5.0
    assert measures.percentile(list(range(1, 101)), "99") == 99


def test_histogram_percentiles_match_exact_ones_to_bin_width():
    rng = np.random.default_rng(3)
    samples = rng.lognormal(np.log(60e-6), 0.3, size=20000)
    samples[::997] = 0.03  # rare slow calls
    hist = measures.LatencyHistogram()
    for chunk in np.array_split(samples, 7):
        hist.add(chunk)
    assert hist.n == samples.size
    for q in ("50", "90", "99", "99.9"):
        exact = measures.percentile(list(samples), q)
        assert hist.percentile(q) == pytest.approx(exact, rel=1e-3)
    before = hist.counts.nbytes
    hist.add(samples)
    assert hist.counts.nbytes == before


# ---------------------------------------------------------------------------
# Deadline misses and failure ratio
# ---------------------------------------------------------------------------

def test_deadline_misses_count_strictly_longer_latencies():
    h = 1.0 / 750.0
    latencies = [0.5 * h, h, 1.01 * h, 30.0 * h, 0.9 * h]
    assert measures.deadline_misses(latencies, h) == 2
    assert measures.deadline_misses([], h) == 0


def test_fail_ratio_rises_when_a_sweep_window_fails():
    omega = 3.0
    good = np.full(16, omega * 1.05)
    attempted = 16
    assert measures.fail_ratio(attempted, workloads.check_sweep(good, omega, 16)) == 0.0
    bad = good.copy()
    bad[7] = omega * (1.0 + 1.01 * workloads.SWEEP_MAX_REL_ERROR)
    failed = workloads.check_sweep(bad, omega, 16)
    assert failed == 1
    assert measures.fail_ratio(attempted, failed) == 1 / 16
    assert workloads.check_sweep(None, omega, 16) == 16


def test_fail_ratio_rises_when_a_stream_check_fails():
    steps, first_reset = 2500, 250
    errors = np.full(steps, 1e-7)
    errors[:first_reset - 1] = 0.5  # before the first reset the estimate may be wrong
    applied = np.ones(steps, dtype=np.int8)
    assert workloads.check_stream(errors, first_reset, applied, steps, steps) == 0
    late = errors.copy()
    late[1000] = 10 * workloads.DEADBEAT_TOL
    assert workloads.check_stream(late, first_reset, applied, steps, steps) == 1
    skipped = applied.copy()
    skipped[2 * first_reset - 1] = 0
    assert workloads.check_stream(errors, first_reset, skipped, steps, steps) == 1
    assert workloads.check_stream(errors, first_reset, applied, 1200, steps) == steps - 1200
    nan = errors.copy()
    nan[300] = np.nan
    assert workloads.check_stream(nan, first_reset, applied, steps, steps) == 1


def test_fail_ratio_rises_when_a_cli_check_fails():
    summary = {"degenerate_events": 0, "max_post_window_relative_error": 3e-6}
    assert workloads.check_cli("simulate", 0, summary)
    assert not workloads.check_cli("simulate", 3, summary)
    assert not workloads.check_cli("simulate", 0, None)
    assert not workloads.check_cli("simulate", 0, dict(summary, degenerate_events=1))
    assert not workloads.check_cli("simulate", 0,
                                   dict(summary, max_post_window_relative_error=2e-4))
    assert workloads.check_cli("observability", 0, {"certificate": "degenerate"})
    assert not workloads.check_cli("observability", 0, {"certificate": "strongly_observable"})
    rows = [(0.5, 2.9, 0.03), (1.0, 3.1, 0.02), (3.0, 3.002, 0.0007)]
    assert workloads.check_cli("sweep", 0, rows)
    assert not workloads.check_cli("sweep", 0, rows[:2] + [(3.0, 3.01, 0.003)])
    passed = [workloads.check_cli("simulate", 0, summary), workloads.check_cli("simulate", 4, summary)]
    assert measures.fail_ratio(len(passed), passed.count(False)) == 0.5


# ---------------------------------------------------------------------------
# Spans: parent links and self time
# ---------------------------------------------------------------------------

def _span(i, parent, name, start, end, tag=""):
    return spans.Span(i, parent, name, start, end, tag)


def test_self_time_subtracts_direct_children_only():
    recorded = [
        _span(0, -1, "observer.step", 0.0, 10.0),
        _span(1, 0, "window.apply_P", 1.0, 4.0),
        _span(2, 0, "window.compute_window", 5.0, 9.0),
        _span(3, 2, "numerics.quadrature", 6.0, 8.0),
        _span(4, -1, "observer.step", 10.0, 11.5),
    ]
    assert spans.self_times(recorded) == pytest.approx([3.0, 3.0, 2.0, 2.0, 1.5])
    window = spans.outermost_seconds(recorded, lambda n: spans.layer_of(n) == "window")
    assert window == pytest.approx(7.0)
    total = spans.outermost_seconds(recorded, lambda n: True)
    assert total == pytest.approx(11.5)


def test_outermost_seconds_counts_nested_same_name_once():
    recorded = [
        _span(0, -1, "cli.write", 0.0, 4.0),
        _span(1, 0, "cli.write", 0.5, 3.5),
        _span(2, -1, "cli.write", 5.0, 6.0),
    ]
    assert spans.outermost_seconds(recorded, lambda n: n == "cli.write") == pytest.approx(5.0)


def test_recorder_links_nested_calls_and_hooks():
    rec = spans.SpanRecorder()
    seen = []

    def inner(x):
        return x + 1

    inner_t = rec.wrap("window.inner", inner,
                       lambda r, span, args, result: seen.append((span.name, args, result)))

    def outer(x):
        return inner_t(x) * 2

    outer_t = rec.wrap("observer.outer", outer)
    assert outer_t(3) == 8
    assert outer_t(0) == 2
    names = [(s.name, s.parent) for s in rec.spans]
    assert names == [("observer.outer", -1), ("window.inner", 0),
                     ("observer.outer", -1), ("window.inner", 2)]
    assert all(s.end >= s.start for s in rec.spans)
    assert seen == [("window.inner", (3,), 4), ("window.inner", (0,), 1)]
    assert len(rec.run_id) == 32


def test_recorder_closes_span_when_call_raises():
    rec = spans.SpanRecorder()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        rec.wrap("plant.simulate", boom)()
    assert rec.spans[0].end >= rec.spans[0].start
    assert rec.wrap("plant.corrupt", lambda: 1)() == 1
    assert rec.spans[1].parent == -1


def test_counted_wrapper_counts_and_times():
    rec = spans.SpanRecorder()
    f = rec.counted(spans.EVAL, lambda y, u: y)
    for i in range(5):
        f(i, None)
    assert rec.counts[spans.EVAL] == 5
    assert rec.seconds[spans.EVAL] >= 0.0
    assert rec.spans == []


# ---------------------------------------------------------------------------
# Machine-speed normalisation
# ---------------------------------------------------------------------------

def _pace(starts, seconds):
    p = pace.Pace()
    p.starts = list(starts)
    p.seconds = list(seconds)
    return p


def test_normalised_leaves_samples_out_and_scales_each_stretch():
    nominal = pace.NOMINAL_TICK_S
    # samples at t = 1 and t = 3, at half and a quarter of nominal speed;
    # the unit runs over [0.5, 4]
    p = _pace([1.0, 3.0], [2 * nominal, 4 * nominal])
    raw, norm = p.normalised(0.5, 4.0)
    stretches = [0.5, 2.0 - 2 * nominal, 1.0 - 4 * nominal]
    assert raw == pytest.approx(sum(stretches))
    expected = (stretches[0] / 2     # before the first sample: its speed
                + stretches[1] / 3   # between: the mean of both samples
                + stretches[2] / 4)  # after the last: its speed
    assert norm == pytest.approx(expected)


def test_normalised_at_nominal_speed_equals_raw():
    nominal = pace.NOMINAL_TICK_S
    starts = np.arange(0.0, 2.0, 0.025)
    p = _pace(starts, [nominal] * len(starts))
    raw, norm = p.normalised(0.01, 1.51)
    assert norm == pytest.approx(raw)
    assert raw == pytest.approx(1.5 - 60 * nominal)


def test_normalised_without_samples_inside_uses_neighbours():
    nominal = pace.NOMINAL_TICK_S
    p = _pace([0.0, 10.0], [nominal, 3 * nominal])
    raw, norm = p.normalised(1.0, 2.0)
    assert raw == pytest.approx(1.0)
    assert norm == pytest.approx(1.0 / 2.0)
