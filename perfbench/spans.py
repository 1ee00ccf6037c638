"""In-memory span recorder and the wrappers that attach it to the package.

A traced run replaces the package's public functions, at the module attribute
their callers look up, with wrappers that record one span per call: name,
start, end and the span that was open when the call began.  The four model
evaluators are called millions of times per run, so they get a counter and a
time total instead of spans.  Nothing under ``src/`` changes, and an untraced
run installs no wrapper at all.
"""

import contextlib
import dataclasses
import functools
import os
import time
import uuid
from collections import Counter, defaultdict
from dataclasses import dataclass

EVAL = "model.eval"


@dataclass
class Span:
    span_id: int
    parent: int  # span_id of the enclosing span, -1 at top level
    name: str
    start: float
    end: float = 0.0
    tag: str = ""

    @property
    def seconds(self):
        return self.end - self.start


class SpanRecorder:
    """Spans and counters of one run, kept in memory under one run id."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []
        self.counts = Counter()
        self.seconds = defaultdict(float)
        self._open = []

    def wrap(self, name, fn, on_return=None):
        """``fn`` recording a span per call; ``on_return(rec, span, args, result)``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1].span_id if self._open else -1
            span = Span(len(self.spans), parent, name, time.perf_counter())
            self.spans.append(span)
            self._open.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if on_return is not None:
                on_return(self, span, args, result)
            return result

        return traced

    def counted(self, name, fn):
        """``fn`` adding one to a counter and its duration to a time total per call."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - start
                self.counts[name] += 1

        return counted

    def counting_spec(self, spec):
        """Copy of a SystemSpec whose four evaluators are counted."""
        return dataclasses.replace(
            spec,
            eval_A=self.counted(EVAL, spec.eval_A),
            eval_b=self.counted(EVAL, spec.eval_b),
            eval_C=self.counted(EVAL, spec.eval_C),
            eval_f=self.counted(EVAL, spec.eval_f),
        )

    def write(self, path):
        """Write every span as one CSV row, headed by the run id."""
        with open(path, "w") as fh:
            fh.write(f"# run_id={self.run_id}\n")
            fh.write("span_id,parent,name,start,end,tag\n")
            for s in self.spans:
                fh.write(f"{s.span_id},{s.parent},{s.name},{s.start!r},{s.end!r},{s.tag}\n")


# ---------------------------------------------------------------------------
# Arithmetic on recorded spans
# ---------------------------------------------------------------------------

def self_times(spans):
    """Per span, its duration minus the durations of its direct children.

    The package is single-threaded, so the children of one span are disjoint
    intervals inside it and their union is the sum of their durations.
    """
    child = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    return [s.seconds - child[s.span_id] for s in spans]


def outermost_seconds(spans, match):
    """Total duration of spans accepted by ``match`` that no accepted span encloses."""
    total = 0.0
    for s in spans:
        if not match(s.name):
            continue
        parent = s.parent
        while parent >= 0 and not match(spans[parent].name):
            parent = spans[parent].parent
        if parent < 0:
            total += s.seconds
    return total


def layer_of(name):
    return name.split(".", 1)[0]


# ---------------------------------------------------------------------------
# Wiring into the package
# ---------------------------------------------------------------------------

def _count_nodes(key):
    def hook(rec, span, args, result):
        rec.counts[key] += result.grid.count
    return hook


def _observer_step(rec, span, args, result):
    before = args[2]
    rec.counts["observer.steps"] += 1
    if result.last_reset_applied or result.degenerate_events > before.degenerate_events:
        span.tag = "reset"
        rec.counts["observer.resets_attempted"] += 1
        rec.counts["observer.resets_applied"] += int(result.last_reset_applied)


def _rk4_nodes(rec, span, args, result):
    rec.counts["numerics.rk4_nodes"] += result.shape[0]


def _bytes_written(rec, span, args, result):
    if span.parent < 0 or rec.spans[span.parent].name != "cli.write":
        rec.counts["cli.bytes_written"] += os.path.getsize(args[0])


def _spec_factory(rec, fn):
    @functools.wraps(fn)
    def factory(*args, **kwargs):
        return rec.counting_spec(fn(*args, **kwargs))
    return factory


@contextlib.contextmanager
def instrument(rec, pkg):
    """Install ``rec``'s wrappers on the package for the duration of the block.

    ``pkg`` maps module names (``applications``, ``cli``, ``numerics``,
    ``observer``, ``window``) to the imported modules.  Each entry names the
    module whose attribute the caller looks up, so a function reached from
    two modules is wrapped in both.
    """
    apps, cli, numerics, observer, window = (
        pkg["applications"], pkg["cli"], pkg["numerics"], pkg["observer"], pkg["window"])
    spans = [
        # (module, attribute, span name, hook)
        (apps, "phase_sweep", "applications.phase_sweep", None),
        (apps, "horizon_sweep", "applications.horizon_sweep", None),
        (apps, "freq_closed_form", "applications.closed_form", None),
        (apps, "simulate_plant", "plant.simulate", _count_nodes("plant.nodes")),
        (apps, "corrupt", "plant.corrupt", None),
        (apps, "trapezoid", "numerics.quadrature", None),
        (apps, "cumulative_trapezoid", "numerics.quadrature", None),
        (cli, "main", "cli.main", None),
        (cli, "cmd_simulate", "cli.command", None),
        (cli, "cmd_sweep", "cli.command", None),
        (cli, "cmd_observability", "cli.command", None),
        (cli, "build_system", "cli.parse", None),
        (cli, "sim_section", "cli.parse", None),
        (cli, "build_observer_config", "cli.parse", None),
        (cli, "build_sensor", "cli.parse", None),
        (cli, "build_input", "cli.parse", None),
        (cli, "write_trace_csv", "cli.write", _bytes_written),
        (cli, "write_estimate_csv", "cli.write", _bytes_written),
        (cli, "write_csv", "cli.write", _bytes_written),
        (cli, "write_json", "cli.write", _bytes_written),
        (cli, "simulate_plant", "plant.simulate", _count_nodes("plant.nodes")),
        (cli, "corrupt", "plant.corrupt", None),
        (cli, "run_observer", "observer.run_observer", None),
        (cli, "compute_window", "window.compute_window", _count_nodes("window.nodes")),
        (cli, "gram", "window.gram", None),
        (cli, "observability_certificate", "window.certificate", None),
        (cli, "indistinguishing_input", "window.indistinguishing_input", None),
        (observer, "observer_step", "observer.step", _observer_step),
        (observer, "apply_P", "window.apply_P", None),
        (window, "compute_window", "window.compute_window", _count_nodes("window.nodes")),
        (window, "gram", "window.gram", None),
        (window, "trapezoid", "numerics.quadrature", None),
        (window, "spd_solve", "numerics.spd_solve", None),
        (numerics, "integrate_rk4", "numerics.integrate_rk4", _rk4_nodes),
    ]
    counters = [
        (window, "cholesky_pivots", "numerics.cholesky"),
        (numerics, "cholesky_pivots", "numerics.cholesky"),
    ]
    factories = [
        (apps, "freq_spec"),
        (apps, "reactor_spec"),
        (cli, "make_lti"),
        (cli, "build_scalar_spec"),
        (window.Example26Spec, "to_system_spec"),
    ]
    saved = []
    try:
        for owner, attr, name, hook in spans:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, rec.wrap(name, getattr(owner, attr), hook))
        for owner, attr, name in counters:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, rec.counted(name, getattr(owner, attr)))
        for owner, attr in factories:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, _spec_factory(rec, getattr(owner, attr)))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(rec, units, wall):
    """Per-layer metrics of a traced phase of ``units`` workload units.

    Times and counts are per workload unit, so that runs of different length
    compare; per-call and per-node figures are means over the phase.
    """
    spans = rec.spans
    counts = rec.counts
    selfs = self_times(spans)

    def named(name):
        return outermost_seconds(spans, lambda n: n == name)

    def per_unit(x):
        return x / units

    def mean_self(name, tag):
        vals = [t for s, t in zip(spans, selfs) if s.name == name and s.tag == tag]
        return sum(vals) / len(vals) if vals else 0.0

    def self_of(name):
        return sum(t for s, t in zip(spans, selfs) if s.name == name)

    plant_s = named("plant.simulate")
    window_nodes = counts["window.nodes"]
    compute_s = named("window.compute_window")
    integrated = (counts["plant.nodes"] + window_nodes + counts["observer.steps"]
                  + counts["numerics.rk4_nodes"])
    attempted = counts["observer.resets_attempted"]
    return {
        "plant.simulate_s": per_unit(plant_s),
        "plant.node_us": 1e6 * plant_s / counts["plant.nodes"] if counts["plant.nodes"] else 0.0,
        "plant.nodes": per_unit(counts["plant.nodes"]),
        "plant.corrupt_s": per_unit(named("plant.corrupt")),
        "plant.share": outermost_seconds(spans, lambda n: layer_of(n) == "plant") / wall,
        "model.eval_calls": per_unit(counts[EVAL]),
        "model.eval_calls_per_node": counts[EVAL] / integrated if integrated else 0.0,
        "model.eval_s": per_unit(rec.seconds[EVAL]),
        "window.compute_window_s": per_unit(compute_s),
        "window.compute_window_node_us": 1e6 * compute_s / window_nodes if window_nodes else 0.0,
        "window.compute_window_calls": per_unit(sum(
            1 for s in spans if s.name == "window.compute_window")),
        "window.gram_s": per_unit(named("window.gram")),
        "window.certificate_s": per_unit(named("window.certificate")),
        "window.indistinguishing_input_s": per_unit(named("window.indistinguishing_input")),
        "window.share": outermost_seconds(spans, lambda n: layer_of(n) == "window") / wall,
        "numerics.spd_solve_s": per_unit(named("numerics.spd_solve")),
        "numerics.cholesky_calls": per_unit(counts["numerics.cholesky"]),
        "numerics.integrate_rk4_s": per_unit(named("numerics.integrate_rk4")),
        "numerics.quadrature_s": per_unit(named("numerics.quadrature")),
        "observer.step_self_us": 1e6 * mean_self("observer.step", ""),
        "observer.reset_self_ms": 1e3 * mean_self("observer.step", "reset"),
        "observer.resets_attempted": per_unit(attempted),
        "observer.resets_applied": per_unit(counts["observer.resets_applied"]),
        "observer.reset_applied_ratio": (counts["observer.resets_applied"] / attempted
                                         if attempted else 0.0),
        "observer.run_observer_s": per_unit(named("observer.run_observer")),
        "applications.phase_sweep_self_s": per_unit(self_of("applications.phase_sweep")),
        "applications.closed_form_s": per_unit(named("applications.closed_form")),
        "applications.horizon_sweep_s": per_unit(named("applications.horizon_sweep")),
        "cli.parse_s": per_unit(self_of("cli.main") + named("cli.parse")),
        "cli.write_s": per_unit(named("cli.write")),
        "cli.bytes_written": per_unit(counts["cli.bytes_written"]),
    }
