"""One workload in its own process: set up, measure, check, report as JSON.

Started by ``run.py``, never by hand.  The last line of standard output is a
JSON object; the package's own prints are kept off it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --spawned-at WALLCLOCK --workdir DIR [--setup-only]
"""

import argparse
import contextlib
import json
import resource
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import measures
import pace


@dataclass
class Phase:
    """Units run back to back; times are per kind of unit, in seconds."""

    raw: dict = field(default_factory=lambda: defaultdict(list))
    normalised: dict = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0

    def units(self):
        return sum(len(v) for v in self.raw.values())

    @staticmethod
    def pass_seconds(times):
        """One pass: the median time of each kind of unit, summed over kinds."""
        return sum(measures.median(v) for v in times.values())

    @staticmethod
    def busy(times):
        return sum(sum(v) for v in times.values())

    def per_second(self, per_kind, times):
        """Rate of a per-unit quantity over the time the units took."""
        done = sum(per_kind[kind] * len(v) for kind, v in times.items())
        return done / self.busy(times)


def run_phase(wl, seconds, speed=None):
    """Repeat whole passes of ``wl`` until ``seconds`` have passed (at least one).

    With ``speed``, the machine's speed is sampled throughout and each unit
    gets a normalised time; raw times leave the sampling pauses out.
    """
    phase = Phase()
    clock = time.perf_counter
    units = []
    with speed.sampling() if speed else contextlib.nullcontext():
        began = clock()
        while True:
            for _ in wl.KINDS:
                start = clock()
                kind, outcome = wl.unit()
                units.append((kind, start, clock()))
                attempted, failed = wl.check(kind, outcome)
                phase.attempted += attempted
                phase.failed += failed
            if clock() - began >= seconds:
                break
        if speed:
            speed.tick()
    for kind, start, end in units:
        if speed:
            raw, normalised = speed.normalised(start, end)
            phase.normalised[kind].append(normalised)
        else:
            raw = end - start
        phase.raw[kind].append(raw)
    return phase


def stream_metrics(wl, phase):
    """Latency and pace of the observer stream so far, in raw wall time."""
    lat = getattr(wl, "latency", None)
    if lat is None or lat.steps.n == 0 or not lat.resets:
        return {}
    level, reset_tail = measures.tail(lat.resets)
    return {
        "stream_step_p50_us": 1e6 * lat.steps.percentile("50"),
        "stream_step_p99_us": 1e6 * lat.steps.percentile("99"),
        "stream_reset_p50_ms": 1e3 * measures.median(lat.resets),
        "stream_reset_tail_ms": 1e3 * reset_tail if reset_tail is not None else 0.0,
        "stream_reset_tail_pct": level if level is not None else 0.0,
        "stream_deadline_miss_ratio": lat.misses / (lat.steps.n + len(lat.resets)),
        "stream_realtime_factor": phase.per_second(wl.signal_s, phase.raw),
        "stream_steps": lat.steps.n,
        "stream_resets": len(lat.resets),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    spawned = time.perf_counter() - (time.time() - args.spawned_at)
    speed = pace.Pace()
    with speed.sampling():
        root = Path.cwd()
        sys.path.insert(0, str(root / "src"))
        import numpy as np

        from deadbeat_observer import applications, cli, numerics, observer, plant, window

        import spans
        from workloads import WORKLOADS, CliConfigs

        pkg = {"applications": applications, "cli": cli, "numerics": numerics,
               "observer": observer, "plant": plant, "window": window}
        wl = WORKLOADS[args.workload](pkg, np.random.default_rng(args.seed), root,
                                      args.workdir, speed)
        ready = time.perf_counter()
        speed.tick()
    setup_raw, setup_normalised = speed.normalised(spawned, ready)
    report = {"setup_s": setup_raw, "setup_normalised_s": setup_normalised,
              "numpy": np.__version__}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    if not args.trace:
        phase = run_phase(wl, args.seconds, speed)
        report.update(
            attempted=phase.attempted,
            failed=phase.failed,
            fail_ratio=measures.fail_ratio(phase.attempted, phase.failed),
            units=phase.units(),
            unit_times_s=phase.raw,
            unit_normalised_s=phase.normalised,
            speed_samples=len(speed.seconds),
            speed_sample_median_s=measures.median(speed.seconds),
            run_s=phase.pass_seconds(phase.normalised),
            run_raw_s=phase.pass_seconds(phase.raw),
            windows_per_s=phase.per_second(wl.windows, phase.normalised),
            windows_per_raw_s=phase.per_second(wl.windows, phase.raw),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            stream=stream_metrics(wl, phase),
        )
        print(json.dumps(report))
        return 0

    # Traced run: an untraced half gives the baseline for the tracing
    # overhead and the stream latencies; the traced half gives the layers.
    # Neither samples the machine's speed, so no sampling lands in a span,
    # and the halves are adjacent in time, so their raw times compare.
    plain = run_phase(wl, args.seconds / 2)
    stream = stream_metrics(wl, plain)
    rec = spans.SpanRecorder()
    with spans.instrument(rec, pkg):
        traced = run_phase(wl, args.seconds / 2)
    passes = traced.units() / len(wl.KINDS)
    layers = spans.layer_metrics(rec, passes, traced.busy(traced.raw))
    layers["trace.overhead_ratio"] = (traced.pass_seconds(traced.raw)
                                      / plain.pass_seconds(plain.raw))
    for key in ("stream_step_p50_us", "stream_step_p99_us", "stream_reset_p50_ms",
                "stream_reset_tail_ms", "stream_reset_tail_pct",
                "stream_deadline_miss_ratio", "stream_realtime_factor"):
        layers[key] = stream.get(key, 0.0)
    for name in CliConfigs.KINDS:
        times = plain.raw.get(name)
        layers[f"cli.{name}_s"] = measures.median(times) if times else 0.0
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"{args.workload}-seed{args.seed}.spans.csv"
    rec.write(spans_file)
    report.update(
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        fail_ratio=measures.fail_ratio(plain.attempted + traced.attempted,
                                       plain.failed + traced.failed),
        units=traced.units(),
        run_id=rec.run_id,
        spans=len(rec.spans),
        spans_file=str(spans_file.relative_to(root)),
        layers=layers,
        stream=stream,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
