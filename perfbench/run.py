"""Benchmark of the deadbeat-observer package: one workload, one seed, one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload phase_sweep --seed 1 --seconds 20 --trace 0

Workloads, metrics and bounds are declared in ``BENCHMARK.json`` at the root
of the checkout; ``perfbench/README.md`` explains them.  The package is
imported from ``src/`` of the checkout, so nothing is installed or built.

The workload runs in a process of its own with BLAS/OpenMP pinned to one
thread, so its set-up time and peak memory are its own.  With ``--trace 0``
more processes only set the workload up (at least 4, and for at least 5 s),
and ``setup_s`` is the median over all of them.  With ``--trace 1`` the workload process also records spans
and reports the per-layer metrics instead.

Standard output ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it is a
JSON record of the machine, versions, source revision, seed and the details
behind the metrics.  The exit code is 0 whenever a result was printed, even
one with failed operations; it is non-zero, with no result, when the
checkout or the workload process is unusable.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import measures
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4  # set-up-only processes per untraced run at least, besides the measured one
SETUP_BUDGET = 5.0  # seconds of set-up-only processes to run when they are quick
TIME_LIMIT = 170.0  # seconds a whole run, set-up processes included, may take
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def _worker(args, root, workdir, deadline, setup_only):
    """Run one worker process to completion and return its JSON report."""
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-at", repr(time.time()), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("workload process did not finish in time") from exc
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _source_revision(root):
    """Git commit when the checkout is a repository, and a digest of ``src/``."""
    commit = None
    if (root / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                                 stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            commit = out.stdout.decode().strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return commit, digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _metrics(declared, values):
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    deadline = time.monotonic() + TIME_LIMIT
    root = Path.cwd()
    spec_file = root / "BENCHMARK.json"
    if not (root / "src" / "deadbeat_observer" / "__init__.py").is_file() \
            or not (root / "configs").is_dir() or not spec_file.is_file():
        print("perfbench: run from the root of a deadbeat-observer checkout "
              "(needs src/deadbeat_observer, configs/ and BENCHMARK.json)", file=sys.stderr)
        return 2
    declared = json.loads(spec_file.read_text())

    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        setups = []
        if not args.trace:
            probing = time.monotonic()
            while (len(setups) < SETUP_PROBES
                   or time.monotonic() - probing < SETUP_BUDGET):
                setups.append(_worker(args, root, workdir, deadline, True))
        report = _worker(args, root, workdir, deadline, False)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    setups.append(report)

    commit, src_digest = _source_revision(root)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": report["numpy"],
        "commit": commit,
        "src_sha256": src_digest,
        "setup_raw_s": [s["setup_s"] for s in setups],
        "setup_normalised_s": [s["setup_normalised_s"] for s in setups],
        "units": report["units"],
        "fail_ratio": report["fail_ratio"],
        "stream": report["stream"],
    }
    try:
        if args.trace:
            record.update(run_id=report["run_id"], spans=report["spans"],
                          spans_file=report["spans_file"])
            metrics = _metrics(declared["per_layer"], report["layers"])
        else:
            metrics = _metrics(declared["end_to_end"], {
                "setup_s": measures.median([s["setup_normalised_s"] for s in setups]),
                "run_s": report["run_s"],
                "peak_rss_mb": report["peak_rss_mb"],
                "windows_per_s": report["windows_per_s"],
            })
            record.update({key: report[key] for key in (
                "run_raw_s", "windows_per_raw_s", "unit_times_s", "unit_normalised_s",
                "speed_samples", "speed_sample_median_s")})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"perfbench_record": record}))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
