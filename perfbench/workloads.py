"""The benchmark's three workloads and the output checks that decide failures.

Each workload builds its inputs from a seeded generator when it is created
(the set-up), then repeats a fixed unit of work on demand:

  * PhaseSweep: one ``applications.phase_sweep`` call of 16 seed-drawn phases
    on the Figure 1 scenario.  Plant simulation is almost all of it.
  * ReactorStream: one closed-loop episode of the on-line reduced-order
    observer on the canonical reactor, ten reset windows long, fed sample by
    sample from plant traces made during set-up.  Window resets and flow
    steps are all of it.
  * CliConfigs: one in-process ``cli.main`` pass over the six shipped configs
    that are not phase sweeps.  It mixes every layer, plus parsing and the
    CSV/JSON writers.

``unit()`` is what the benchmark times.  It returns the unit's kind and its
outputs; ``check(kind, outcome)`` runs after it, untimed, and returns the
(attempted, failed) operations of that unit.  One pass is one unit of each
kind in ``KINDS``; ``windows[kind]`` is the number of windows one unit of
that kind reconstructs.
"""

import io
import json
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import measures

# Criterion 2's upper band: no phase of the Figure 1 scenario may do worse.
SWEEP_MAX_REL_ERROR = 0.079
# Criterion 1: scaled state error once the first window has been reset.
DEADBEAT_TOL = 1e-4
# Criterion 4's band for the r = 3 window of the Figure 4 horizon sweep.
HORIZON_R3_BAND = (0.0005, 0.0009)


def _report(exc_where):
    print(f"perfbench: operation failed in {exc_where}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# Output checks (pure functions of the outputs, so tests can force failures)
# ---------------------------------------------------------------------------

def check_sweep(omega_hats, omega, count):
    """Failed windows of a phase sweep of ``count`` phases.

    ``omega_hats`` is None when the call raised; then every window failed.
    A returned estimate implies z2 < 0, since ``omega_hat`` raises otherwise.
    """
    if omega_hats is None or len(omega_hats) != count:
        return count
    est = np.asarray(omega_hats, dtype=float)
    ok = np.isfinite(est) & (np.abs(est - omega) / omega <= SWEEP_MAX_REL_ERROR)
    return int(count - np.count_nonzero(ok))


def check_stream(scaled_errors, first_reset, reset_applied, steps_run, steps):
    """Failed steps of one observer episode.

    A step fails when it never ran, when it comes at or after the first reset
    and its scaled error exceeds DEADBEAT_TOL, or when it is a reset step
    whose reset was not applied.  ``scaled_errors[j]`` and
    ``reset_applied[j]`` refer to step j + 1.
    """
    errors = np.asarray(scaled_errors[:steps_run], dtype=float)
    bad = np.zeros(steps_run, dtype=bool)
    bad[first_reset - 1:] = ~(errors[first_reset - 1:] <= DEADBEAT_TOL)
    bad |= np.asarray(reset_applied[:steps_run]) == 0
    return int(np.count_nonzero(bad)) + (steps - steps_run)


def check_cli(command, exit_code, payload):
    """Whether one CLI invocation's outputs pass.

    ``payload`` is the parsed summary (simulate), observability report, or
    list of sweep rows (horizon sweep); None when the file was missing.
    """
    if exit_code != 0 or payload is None:
        return False
    if command == "simulate":
        err = payload.get("max_post_window_relative_error")
        return (payload.get("degenerate_events") == 0 and err is not None
                and err <= DEADBEAT_TOL)
    if command == "observability":
        return payload.get("certificate") == "degenerate"
    rows = {round(r, 9): e for r, _, e in payload}
    lo, hi = HORIZON_R3_BAND
    return 3.0 in rows and lo <= rows[3.0] <= hi


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class PhaseSweep:
    """Figures 1-3 traffic: phase sweeps of one noisy sinusoid window each."""

    PHASES = 16
    DRAWS = 256  # sweeps' worth of phases drawn at set-up, reused in turn
    KINDS = ("sweep",)

    def __init__(self, pkg, rng, root, workdir, pace):
        self.apps = pkg["applications"]
        self.scenario = self.apps.FrequencyScenario(
            amplitude=2.0, omega=3.0, noise_amplitude=0.2, noise_frequency=10.0,
            r=1.0, h=5e-4)
        self.phases = rng.uniform(0.0, 2.0 * np.pi, size=(self.DRAWS, self.PHASES))
        self.windows = {"sweep": self.PHASES}
        self._next = 0

    def unit(self):
        phases = self.phases[self._next % self.DRAWS]
        self._next += 1
        try:
            _, omegas, _, _ = self.apps.phase_sweep(self.scenario, phases)
        except Exception:
            _report("phase_sweep")
            return "sweep", None
        return "sweep", omegas

    def check(self, kind, omegas):
        return self.PHASES, check_sweep(omegas, self.scenario.omega, self.PHASES)


@dataclass(frozen=True)
class Episode:
    z0: np.ndarray
    y: np.ndarray  # (count, 1) measured temperature
    u: np.ndarray  # (count, 1) zero input
    x_true: np.ndarray  # (count, 2)


@dataclass
class StreamLatency:
    """Latencies of ``observer_step`` calls, in seconds, without sampling pauses."""

    steps: measures.LatencyHistogram = field(default_factory=measures.LatencyHistogram)
    resets: list = field(default_factory=list)  # calls that fired a reset
    misses: int = 0  # calls of either kind longer than the sample period


@dataclass
class EpisodeOutcome:
    episode: Episode
    z: np.ndarray  # (count, 2) estimate after each step
    reset_applied: np.ndarray  # per step: 0 for an unapplied reset, else 1
    steps_run: int


class ReactorStream:
    """On-line reduced-order observer on the reactor, one sample per call."""

    R = 1.0 / 3.0
    STEPS_PER_WINDOW = 250
    WINDOWS = 10
    EPISODES = 4  # plant traces made at set-up, replayed in turn
    KINDS = ("episode",)

    def __init__(self, pkg, rng, root, workdir, pace):
        self.apps = pkg["applications"]
        self.observer = pkg["observer"]
        plant = pkg["plant"]
        self.pace = pace
        self.params = self.apps.canonical_reactor_params()
        self.h = self.R / self.STEPS_PER_WINDOW
        self.config = self.observer.ObserverConfig(r=self.R, h=self.h)
        spec = self.apps.reactor_spec(self.params)
        self.episodes = []
        for _ in range(self.EPISODES):
            x0 = np.array([rng.uniform(0.2, 0.9), rng.uniform(0.2, 2.5)])
            T0 = rng.uniform(306.0, 330.0)
            z0 = np.array([rng.uniform(0.2, 0.9), rng.uniform(0.2, 2.5)])
            trace = plant.simulate_plant(
                spec, None, plant.SimConfig(t_end=self.WINDOWS * self.R, h=self.h,
                                            x0=x0, y0=[T0]))
            self.episodes.append(Episode(z0=z0, y=trace.y_meas, u=trace.u,
                                         x_true=trace.x_true))
        self.steps = self.WINDOWS * self.STEPS_PER_WINDOW
        self.windows = {"episode": self.WINDOWS}
        self.signal_s = {"episode": self.steps * self.h}  # signal seconds an episode covers
        self.latency = StreamLatency()
        self._next = 0

    def unit(self):
        ep = self.episodes[self._next % self.EPISODES]
        self._next += 1
        M = self.STEPS_PER_WINDOW
        cfg = self.config
        # Looked up per episode, so that a traced run gets counting evaluators.
        spec = self.apps.reactor_spec(self.params)
        step = self.observer.observer_step
        z = np.empty((self.steps + 1, 2))
        applied = np.ones(self.steps, dtype=np.int8)
        latency = np.empty(self.steps)
        clock = time.perf_counter
        pace = self.pace
        y, u = ep.y, ep.u
        j = 0
        try:
            snap = self.observer.observer_init(spec, cfg, ep.z0, t0=0.0, y0=y[0], u0=u[0])
            z[0] = snap.z
            for j in range(1, self.steps + 1):
                paused = pace.paused
                start = clock()
                snap = step(spec, cfg, snap, y[j], u[j - 1])
                latency[j - 1] = clock() - start - (pace.paused - paused)
                if j % M == 0:
                    applied[j - 1] = snap.last_reset_applied
                z[j] = snap.z
        except Exception:
            _report(f"observer_step at node {j}")
            steps_run = max(j - 1, 0)
        else:
            steps_run = self.steps
        self._record(latency[:steps_run])
        return "episode", EpisodeOutcome(ep, z, applied, steps_run)

    def _record(self, latency):
        resets = np.arange(1, latency.size + 1) % self.STEPS_PER_WINDOW == 0
        self.latency.steps.add(latency[~resets])
        self.latency.resets.extend(latency[resets].tolist())
        self.latency.misses += measures.deadline_misses(latency, self.h)

    def check(self, kind, out):
        x = out.episode.x_true[1:]
        err = (np.linalg.norm(out.z[1:] - x, axis=1)
               / (1.0 + np.linalg.norm(x, axis=1)))
        failed = check_stream(err, self.STEPS_PER_WINDOW, out.reset_applied,
                              out.steps_run, self.steps)
        return self.steps, failed


class CliConfigs:
    """Reproduction traffic: the shipped non-sweep-phase configs through ``cli.main``.

    Each unit is one invocation; the configs take turns in the order below.
    """

    # (config, command arguments, output file the check reads)
    JOBS = (
        ("scalar_oracle", ["simulate"], "_summary.json"),
        ("frequency_clean", ["simulate"], "_summary.json"),
        ("reactor", ["simulate"], "_summary.json"),
        ("example26", ["observability"], "_observability.json"),
        ("reactor_lumped", ["observability"], "_observability.json"),
        ("figure4", ["sweep", "--mode", "horizon"], "_sweep.csv"),
    )
    KINDS = tuple(name for name, _, _ in JOBS)

    def __init__(self, pkg, rng, root, workdir, pace):
        self.cli = pkg["cli"]
        self.workdir = Path(workdir)
        self.windows = {}
        self.paths = {}
        for name, argv, _ in self.JOBS:
            cfg = json.loads((Path(root) / "configs" / f"{name}.json").read_text())
            _perturb(name, cfg, rng)
            path = self.workdir / f"{name}.json"
            path.write_text(json.dumps(cfg))
            self.paths[name] = str(path)
            Path(self._prefix(name)).parent.mkdir(parents=True, exist_ok=True)
            if argv[0] == "simulate":
                t_end, r = cfg["sim"]["t_end"], cfg["observer"]["r"]
                self.windows[name] = int(t_end / r + 1e-9)
            elif argv[0] == "observability":
                self.windows[name] = 1
            else:
                self.windows[name] = len(cfg["sweep"]["r_values"])
        self._next = 0

    def _prefix(self, name):
        return str(self.workdir / "out" / name / "run")

    def unit(self):
        name, argv, _ = self.JOBS[self._next % len(self.JOBS)]
        self._next += 1
        try:
            with redirect_stdout(io.StringIO()):
                code = self.cli.main(argv + [self.paths[name], "--out-prefix",
                                             self._prefix(name)])
        except Exception:
            _report(f"cli {name}")
            code = None
        return name, code

    def check(self, name, code):
        command, suffix = next((argv[0], suffix) for job, argv, suffix in self.JOBS
                               if job == name)
        path = Path(self._prefix(name) + suffix)
        payload = None
        if path.exists():
            text = path.read_text()
            if suffix.endswith(".json"):
                payload = json.loads(text)
            else:
                payload = [tuple(float(v) for v in line.split(","))
                           for line in text.splitlines()[1:]]
        for out in path.parent.iterdir():
            out.unlink()
        return 1, int(not check_cli(command, code, payload))


def _perturb(name, cfg, rng):
    """Seed-drawn initial conditions, in ranges where the output checks hold.

    figure4 is left as shipped: criterion 4's band is pinned at its phase.
    """
    sim = cfg.get("sim", {})
    obs = cfg.get("observer", {})
    if name == "scalar_oracle":
        sim["x0"] = [rng.uniform(1.5, 2.5)]
        sim["y0"] = [rng.uniform(-0.5, 0.5)]
        obs["z0"] = [rng.uniform(-1.0, 1.0)]
    elif name == "frequency_clean":
        scn = cfg["system"]["scenario"]
        scn["phase"] = rng.uniform(0.8, 1.2)
        obs["w0"] = [scn["amplitude"] * np.sin(scn["phase"])]
        obs["z0"] = [rng.uniform(0.5, 1.5), rng.uniform(-5.0, -3.0)]
    elif name == "reactor":
        sim["x0"] = [rng.uniform(0.2, 0.9), rng.uniform(0.2, 2.5)]
        sim["y0"] = [rng.uniform(306.0, 330.0)]
        obs["z0"] = [rng.uniform(0.2, 0.9), rng.uniform(0.2, 2.5)]
    elif name == "example26":
        sim["x0"] = [rng.uniform(0.3, 0.7), rng.uniform(-0.5, -0.1)]
        sim["y0"] = [rng.uniform(0.1, 0.3)]
    elif name == "reactor_lumped":
        sim["x0"] = [rng.uniform(0.5, 0.95), rng.uniform(0.2, 2.0)]
        sim["y0"] = [rng.uniform(306.0, 330.0)]


WORKLOADS = {
    "phase_sweep": PhaseSweep,
    "reactor_stream": ReactorStream,
    "cli_configs": CliConfigs,
}
