"""Command-line front end: plant/observer runs, observability reports, sweeps.

Configs are plain JSON; all outputs are deterministic CSV/JSON files with
12+ significant digits, Unix newlines and a mandatory header row, so that
byte-identical reruns can serve as a regression contract.
"""

import argparse
import json
import math
import sys
from dataclasses import fields

import numpy as np

from . import applications as apps
from .errors import (
    DeadbeatError,
    DomainExit,
    GramDegenerate,
    NonFiniteState,
)
from .model import make_lti, sampled_input, SystemSpec
from .numerics import DEFAULT_REL_THRESHOLD, Grid
from .observer import FULL, ObserverConfig, run_observer
from .plant import SensorModel, SimConfig, corrupt, simulate_plant
from .window import (
    Degenerate,
    Example26Spec,
    IoWindow,
    compute_window,
    determinant_condition,
    gram,
    indistinguishing_input,
    observability_certificate,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_DEGENERATE = 4


class ConfigError(Exception):
    pass


def _require(cfg, key, context="config"):
    if key not in cfg:
        raise ConfigError(f"missing field `{context}.{key}`")
    return cfg[key]


# Known fields per section, and per system kind besides `kind`
_FIELDS = {
    "config": ("system", "sim", "observer", "sensor", "input", "sweep", "output_prefix"),
    "sim": ("t_end", "h", "x0", "y0"),
    "observer": ("r", "mode", "z0", "w0", "rel_threshold", "on_degenerate"),
    "sensor": tuple(f.name for f in fields(SensorModel)),
    "input": ("kind", "value"),
    "sweep": ("mode", "phases", "r_values"),
}
_SYSTEM_FIELDS = {
    "frequency": ("scenario",),
    "reactor": ("params",),
    "lti": ("A", "b", "C", "f"),
    "scalar": ("a0", "f0", "input_gain", "c0", "c1"),
    "example26": (),
}


def _object(name, section):
    if not isinstance(section, dict):
        raise ConfigError(f"`{name}` must be an object")
    return section


def _check_fields(name, section, known):
    """Raise ConfigError unless ``section`` is an object whose fields are all in ``known``."""
    unknown = sorted(set(_object(name, section)).difference(known))
    if unknown:
        raise ConfigError(f"unknown field `{name}.{unknown[0]}`")


def _reject_constant(name):
    raise ConfigError(f"non-finite number {name} in config")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"number {text} in config overflows a float")
    return value


def load_config(path):
    """Parse a JSON config (every number a float) and check the shape of every section:
    a section that is not an object, an unknown field or kind and a non-finite or
    overflowing number raise ConfigError, so the build_* functions only read it."""
    with open(path) as fh:
        cfg = json.load(fh, parse_constant=_reject_constant,
                        parse_float=_finite_float, parse_int=_finite_float)
    for name, known in _FIELDS.items():
        _check_fields(name, cfg if name == "config" else cfg.get(name, {}), known)
    system = _object("system", _require(cfg, "system"))
    kind = _require(system, "kind", "system")
    if not isinstance(kind, str) or kind not in _SYSTEM_FIELDS:
        raise ConfigError(f"unknown system.kind {kind!r}")
    _check_fields("system", system, ("kind",) + _SYSTEM_FIELDS[kind])
    if kind == "frequency":
        _check_fields("system.scenario", system.get("scenario", {}),
                      tuple(f.name for f in fields(apps.FrequencyScenario)))
    if kind == "reactor" and system.get("params", "canonical") != "canonical":
        _check_fields("system.params", system["params"],
                      tuple(f.name for f in fields(apps.ReactorParams)))
    input_kind = cfg.get("input", {}).get("kind", "constant")
    if input_kind != "constant":
        raise ConfigError(f"unknown input.kind {input_kind!r}")
    return cfg


def _exp(y):
    """e**y, or inf where that overflows a float (math.exp raises there)."""
    try:
        return math.exp(y)
    except OverflowError:
        return math.inf


def canonical_example26():
    return Example26Spec(
        a1=lambda y: -1.0,
        a2=lambda y: -2.0,
        c1=_exp,
        c2=lambda y: 1.0,
        kappa=lambda y: 1.0,
    )


def build_scalar_spec(sys_cfg):
    """Scalar plant x' = a0 x, y' = f0 + g u + (c0 + c1 y) x."""
    a0 = float(sys_cfg.get("a0", 0.0))
    f0 = float(sys_cfg.get("f0", 0.0))
    g = float(sys_cfg.get("input_gain", 0.0))
    c0 = float(sys_cfg.get("c0", 1.0))
    c1 = float(sys_cfg.get("c1", 0.0))
    A, b = np.array([[a0]]), np.zeros(1)

    def eval_batch(Y, U):
        N = Y.shape[0]
        return (np.full((N, 1, 1), a0), np.zeros((N, 1)),
                (c0 + c1 * Y[:, :1])[:, :, None], f0 + g * U[:, :1])

    return SystemSpec(
        n=1, k=1, m=1,
        eval_A=lambda y, u: A,
        eval_b=lambda y, u: b,
        eval_C=lambda y: np.array([[c0 + c1 * y[0]]]),
        eval_f=lambda y, u: np.array([f0 + g * u[0]]),
        eval_batch=eval_batch,
    )


def build_system(cfg):
    """Returns (spec, system_kind, extras) from the `system` section of a loaded config."""
    sys_cfg = cfg["system"]
    kind = sys_cfg["kind"]
    extras = {}
    if kind == "frequency":
        scn = apps.FrequencyScenario(
            **{k: float(v) for k, v in sys_cfg.get("scenario", {}).items()})
        extras["scenario"] = scn
        return apps.freq_spec(), kind, extras
    if kind == "reactor":
        params = sys_cfg.get("params", "canonical")
        if params == "canonical":
            p = apps.canonical_reactor_params()
        else:
            p = apps.ReactorParams(**{k: float(v) for k, v in params.items()})
        return apps.reactor_spec(p), kind, extras
    if kind == "lti":
        blocks = (_require(sys_cfg, key, "system") for key in _SYSTEM_FIELDS["lti"])
        return make_lti(*blocks), kind, extras
    if kind == "scalar":
        return build_scalar_spec(sys_cfg), kind, extras
    ex = canonical_example26()
    extras["example26"] = ex
    return ex.to_system_spec(), kind, extras


def build_observer_config(cfg):
    """ObserverConfig from `observer` and `sim.h`; r must be an integer multiple (>= 2) of h."""
    obs_cfg = cfg.get("observer", {})
    r = float(_require(obs_cfg, "r", "observer"))
    h = float(_require(cfg.get("sim", {}), "h", "sim"))
    try:
        multiple = Grid.from_span(0.0, r, h).count >= 3
    except ValueError:
        multiple = False
    if not multiple:
        raise ConfigError(
            f"`observer.r` ({r}) must be an integer multiple (>= 2) of `sim.h` ({h})")
    return ObserverConfig(
        r=r, h=h,
        mode=obs_cfg.get("mode", "reduced"),
        rel_threshold=float(obs_cfg.get("rel_threshold", DEFAULT_REL_THRESHOLD)),
        on_degenerate=obs_cfg.get("on_degenerate", "hold"),
    )


def build_sensor(cfg):
    return SensorModel(**{k: float(v) for k, v in cfg.get("sensor", {}).items()})


def build_input(cfg):
    """The `input` section as a function of time, or None (the zero input) without one."""
    inp = cfg.get("input")
    if inp is None:
        return None
    value = np.atleast_1d(np.asarray(inp.get("value", [0.0]), dtype=float))
    return lambda t: value


def _initial_state(sim, extras, kind):
    """(x0, y0) of the `sim` section; a frequency scenario supplies them when x0 is absent."""
    if kind == "frequency" and "x0" not in sim:
        return extras["scenario"].initial_state()
    return (np.asarray(_require(sim, "x0", "sim"), dtype=float),
            np.atleast_1d(np.asarray(_require(sim, "y0", "sim"), dtype=float)))


def sim_section(cfg, extras, kind):
    sim = cfg.get("sim", {})
    h = float(_require(sim, "h", "sim"))
    t_end = float(_require(sim, "t_end", "sim"))
    x0, y0 = _initial_state(sim, extras, kind)
    return SimConfig(t_end=t_end, h=h, x0=x0, y0=y0)


def write_csv(path, header, columns, flags=0):
    """Write the header, then one row per entry of the stacked ``columns``.

    Every value is written ``%.12e``, except in the last ``flags`` columns,
    which hold 0/1 flags and are written ``%d``.
    """
    table = np.column_stack(columns)
    fmt = ",".join(["%.12e"] * (table.shape[1] - flags) + ["%d"] * flags) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(fmt % tuple(row) for row in table.tolist())


def _write_node_csv(path, est, full_order, named):
    """Per node: t, each (name, (count, .) array) of ``named``, z (and w if full), the flags."""
    named = named + [("z", est.z)] + ([("w", est.w)] if full_order else [])
    header = (["t"] + [f"{name}{i}" for name, a in named for i in range(a.shape[1])]
              + ["reset_flag", "degenerate_flag"])
    write_csv(path, header, [est.grid.times()] + [a for _, a in named]
              + [est.reset_flags, est.degenerate_flags], flags=2)


def write_trace_csv(path, trace, est, full_order):
    _write_node_csv(path, est, full_order, [("x_true", trace.x_true), ("y_true", trace.y_true),
                                            ("y_meas", trace.y_meas), ("u", trace.u)])


def write_estimate_csv(path, est, full_order):
    _write_node_csv(path, est, full_order, [])


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(cfg, prefix):
    spec, kind, extras = build_system(cfg)
    sim_cfg = sim_section(cfg, extras, kind)
    obs_cfg = build_observer_config(cfg)
    sensor = build_sensor(cfg)
    signal = build_input(cfg)

    trace = simulate_plant(spec, signal, sim_cfg)
    trace = corrupt(trace, sensor)
    obs = cfg.get("observer", {})
    est = run_observer(spec, obs_cfg, trace, _require(obs, "z0", "observer"), obs.get("w0"))

    full = obs_cfg.mode == FULL
    write_trace_csv(f"{prefix}_trace.csv", trace, est, full)
    write_estimate_csv(f"{prefix}_estimate.csv", est, full)

    post = np.arange(trace.grid.count) >= obs_cfg.steps_per_window
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite error is reported as null
        err = np.linalg.norm(est.z - trace.x_true, axis=1)
        scale = 1.0 + np.linalg.norm(trace.x_true, axis=1)
        max_rel = float(np.max(err[post] / scale[post])) if np.any(post) else None
    if max_rel is not None and not math.isfinite(max_rel):
        max_rel = None
    summary = {
        "system": kind,
        "mode": obs_cfg.mode,
        "r": obs_cfg.r,
        "h": sim_cfg.h,
        "t_end": sim_cfg.t_end,
        "degenerate_events": est.degenerate_events,
        "max_post_window_relative_error": max_rel,
    }
    if kind == "frequency":
        z2 = float(est.z[-1, 1])
        summary["omega_hat"] = float(np.sqrt(-z2)) if z2 < 0 else None
    write_json(f"{prefix}_summary.json", summary)
    return EXIT_OK


def cmd_sweep(cfg, prefix, mode):
    spec, kind, extras = build_system(cfg)
    if kind != "frequency":
        raise ConfigError("sweeps require `system.kind` = \"frequency\"")
    scn = extras["scenario"]
    sweep_cfg = cfg.get("sweep", {})
    mode = mode or sweep_cfg.get("mode", "phase")
    if mode == "phase":
        values, omegas, errors, max_err = apps.phase_sweep(scn, sweep_cfg.get("phases"))
        label = "phase"
    elif mode == "horizon":
        r_values = sweep_cfg.get("r_values")
        if r_values is None:
            raise ConfigError("missing field `sweep.r_values` for horizon sweeps")
        values, omegas, errors = apps.horizon_sweep(scn, np.asarray(r_values, dtype=float))
        max_err = float(np.max(errors))
        label = "r"
    else:
        raise ConfigError(f"unknown sweep mode {mode!r}")

    write_csv(f"{prefix}_sweep.csv", [label, "omega_hat", "rel_error"], [values, omegas, errors])
    write_json(f"{prefix}_sweep_summary.json", {
        "mode": mode,
        "omega": scn.omega,
        "noise_amplitude": scn.noise_amplitude,
        "noise_frequency": scn.noise_frequency,
        "max_rel_error": max_err,
    })
    return EXIT_OK


def cmd_observability(cfg, prefix):
    spec, kind, extras = build_system(cfg)
    obs_cfg = build_observer_config(cfg)
    r, h = obs_cfg.r, obs_cfg.h
    grid = Grid(0.0, h, obs_cfg.steps_per_window + 1)
    x0, y0 = _initial_state(cfg.get("sim", {}), extras, kind)
    if kind == "example26":
        u_s, _ = indistinguishing_input(extras["example26"], x0, y0, grid)
        signal = sampled_input(grid, u_s)
    else:
        signal = build_input(cfg)
    trace = simulate_plant(spec, signal, SimConfig(t_end=r, h=h, x0=x0, y0=y0))
    trace = corrupt(trace, build_sensor(cfg))

    window = IoWindow(grid=trace.grid, y_samples=trace.y_meas, u_samples=trace.u)
    wc = compute_window(spec, window)
    gs = gram(wc)
    verdict = observability_certificate(gs, obs_cfg.rel_threshold)
    eigvals = verdict.eigenvalues
    cond = eigvals[-1] / eigvals[0] if eigvals[0] > 0 else np.inf
    report = {
        "system": kind,
        "r": r,
        "h": h,
        "eigenvalues": [float(v) for v in eigvals],
        "trace": float(np.trace(gs.Q)),
        "smallest_pivot": float(verdict.smallest_pivot),
        "condition_estimate": float(cond) if np.isfinite(cond) else None,
        "certificate": ("strongly_observable"
                        if not isinstance(verdict, Degenerate) else "degenerate"),
    }
    if isinstance(verdict, Degenerate):
        report["null_direction"] = [float(v) for v in verdict.null_direction]
    if spec.k == 1:
        report["det_nodes"] = [round(i * (grid.count - 1) / max(spec.n - 1, 1))
                               for i in range(spec.n)]
        report["determinant_condition"] = determinant_condition(spec, window, wc,
                                                                report["det_nodes"])
    write_json(f"{prefix}_observability.json", report)
    print(f"certificate: {report['certificate']}  "
          f"(smallest eigenvalue {eigvals[0]:.6e}, trace {report['trace']:.6e})")
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="deadbeat-obs",
        description="Hybrid dead-beat observer simulations and reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "sweep", "observability"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a JSON scenario config")
        p.add_argument("--h", type=float, default=None,
                       help="override the grid step")
        p.add_argument("--out-prefix", default=None,
                       help="override the output file prefix")
        if name == "sweep":
            p.add_argument("--mode", choices=("phase", "horizon"), default=None,
                           help="sweep kind (default: the config's `sweep.mode`, else phase)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.h is not None:
        cfg.setdefault("sim", {})["h"] = args.h
        if cfg["system"]["kind"] == "frequency":
            cfg["system"].setdefault("scenario", {})["h"] = args.h
    prefix = args.out_prefix or cfg.get("output_prefix", "out")

    try:
        if args.command == "simulate":
            return cmd_simulate(cfg, prefix)
        if args.command == "sweep":
            return cmd_sweep(cfg, prefix, args.mode)
        return cmd_observability(cfg, prefix)
    except (ConfigError, ValueError, KeyError, TypeError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except GramDegenerate as exc:
        print(f"error: degenerate reset window: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (DomainExit, NonFiniteState) as exc:
        print(f"error: runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except DeadbeatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
