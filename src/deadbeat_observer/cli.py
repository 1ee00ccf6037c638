"""Command-line front end: plant/observer runs, observability reports, sweeps.

Configs are plain JSON; all outputs are deterministic CSV/JSON files with
12+ significant digits, Unix newlines and a mandatory header row, so that
byte-identical reruns can serve as a regression contract.
"""

import argparse
import json
import math
import sys
from dataclasses import fields, replace

import numpy as np

from . import applications as apps
from .errors import (
    DeadbeatError,
    DomainExit,
    InvalidValue,
    NonFiniteState,
)
from .model import make_lti, sampled_input, SystemSpec
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

CSV_BLOCK_ROWS = 256  # rows that write_csv stacks and formats at a time


class ConfigError(Exception):
    pass


def _require(cfg, key, context="config"):
    if key not in cfg:
        raise ConfigError(f"missing field `{context}.{key}`")
    return cfg[key]


# JSON types as (description, test); every JSON number is read as a float, so a bool is not one
_NUMBER = ("a number", lambda v: isinstance(v, float))
_LIST = ("a list of numbers", lambda v: isinstance(v, list) and all(map(_NUMBER[1], v)))
_VECTOR = ("a number or a list of numbers", lambda v: _NUMBER[1](v) or _LIST[1](v))
_MATRIX = ("a list of lists of numbers of one length",
           lambda v: isinstance(v, list) and all(map(_LIST[1], v)) and len(set(map(len, v))) < 2)
_STRING = ("a string", lambda v: isinstance(v, str))
_LATER = ("", lambda v: True)  # checked by load_config

# Each field's type, or the table of its nested section; in `system`, per kind besides `kind`
_FIELDS = {
    "system": _LATER,
    "sim": {"t_end": _NUMBER, "h": _NUMBER, "x0": _VECTOR, "y0": _VECTOR},
    "observer": {"r": _NUMBER, "mode": _STRING, "z0": _VECTOR, "w0": _VECTOR},
    "sensor": {f.name: _NUMBER for f in fields(SensorModel)},
    "input": {"value": _VECTOR},
    "sweep": {"mode": _STRING, "phases": _VECTOR, "r_values": _LIST},
    "output_prefix": _STRING,
}
_SYSTEM_FIELDS = {
    "frequency": {"scenario": dict.fromkeys(("amplitude", "omega", "phase"), _NUMBER)},
    "reactor": {"params": _LATER},  # "canonical" or an object
    "lti": {"A": _MATRIX, "b": _VECTOR, "C": _MATRIX, "f": _VECTOR},
    "scalar": dict.fromkeys(("a0", "f0", "input_gain", "c0", "c1"), _NUMBER),
    "example26": {},
}


def _object(name, section):
    if not isinstance(section, dict):
        raise ConfigError(f"`{name}` must be an object")
    return section


def _check_fields(name, section, types):
    """Raise ConfigError unless ``section`` is an object of fields of ``types``, each its type."""
    for key, value in sorted(_object(name, section).items()):
        if key not in types:
            raise ConfigError(f"unknown field `{name}.{key}`")
        if isinstance(types[key], dict):
            _check_fields(key if name == "config" else f"{name}.{key}", value, types[key])
        elif not types[key][1](value):
            raise ConfigError(f"`{name}.{key}` must be {types[key][0]}")


def _built(section, make, *args, **kwargs):
    """make(*args, **kwargs); a value rule's InvalidValue is a ConfigError naming the section."""
    try:
        return make(*args, **kwargs)
    except InvalidValue as exc:
        raise ConfigError(f"`{section}`: {exc}") from exc


def _reject_constant(name):
    raise ConfigError(f"non-finite number {name} in config")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"number {text} in config overflows a float")
    return value


def load_config(path):
    """Parse a JSON config (every number a float) and check every section: a section that
    is not an object, an unknown field or kind, a field of the wrong JSON type and a non-finite
    or overflowing number raise ConfigError, so the build_* functions only read it."""
    with open(path) as fh:
        cfg = json.load(fh, parse_constant=_reject_constant,
                        parse_float=_finite_float, parse_int=_finite_float)
    _check_fields("config", cfg, _FIELDS)
    system = _object("system", _require(cfg, "system"))
    kind = _require(system, "kind", "system")
    if not isinstance(kind, str) or kind not in _SYSTEM_FIELDS:
        raise ConfigError(f"unknown system.kind {kind!r}")
    _check_fields("system", system, {"kind": _STRING, **_SYSTEM_FIELDS[kind]})
    if kind == "reactor" and system.get("params", "canonical") != "canonical":
        params = {f.name: _NUMBER for f in fields(apps.ReactorParams)}
        _check_fields("system.params", system["params"], params)
        for key in params:  # every parameter is required
            _require(system["params"], key, "system.params")
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
    a0 = sys_cfg.get("a0", 0.0)
    f0 = sys_cfg.get("f0", 0.0)
    g = sys_cfg.get("input_gain", 0.0)
    c0 = sys_cfg.get("c0", 1.0)
    c1 = sys_cfg.get("c1", 0.0)
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
        extras["scenario"] = _built("system.scenario", apps.FrequencyScenario,
                                    **sys_cfg.get("scenario", {}))
        return apps.freq_spec(), kind, extras
    if kind == "reactor":
        params = sys_cfg.get("params", "canonical")
        p = (apps.canonical_reactor_params() if params == "canonical"
             else _built("system.params", apps.ReactorParams, **params))
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
    """ObserverConfig from `observer`, its initial states aside, and `sim.h`."""
    obs = {k: v for k, v in cfg.get("observer", {}).items() if k not in ("z0", "w0")}
    _require(obs, "r", "observer")
    return _built("observer", ObserverConfig, h=_require(cfg.get("sim", {}), "h", "sim"), **obs)


def build_sensor(cfg):
    return _built("sensor", SensorModel, **cfg.get("sensor", {}))


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
    return _require(sim, "x0", "sim"), _require(sim, "y0", "sim")


def sim_section(cfg, extras, kind):
    sim = cfg.get("sim", {})
    h, t_end = _require(sim, "h", "sim"), _require(sim, "t_end", "sim")
    return _built("sim", SimConfig, t_end, h, *_initial_state(sim, extras, kind))


def write_csv(path, header, columns, flags=0):
    """Write the header, then one row per entry of ``columns``.

    Each column is a (count,) array, or a (count, c) array of c table columns.
    Every value is written ``%.12e``, except in the last ``flags`` columns,
    which hold 0/1 flags and are written ``%d``.  The rows are listed and
    formatted CSV_BLOCK_ROWS at a time, so the writer's memory does not grow
    with the table.
    """
    fmt = ",".join(["%.12e"] * (len(header) - flags) + ["%d"] * flags) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            lists = []
            for c in columns:
                block = c[start:start + CSV_BLOCK_ROWS]
                lists.extend(block.T.tolist() if block.ndim == 2 else [block.tolist()])
            fh.writelines(map(fmt.__mod__, zip(*lists)))


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
    obs = cfg.get("observer", {})
    full = obs_cfg.mode == FULL
    z0 = _require(obs, "z0", "observer")
    w0 = _require(obs, "w0", "observer") if full else None

    trace = simulate_plant(spec, signal, sim_cfg)
    trace = corrupt(trace, sensor)
    est = run_observer(spec, obs_cfg, trace, z0, w0)

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
    sensor = build_sensor(cfg)
    scn, h = extras["scenario"], cfg.get("sim", {}).get("h")

    def window(section, r):
        """The signal over [0, r] at sim.h (at r/2000 without one), read through the sensor."""
        return _built(section, replace, scn, r=r, h=h, noise_amplitude=sensor.amplitude,
                      noise_frequency=sensor.frequency)

    sweep_cfg = cfg.get("sweep", {})
    mode = mode or sweep_cfg.get("mode", "phase")
    r_values = sweep_cfg.get("r_values")
    if mode == "phase":
        r = cfg.get("observer", {}).get("r", scn.r)  # the scenario's own r = 1 without one
        phase_window = window("observer", r)
    elif mode != "horizon":
        raise ConfigError(f"unknown sweep mode {mode!r}")
    elif r_values is None:
        raise ConfigError("missing field `sweep.r_values` for horizon sweeps")
    # each sweep field present obeys its sweep's rule, whichever sweep runs
    phases = _built("sweep.phases", apps.sweep_phases, sweep_cfg.get("phases"))
    if r_values is not None:
        scenarios = _built("sweep.r_values", apps.horizon_scenarios,
                           [window("sweep.r_values", r) for r in r_values])
    if mode == "phase":
        values, omegas, errors, max_err = apps.phase_sweep(phase_window, phases)
        label = "phase"
    else:
        values, omegas, errors = apps.horizon_sweep(scenarios)
        max_err = float(np.max(errors))
        label = "r"

    write_csv(f"{prefix}_sweep.csv", [label, "omega_hat", "rel_error"], [values, omegas, errors])
    write_json(f"{prefix}_sweep_summary.json", {
        "mode": mode,
        "omega": scn.omega,
        "noise_amplitude": sensor.amplitude,
        "noise_frequency": sensor.frequency,
        "max_rel_error": max_err,
    })
    return EXIT_OK


def cmd_observability(cfg, prefix):
    spec, kind, extras = build_system(cfg)
    obs_cfg = build_observer_config(cfg)
    sensor = build_sensor(cfg)
    r, h = obs_cfg.r, obs_cfg.h
    x0, y0 = _initial_state(cfg.get("sim", {}), extras, kind)
    sim = SimConfig(t_end=r, h=h, x0=x0, y0=y0)
    if kind == "example26":
        u_s, _ = indistinguishing_input(extras["example26"], x0, y0, sim.grid)
        signal = sampled_input(sim.grid, u_s)
    else:
        signal = build_input(cfg)
    trace = simulate_plant(spec, signal, sim)
    trace = corrupt(trace, sensor)

    window = IoWindow(grid=trace.grid, y_samples=trace.y_meas, u_samples=trace.u)
    wc = compute_window(spec, window)
    gs = gram(wc)
    verdict = observability_certificate(gs)
    eigvals = verdict.eigenvalues
    with np.errstate(over="ignore"):  # an overflow is inf, reported as null
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
        report["det_nodes"] = [round(i * (trace.grid.count - 1) / max(spec.n - 1, 1))
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

    prefix = args.out_prefix or cfg.get("output_prefix", "out")

    try:
        if args.command == "simulate":
            return cmd_simulate(cfg, prefix)
        if args.command == "sweep":
            return cmd_sweep(cfg, prefix, args.mode)
        return cmd_observability(cfg, prefix)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (DomainExit, NonFiniteState) as exc:
        print(f"error: runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except DeadbeatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
