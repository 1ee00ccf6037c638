"""Command-line front end: plant/observer runs, observability reports, sweeps.

Configs are plain JSON; all outputs are deterministic CSV/JSON files with
12+ significant digits, Unix newlines and a mandatory header row, so that
byte-identical reruns can serve as a regression contract.
"""

import argparse
import json
import math
import sys

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
        raise ConfigError(f"missing field `{context}.{key}`" if context else
                          f"missing field `{key}`")
    return cfg[key]


def _reject_constant(name):
    raise ConfigError(f"non-finite number {name} in config")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"number {text} in config overflows a float")
    return value


def _float_sized_int(text):
    _finite_float(text)
    return int(text)


def load_config(path):
    """Parse a JSON config; NaN, Infinity and overflowing literals raise ConfigError."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant,
                         parse_float=_finite_float, parse_int=_float_sized_int)


def canonical_example26():
    return Example26Spec(
        a1=lambda y: -1.0,
        a2=lambda y: -2.0,
        c1=lambda y: math.exp(y),
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

    def eval_batch(Y, U):
        N = Y.shape[0]
        return (np.full((N, 1, 1), a0), np.zeros((N, 1)),
                (c0 + c1 * Y[:, :1])[:, :, None], f0 + g * U[:, :1])

    return SystemSpec(
        n=1, k=1, m=1,
        eval_A=lambda y, u: np.array([[a0]]),
        eval_b=lambda y, u: np.zeros(1),
        eval_C=lambda y: np.array([[c0 + c1 * y[0]]]),
        eval_f=lambda y, u: np.array([f0 + g * u[0]]),
        eval_batch=eval_batch,
    )


def build_system(cfg):
    """Returns (spec, system_kind, extras) from the `system` config section."""
    sys_cfg = _require(cfg, "system")
    kind = _require(sys_cfg, "kind", "system")
    extras = {}
    if kind == "frequency":
        scn_cfg = sys_cfg.get("scenario", {})
        scn = apps.FrequencyScenario(
            amplitude=float(scn_cfg.get("amplitude", 2.0)),
            omega=float(scn_cfg.get("omega", 3.0)),
            phase=float(scn_cfg.get("phase", 0.0)),
            noise_amplitude=float(scn_cfg.get("noise_amplitude", 0.0)),
            noise_frequency=float(scn_cfg.get("noise_frequency", 10.0)),
            r=float(scn_cfg.get("r", 1.0)),
            h=float(scn_cfg["h"]) if "h" in scn_cfg else None,
        )
        extras["scenario"] = scn
        return apps.freq_spec(bool(sys_cfg.get("relaxed_domain", False))), kind, extras
    if kind == "reactor":
        params = sys_cfg.get("params", "canonical")
        if params == "canonical":
            p = apps.canonical_reactor_params()
        else:
            p = apps.ReactorParams(**{k: float(v) for k, v in params.items()})
        extras["reactor_params"] = p
        return apps.reactor_spec(p), kind, extras
    if kind == "lti":
        return make_lti(_require(sys_cfg, "A", "system"),
                        _require(sys_cfg, "b", "system"),
                        _require(sys_cfg, "C", "system"),
                        _require(sys_cfg, "f", "system")), kind, extras
    if kind == "scalar":
        return build_scalar_spec(sys_cfg), kind, extras
    if kind == "example26":
        ex = canonical_example26()
        extras["example26"] = ex
        return ex.to_system_spec(), kind, extras
    raise ConfigError(f"unknown system.kind {kind!r}")


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
    sen = cfg.get("sensor", {})
    return SensorModel(float(sen.get("amplitude", 0.0)),
                       float(sen.get("frequency", 1.0)))


def build_input(cfg):
    """The `input` section as a function of time, or None (the zero input) without one."""
    inp = cfg.get("input")
    if inp is None:
        return None
    kind = inp.get("kind", "constant")
    if kind == "constant":
        value = np.atleast_1d(np.asarray(inp.get("value", [0.0]), dtype=float))
        return lambda t: value
    raise ConfigError(f"unknown input.kind {kind!r}")


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


def write_csv(path, header, rows):
    """Write the header, then the rows one by one.

    Each row is formatted with one %-format string made from the first row:
    ``%d`` where it holds a Python int (the flags), ``%.12e`` elsewhere.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fmt = None
        for row in rows:
            if fmt is None:
                fmt = ",".join("%d" if isinstance(v, int) else "%.12e" for v in row) + "\n"
            fh.write(fmt % tuple(row))


def _node_rows(columns, est):
    """Per grid node: the values of the (count, .) float ``columns``, then the two flags."""
    flags = np.column_stack([est.reset_flags, est.degenerate_flags]).tolist()
    return (values + f for values, f in zip(np.hstack(columns).tolist(), flags))


def write_trace_csv(path, trace, est, full_order):
    n = trace.x_true.shape[1]
    k = trace.y_true.shape[1]
    m = trace.u.shape[1]
    header = (["t"]
              + [f"x_true{i}" for i in range(n)]
              + [f"y_true{i}" for i in range(k)]
              + [f"y_meas{i}" for i in range(k)]
              + [f"u{i}" for i in range(m)]
              + [f"z{i}" for i in range(n)]
              + ([f"w{i}" for i in range(k)] if full_order else [])
              + ["reset_flag", "degenerate_flag"])
    columns = [trace.grid.times()[:, None], trace.x_true, trace.y_true, trace.y_meas,
               trace.u, est.z] + ([est.w] if full_order else [])
    write_csv(path, header, _node_rows(columns, est))


def write_estimate_csv(path, est, full_order):
    n = est.z.shape[1]
    k = est.w.shape[1]
    header = (["t"] + [f"z{i}" for i in range(n)]
              + ([f"w{i}" for i in range(k)] if full_order else [])
              + ["reset_flag", "degenerate_flag"])
    columns = [est.grid.times()[:, None], est.z] + ([est.w] if full_order else [])
    write_csv(path, header, _node_rows(columns, est))


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
    z0 = np.asarray(_require(obs, "z0", "observer"), dtype=float)
    w0 = np.asarray(obs["w0"], dtype=float) if "w0" in obs else None
    est = run_observer(spec, obs_cfg, trace, z0, w0)

    full = obs_cfg.mode == FULL
    write_trace_csv(f"{prefix}_trace.csv", trace, est, full)
    write_estimate_csv(f"{prefix}_estimate.csv", est, full)

    post = np.arange(trace.grid.count) >= obs_cfg.steps_per_window
    err = np.linalg.norm(est.z - trace.x_true, axis=1)
    scale = 1.0 + np.linalg.norm(trace.x_true, axis=1)
    max_rel = float(np.max(err[post] / scale[post])) if np.any(post) else None
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
        phases = sweep_cfg.get("phases", 64)
        phi_grid = (np.linspace(0.0, 2.0 * np.pi, int(phases))
                    if isinstance(phases, (int, float))
                    else np.asarray(phases, dtype=float))
        values, omegas, errors, max_err = apps.phase_sweep(scn, phi_grid)
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

    write_csv(f"{prefix}_sweep.csv", [label, "omega_hat", "rel_error"],
              [[v, o, e] for v, o, e in zip(values, omegas, errors)])
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
        u_s, _ = indistinguishing_input(extras["example26"], x0, float(y0[0]), grid)
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
        nodes = cfg.get("det_nodes")
        if nodes is None:
            nodes = [round(i * (grid.count - 1) / max(spec.n - 1, 1))
                     for i in range(spec.n)]
        report["det_nodes"] = [int(i) for i in nodes]
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
        if cfg.get("system", {}).get("kind") == "frequency":
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
