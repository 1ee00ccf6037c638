import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from deadbeat_observer import applications as apps, cli, numerics
from deadbeat_observer.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    main,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def scalar_config(prefix, **overrides):
    cfg = {
        "system": {"kind": "scalar", "a0": 0.0, "f0": 0.0, "c0": 1.0},
        "sim": {"t_end": 1.5, "h": 0.005, "x0": [2.0], "y0": [0.0]},
        "observer": {"r": 0.5, "mode": "reduced", "z0": [0.0]},
        "output_prefix": prefix,
    }
    cfg.update(overrides)
    return cfg


def test_simulate_scalar_success(tmp_path):
    prefix = str(tmp_path / "run")
    cfg_path = write_config(tmp_path, scalar_config(prefix))
    assert main(["simulate", cfg_path]) == EXIT_OK
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    assert summary["system"] == "scalar"
    assert summary["degenerate_events"] == 0
    assert summary["max_post_window_relative_error"] < 1e-9

    trace_lines = (tmp_path / "run_trace.csv").read_text().split("\n")
    header = trace_lines[0].split(",")
    assert header == ["t", "x_true0", "y_true0", "y_meas0", "u0", "z0",
                      "reset_flag", "degenerate_flag"]
    assert trace_lines[-1] == ""  # trailing Unix newline
    assert len(trace_lines) == 1 + 301 + 1  # header + 301 nodes + trailing ""
    # values carry 12 fractional digits in scientific notation
    first_value = trace_lines[2].split(",")[1]
    mantissa = first_value.split("e")[0]
    assert len(mantissa.split(".")[1]) == 12

    est_lines = (tmp_path / "run_estimate.csv").read_text().split("\n")
    assert est_lines[0].split(",")[0] == "t"
    assert len(est_lines) == len(trace_lines)


def test_simulate_frequency_full_order(tmp_path):
    prefix = str(tmp_path / "freq")
    cfg = {
        "system": {"kind": "frequency",
                   "scenario": {"amplitude": 2.0, "omega": 3.0, "phase": 1.0}},
        "sim": {"t_end": 2.0, "h": 0.002},
        "observer": {"r": 1.0, "mode": "full", "z0": [1.0, -4.0],
                     "w0": [1.6829419696157930]},
        "output_prefix": prefix,
    }
    cfg_path = write_config(tmp_path, cfg)
    assert main(["simulate", cfg_path]) == EXIT_OK
    summary = json.loads((tmp_path / "freq_summary.json").read_text())
    assert summary["omega_hat"] == pytest.approx(3.0, abs=1e-4)
    header = (tmp_path / "freq_trace.csv").read_text().split("\n")[0]
    assert "w0" in header.split(",")


def test_simulate_rejects_bad_window_multiple(tmp_path, capsys):
    prefix = str(tmp_path / "bad")
    cfg = scalar_config(prefix)
    cfg["observer"]["r"] = 0.503
    cfg_path = write_config(tmp_path, cfg)
    assert main(["simulate", cfg_path]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: invalid config: `observer`: window length r=0.503 must be an integer multiple "
        "(>= 2) of h=0.005\n")
    assert not list(tmp_path.glob("bad_*"))


def test_simulate_rejects_missing_field(tmp_path, capsys):
    prefix = str(tmp_path / "missing")
    cfg = scalar_config(prefix)
    del cfg["sim"]["t_end"]
    cfg_path = write_config(tmp_path, cfg)
    assert main(["simulate", cfg_path]) == EXIT_CONFIG
    assert "sim.t_end" in capsys.readouterr().err


def test_unknown_system_kind(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"system": {"kind": "pendulum"}})
    assert main(["simulate", cfg_path]) == EXIT_CONFIG
    assert "pendulum" in capsys.readouterr().err


def test_a_bad_system_kind_is_reported_before_other_sections(tmp_path, capsys):
    # the kind sets which fields the other sections may hold, so it is read first
    cfg_path = write_config(tmp_path, {"system": {"kind": "bogus"}, "sim": 5})
    assert main(["simulate", cfg_path]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: invalid config: unknown system.kind 'bogus'\n"


def test_unreadable_config_path(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "nope.json")]) == EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, literal):
    # the literal goes in as text: json.dumps cannot write an overflowing one
    text = json.dumps(scalar_config(str(tmp_path / "bad"), sensor={"amplitude": 0.5}))
    for field in ('"amplitude": 0.5', '"c0": 1.0'):
        path = tmp_path / "config.json"
        path.write_text(text.replace(field, field.split(":")[0] + f": {literal}"))
        assert main(["simulate", str(path)]) == EXIT_CONFIG
        assert "error: invalid config" in capsys.readouterr().err
        assert not (tmp_path / "bad_trace.csv").exists()


def test_runtime_error_exit_code(tmp_path, capsys):
    prefix = str(tmp_path / "hot")
    cfg = {
        "system": {"kind": "reactor"},
        "sim": {"t_end": 0.5, "h": 0.001, "x0": [0.8, 0.5], "y0": [500.0]},
        "observer": {"r": 0.25, "z0": [0.5, 1.0]},
        "output_prefix": prefix,
    }
    cfg_path = write_config(tmp_path, cfg)
    assert main(["simulate", cfg_path]) == EXIT_RUNTIME
    assert "runtime failure" in capsys.readouterr().err


def degenerate_configs(prefix):
    """Configs whose three reset windows are all degenerate.

    The scalar plant's output carries no state information: Q = 0.  The
    second state of the LTI plant never reaches the output, so Q is not zero
    but its smallest Cholesky pivot is.
    """
    flat = scalar_config(prefix)
    flat["system"]["c0"] = 0.0
    hidden = scalar_config(prefix, system={
        "kind": "lti", "A": [[0.0, 0.0], [0.0, -1.0]], "b": [0.0, 0.0], "C": [[1.0], [0.0]],
        "f": [0.0]})
    hidden["sim"]["x0"] = [2.0, 2.0]
    hidden["observer"]["z0"] = [0.0, 0.0]
    return [flat, hidden]


def test_degenerate_exit_code(tmp_path, capsys):
    # a degenerate reset window is held, so the run succeeds
    for cfg in degenerate_configs(str(tmp_path / "flat")):
        cfg_path = write_config(tmp_path, cfg)
        assert main(["simulate", cfg_path]) == EXIT_OK
        assert capsys.readouterr().err == ""
        summary = json.loads((tmp_path / "flat_summary.json").read_text())
        assert summary["degenerate_events"] == 3


def test_observability_report_planar_counterexample(tmp_path, capsys):
    prefix = str(tmp_path / "obs")
    cfg = {
        "system": {"kind": "example26"},
        "sim": {"h": 0.002, "x0": [0.5, -0.3], "y0": [0.2]},
        "observer": {"r": 1.0},
        "output_prefix": prefix,
    }
    cfg_path = write_config(tmp_path, cfg)
    assert main(["observability", cfg_path]) == EXIT_OK
    report = json.loads((tmp_path / "obs_observability.json").read_text())
    assert report["certificate"] == "degenerate"
    assert len(report["null_direction"]) == 2
    assert len(report["eigenvalues"]) == 2
    assert "certificate: degenerate" in capsys.readouterr().out


def test_observability_report_observable(tmp_path):
    prefix = str(tmp_path / "obs_ok")
    cfg = scalar_config(prefix)
    cfg_path = write_config(tmp_path, cfg)
    assert main(["observability", cfg_path]) == EXIT_OK
    report = json.loads((tmp_path / "obs_ok_observability.json").read_text())
    assert report["certificate"] == "strongly_observable"
    assert report["smallest_pivot"] > (numerics.REL_THRESHOLD * report["trace"]
                                       / len(report["eigenvalues"]))
    assert report["smallest_pivot"] > 0.0
    assert report["condition_estimate"] == pytest.approx(1.0)


def test_observability_report_degenerate_scalar(tmp_path):
    flat, hidden = degenerate_configs(str(tmp_path / "obs"))
    for cfg, null_direction in ((flat, [1.0]), (hidden, [0.0, 1.0])):
        cfg_path = write_config(tmp_path, cfg)
        assert main(["observability", cfg_path]) == EXIT_OK
        report = json.loads((tmp_path / "obs_observability.json").read_text())
        assert report["certificate"] == "degenerate"
        assert (report["trace"] > 0) == (cfg is hidden)
        assert report["condition_estimate"] is None
        assert [abs(v) for v in report["null_direction"]] == null_direction


def counting(monkeypatch, owner, name, calls):
    """Replace ``owner.name`` by a wrapper that appends ``name`` to ``calls``."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("name, degenerate", [("scalar_oracle", False), ("reactor", False),
                                              ("example26", True)])
def test_observability_decomposes_the_gram_matrix_once_each_way(tmp_path, monkeypatch,
                                                                name, degenerate):
    calls = []
    counting(monkeypatch, numerics, "cholesky_pivots", calls)
    counting(monkeypatch, np.linalg, "eigvalsh", calls)
    counting(monkeypatch, np.linalg, "eigh", calls)
    assert main(["observability", str(CONFIG_DIR / f"{name}.json"),
                 "--out-prefix", str(tmp_path / name)]) == EXIT_OK
    report = json.loads((tmp_path / f"{name}_observability.json").read_text())
    assert report["certificate"] == ("degenerate" if degenerate else "strongly_observable")
    # one eigh gives the eigenvalues and, for a degenerate window, the null direction
    assert sorted(calls) == ["cholesky_pivots", "eigh"]


@pytest.mark.parametrize("name", ["scalar_oracle", "example26"])
def test_observability_report_reads_the_verdict(tmp_path, monkeypatch, name):
    verdicts = []
    certificate = cli.observability_certificate

    def kept(*args):
        verdicts.append(certificate(*args))
        return verdicts[-1]

    monkeypatch.setattr(cli, "observability_certificate", kept)
    assert main(["observability", str(CONFIG_DIR / f"{name}.json"),
                 "--out-prefix", str(tmp_path / name)]) == EXIT_OK
    report = json.loads((tmp_path / f"{name}_observability.json").read_text())
    (verdict,) = verdicts
    assert report["eigenvalues"] == [float(v) for v in verdict.eigenvalues]
    assert report["smallest_pivot"] == float(verdict.smallest_pivot)


def shipped_run(tmp_path, name, command):
    """Run a shipped config unchanged; its loaded config and its JSON report."""
    assert main([command, str(CONFIG_DIR / f"{name}.json"),
                 "--out-prefix", str(tmp_path / name)]) == EXIT_OK
    suffix = "summary" if command == "simulate" else "observability"
    return (json.loads((CONFIG_DIR / f"{name}.json").read_text()),
            json.loads((tmp_path / f"{name}_{suffix}.json").read_text()))


def test_lumped_reactor_holds_every_reset(tmp_path):
    # E1 = E2: no reset window is strongly observable, so the flowed estimate is held
    cfg, summary = shipped_run(tmp_path, "reactor_lumped", "simulate")
    assert summary["degenerate_events"] == cfg["sim"]["t_end"] / cfg["observer"]["r"]
    header, *rows = (tmp_path / "reactor_lumped_estimate.csv").read_text().splitlines()
    column = header.split(",").index("reset_flag")
    assert {row.split(",")[column] for row in rows} == {"0"}


def test_example26_generic_input_distinguishes_and_constructed_input_does_not(tmp_path):
    _, summary = shipped_run(tmp_path, "example26", "simulate")
    assert summary["max_post_window_relative_error"] <= 1e-8
    assert summary["degenerate_events"] == 0
    _, report = shipped_run(tmp_path, "example26", "observability")
    assert report["certificate"] == "degenerate"


def test_lti_config_reconstructs_exactly(tmp_path):
    _, summary = shipped_run(tmp_path, "lti", "simulate")
    assert summary["max_post_window_relative_error"] <= 1e-10
    _, report = shipped_run(tmp_path, "lti", "observability")
    assert report["certificate"] == "strongly_observable"


def overflowing_gram_config(prefix):
    """LTI plant q' = 2000 q: the first reset window's Gram matrix overflows."""
    return {
        "system": {"kind": "lti", "A": [[2000.0]], "b": [0.0], "C": [[1.0]], "f": [0.0]},
        "sim": {"t_end": 1.0, "h": 0.01, "x0": [0.0], "y0": [0.0]},
        "observer": {"r": 0.5, "z0": [1.0]},
        "output_prefix": prefix,
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_gram_is_a_runtime_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, overflowing_gram_config(str(tmp_path / "ovf")))
    for command in ("simulate", "observability"):
        assert main([command, cfg_path]) == EXIT_RUNTIME
        assert ("non-finite Gram matrix of the window ending at grid index 50"
                in capsys.readouterr().err)
    assert not list(tmp_path.glob("ovf_*"))


@pytest.mark.parametrize("field, value", [("mode", "adaptive"), ("rel_threshold", 1e-8),
                                          ("on_degenerate", "hold")])
def test_bad_observer_field_is_a_config_error(tmp_path, capsys, field, value):
    # the degeneracy threshold and policy are fixed, so their old fields are unknown
    message = "`observer`: mode must be" if field == "mode" else f"unknown field `observer.{field}`"
    cfg = scalar_config(str(tmp_path / "bad"))
    cfg["observer"][field] = value
    cfg_path = write_config(tmp_path, cfg)
    for command in ("simulate", "observability"):
        assert main([command, cfg_path]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("bad_*"))


def test_zero_step_is_a_config_error(tmp_path, capsys):
    cfg = scalar_config(str(tmp_path / "zero"))
    cfg["sim"]["h"] = 0.0
    cfg_path = write_config(tmp_path, cfg)
    for command, message in (
            ("simulate", "`sim`: span 1.5 is not a positive integer multiple of step 0.0"),
            ("observability", "`observer`: window length r=0.5 must be an integer multiple "
                              "(>= 2) of h=0.0")):
        assert main([command, cfg_path]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: invalid config: {message}\n"
    assert not list(tmp_path.glob("zero_*"))


def test_sweep_phase_small_grid(tmp_path):
    prefix = str(tmp_path / "sweep")
    cfg = {
        "system": {"kind": "frequency",
                   "scenario": {"amplitude": 2.0, "omega": 3.0}},
        "sim": {"h": 0.002},
        "observer": {"r": 1.0},
        "sensor": {"amplitude": 0.2, "frequency": 10.0},
        "sweep": {"phases": 8},
        "output_prefix": prefix,
    }
    cfg_path = write_config(tmp_path, cfg)
    assert main(["sweep", cfg_path, "--mode", "phase"]) == EXIT_OK
    summary = json.loads((tmp_path / "sweep_sweep_summary.json").read_text())
    assert 0.0 < summary["max_rel_error"] < 0.2
    lines = (tmp_path / "sweep_sweep.csv").read_text().split("\n")
    assert lines[0] == "phase,omega_hat,rel_error"
    assert len(lines) == 10  # header + 8 rows + trailing newline


def frequency_sweep_config(prefix, noise=0.0, **scenario):
    """A sweep config of the scenario's signal, read through a sensor of amplitude ``noise``."""
    return {"system": {"kind": "frequency", "scenario": {"omega": 3.0, **scenario}},
            "sim": {"h": 5e-4},
            "observer": {"r": 1.0},
            "sensor": {"amplitude": noise, "frequency": 10.0},
            "sweep": {"phases": [0.3, 1.1, 4.0], "r_values": [1.0, 2.0]},
            "output_prefix": prefix}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["phase", "horizon"])
def test_sweep_of_a_large_finite_amplitude(tmp_path, mode):
    # the estimate does not depend on the amplitude, up to rounding
    def omegas(amplitude):
        prefix = str(tmp_path / "big")
        cfg = frequency_sweep_config(prefix, 0.1 * amplitude, amplitude=amplitude)
        assert main(["sweep", write_config(tmp_path, cfg), "--mode", mode]) == EXIT_OK
        return np.loadtxt(f"{prefix}_sweep.csv", delimiter=",", skiprows=1)[:, 1]

    reference = omegas(2.0)
    assert np.all(np.abs(reference - 3.0) < 0.05)
    for amplitude in (1e150, 1e200, 1e307, 1e308):
        assert np.allclose(omegas(amplitude), reference, rtol=1e-12, atol=0.0), amplitude


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_of_an_overflowing_signal_is_a_runtime_error(tmp_path, capsys):
    # signal and noise both peak near t = pi/20; their sum first exceeds the
    # largest float at node 191
    cfg = frequency_sweep_config(str(tmp_path / "inf"), 1e308, amplitude=1e308)
    cfg["sweep"]["phases"] = [np.pi / 2 - 0.15 * np.pi]
    assert main(["sweep", write_config(tmp_path, cfg)]) == EXIT_RUNTIME
    assert "non-finite output sample at window node 191" in capsys.readouterr().err
    assert not list(tmp_path.glob("inf_*"))


def test_sweep_mode_comes_from_the_command_line(tmp_path):
    cfg = {
        "system": {"kind": "frequency", "scenario": {}},
        "sim": {"h": 0.002},
        "observer": {"r": 1.0},
        "sweep": {"r_values": [0.5, 1.0], "phases": 3},
        "output_prefix": str(tmp_path / "s"),
    }
    cfg_path = write_config(tmp_path, cfg)
    csv = tmp_path / "s_sweep.csv"
    for argv, label, rows in ((["sweep", cfg_path], "phase", 3),
                              (["sweep", cfg_path, "--mode", "horizon"], "r", 2)):
        assert main(argv) == EXIT_OK
        lines = csv.read_text().split("\n")
        assert lines[0] == f"{label},omega_hat,rel_error"
        assert len(lines) == rows + 2


def test_sweep_of_a_shipped_config_without_mode_is_a_phase_sweep(tmp_path):
    # figure4 lists r_values, but only --mode horizon makes its sweep a horizon sweep
    prefix = str(tmp_path / "fig4")
    assert main(["sweep", str(CONFIG_DIR / "figure4.json"), "--out-prefix", prefix]) == EXIT_OK
    lines = (tmp_path / "fig4_sweep.csv").read_text().splitlines()
    assert lines[0] == "phase,omega_hat,rel_error"
    assert len(lines) == 1 + 64
    summary = json.loads((tmp_path / "fig4_sweep_summary.json").read_text())
    assert summary["mode"] == "phase"


def overflowing_reconstruction_config(prefix):
    """A window of 2000 steps of h = 5e-160: z2 overflows when scaled back by 1/r^2."""
    return {"system": {"kind": "frequency",
                       "scenario": {"amplitude": 2.0, "omega": 3.0, "phase": 0.0}},
            "sim": {"h": 5e-160},
            "observer": {"r": 1e-156},
            "sensor": {"amplitude": 0.2, "frequency": 1e300},
            "sweep": {"phases": [0.0, 0.4188790204786391], "r_values": [1e-156]},
            "output_prefix": prefix}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["phase", "horizon"])
def test_sweep_whose_reconstruction_overflows_is_a_runtime_error(tmp_path, capsys, mode):
    cfg = overflowing_reconstruction_config(str(tmp_path / "big"))
    assert main(["sweep", write_config(tmp_path, cfg), "--mode", mode]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err == ("error: runtime failure: non-finite reconstruction of the window "
                   "ending at window node 2000\n")
    assert not list(tmp_path.glob("*_sweep*"))


def test_input_of_the_wrong_width_is_an_error(tmp_path, capsys):
    prefix = str(tmp_path / "wide")
    cfg = scalar_config(prefix, input={"value": [1.0, 2.0]})
    assert main(["simulate", write_config(tmp_path, cfg)]) == EXIT_RUNTIME
    assert "input has shape (2,)" in capsys.readouterr().err
    assert not (tmp_path / "wide_trace.csv").exists()


@pytest.mark.parametrize("section, field, commands", [
    ("sim", "x0", ("simulate", "observability")), ("observer", "z0", ("simulate",))],
    ids=["x0", "z0"])
def test_initial_state_of_the_wrong_width_is_a_runtime_error(tmp_path, capsys, section, field,
                                                              commands):
    cfg = json.loads((CONFIG_DIR / "scalar_oracle.json").read_text())
    cfg[section][field] = [2.0, 1.0]
    cfg["output_prefix"] = str(tmp_path / "wide")
    for command in commands:
        assert main([command, write_config(tmp_path, cfg)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "error: " in err and "shape" in err and "broadcast" not in err
    assert not list(tmp_path.glob("wide_*"))


def test_sweep_requires_frequency_system(tmp_path, capsys):
    cfg_path = write_config(tmp_path, scalar_config(str(tmp_path / "x")))
    assert main(["sweep", cfg_path]) == EXIT_CONFIG
    assert "frequency" in capsys.readouterr().err


def test_sweep_horizon_missing_r_values(tmp_path, capsys):
    cfg = {
        "system": {"kind": "frequency", "scenario": {}},
        "sim": {"h": 0.002},
        "observer": {"r": 1.0},
        "output_prefix": str(tmp_path / "x"),
    }
    cfg_path = write_config(tmp_path, cfg)
    assert main(["sweep", cfg_path, "--mode", "horizon"]) == EXIT_CONFIG
    assert "sweep.r_values" in capsys.readouterr().err


def test_out_prefix_and_h_overrides(tmp_path):
    cfg = scalar_config(str(tmp_path / "ignored"))
    cfg["sim"]["h"] = 0.01
    cfg_path = write_config(tmp_path, cfg)
    prefix = str(tmp_path / "override")
    assert main(["simulate", cfg_path, "--out-prefix", prefix]) == EXIT_OK
    summary = json.loads((tmp_path / "override_summary.json").read_text())
    assert summary["h"] == 0.01


def test_repeated_runs_are_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, scalar_config(str(tmp_path / "ignored")))
    pa, pb = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", cfg_path, "--out-prefix", pa]) == EXIT_OK
    assert main(["simulate", cfg_path, "--out-prefix", pb]) == EXIT_OK
    for suffix in ("_trace.csv", "_estimate.csv", "_summary.json"):
        assert (tmp_path / f"a{suffix}").read_bytes() == \
            (tmp_path / f"b{suffix}").read_bytes()


def shipped_config(name, prefix, edit):
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    edit(cfg)
    cfg["output_prefix"] = prefix
    return cfg


def lumped_params(**changes):
    def edit(cfg):
        cfg["system"]["params"].update(changes)
    return edit


def set_field(section, field, value):
    def edit(cfg):
        cfg[section][field] = value
    return edit


def set_omega(cfg):
    cfg["system"]["scenario"]["omega"] = 1e200


def set_amplitude(cfg):
    cfg["system"]["scenario"]["amplitude"] = 1e160


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, edit, command, code, message", [
    ("frequency_clean", set_omega, "simulate", EXIT_RUNTIME,
     "runtime failure: non-finite state at grid index 0"),
    ("frequency_clean", set_omega, "observability", EXIT_RUNTIME,
     "runtime failure: non-finite state at grid index 0"),
    ("frequency_clean", set_amplitude, "simulate", EXIT_RUNTIME,
     "runtime failure: non-finite Gram matrix of the window ending at grid index 2000"),
    ("example26", set_field("sim", "y0", [1e160]), "observability", EXIT_RUNTIME,
     "runtime failure: non-finite state at grid index 1"),
    ("example26", set_field("sim", "x0", [0.5, -3e7]), "observability", EXIT_RUNTIME,
     "runtime failure: non-finite state at grid index 3"),
    ("reactor_lumped", lumped_params(k1=100.0), "simulate", EXIT_CONFIG,
     "invalid config: `system.params`: temperature bound violated: "
     "(J1 k1 c1 + J2 k2 c2)/h + Ts = 3322 > Tmax = 350"),
    ("reactor_lumped", lumped_params(E2=1e300), "simulate", EXIT_CONFIG,
     "invalid config: `system.params`: need (k1/k2) exp((E2-E1)/Tmin) c1_bar < c2_bar "
     "when E1 < E2"),
], ids=["omega-simulate", "omega-observability", "amplitude-simulate", "example26-y0",
        "example26-x0", "reactor-k1", "reactor-E2"])
def test_overflowing_config_values_end_with_one_error_line(tmp_path, capsys, name, edit,
                                                           command, code, message):
    cfg = shipped_config(name, str(tmp_path / "big"), edit)
    assert main([command, write_config(tmp_path, cfg)]) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("big_*"))


def wrong_shapes(shapes):
    return EXIT_RUNTIME, f"initial states of shapes {shapes}, expected (2,) and (1,)"


# null and true are not numbers, so they are config errors before any shape is read
NOT_A_VECTOR = EXIT_CONFIG, "invalid config: `sim.x0` must be a number or a list of numbers"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field, value, code_and_message", [
    ("x0", 5.0, wrong_shapes("x0 () and y0 (1,)")),
    ("x0", [1.0], wrong_shapes("x0 (1,) and y0 (1,)")),
    ("x0", None, NOT_A_VECTOR), ("x0", True, NOT_A_VECTOR),
    ("x0", [], wrong_shapes("x0 (0,) and y0 (1,)")),
    ("y0", [], wrong_shapes("x0 (2,) and y0 (0,)"))],
    ids=["x0-number", "x0-short", "x0-null", "x0-true", "x0-empty", "y0-empty"])
def test_example26_initial_state_of_the_wrong_shape_is_a_runtime_error(tmp_path, capsys, field,
                                                                        value, code_and_message):
    code, message = code_and_message
    cfg = shipped_config("example26", str(tmp_path / "bad"), set_field("sim", field, value))
    assert main(["observability", write_config(tmp_path, cfg)]) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("bad_*"))


@pytest.mark.parametrize("command", ["simulate", "observability", "sweep"])
def test_scenario_noise_without_a_frequency_is_a_config_error(tmp_path, capsys, command):
    # every command, the sweep included, reads the signal's noise from `sensor`
    def edit(cfg):
        cfg["sensor"].update(amplitude=0.1, frequency=0.0)
    cfg = shipped_config("frequency_clean", str(tmp_path / "bad"), edit)
    assert main([command, write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("error: invalid config: `sensor`: "
                                       "noise frequency must be > 0\n")
    assert not list(tmp_path.glob("bad_*"))


@pytest.mark.filterwarnings("error")
def test_simulate_summary_reports_a_non_finite_error_as_null(tmp_path):
    cfg = shipped_config("scalar_oracle", str(tmp_path / "big"),
                         set_field("sim", "x0", [1e300]))
    assert main(["simulate", write_config(tmp_path, cfg)]) == EXIT_OK

    def reject(constant):
        raise ValueError(f"{constant} in JSON")

    summary = json.loads((tmp_path / "big_summary.json").read_text(), parse_constant=reject)
    assert summary["max_post_window_relative_error"] is None


def test_h_override_sets_the_frequency_scenario_step(tmp_path):
    # a sweep's window is stepped at `sim.h`
    cfg = frequency_sweep_config(str(tmp_path / "given"), 0.2)
    cfg["sim"]["h"] = 0.002
    assert main(["sweep", write_config(tmp_path, cfg)]) == EXIT_OK
    cfg["sim"]["h"] = 5e-4
    cfg["output_prefix"] = str(tmp_path / "default")
    assert main(["sweep", write_config(tmp_path, cfg)]) == EXIT_OK
    assert (tmp_path / "default_sweep.csv").read_bytes() != \
        (tmp_path / "given_sweep.csv").read_bytes()


def outputs_of(command, cfg, tmp_path, flags=()):
    """{file name: bytes} of the outputs of one run of ``command`` on ``cfg`` with ``flags``."""
    out = tmp_path / f"{command}_{len(list(tmp_path.iterdir()))}"
    out.mkdir()
    cfg = dict(cfg, output_prefix=str(out / "run"))
    assert main([command, write_config(out, cfg), *flags]) == EXIT_OK
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "config.json"}


@pytest.mark.parametrize("path, value", [
    ("sensor.amplitude", 0.1), ("sensor.frequency", 20.0), ("observer.r", 0.5),
    ("sim.h", 0.001)], ids=["noise_amplitude", "noise_frequency", "r", "h"])
def test_each_window_and_noise_setting_moves_simulate_and_sweep(tmp_path, path, value):
    # one setting per quantity: `simulate` and `sweep` read the same noise, window and step
    cfg = shipped_config("frequency_clean", "unused", set_path("sensor.amplitude", 0.05))
    changed = json.loads(json.dumps(cfg))
    set_path(path, value)(changed)
    for command in ("simulate", "sweep"):
        assert outputs_of(command, changed, tmp_path) != outputs_of(command, cfg, tmp_path)


def test_sim_h_steps_every_window_of_a_horizon_sweep(tmp_path):
    # figure4 has no sim.h, so each r is stepped at r/2000; 0.002 is r/2000 of no r_values entry
    def rows(edit):
        cfg = shipped_config("figure4", "unused", edit)
        csv = outputs_of("sweep", cfg, tmp_path, ["--mode", "horizon"])["run_sweep.csv"].decode()
        return [row.split(",") for row in csv.splitlines()[1:]]

    shipped, stepped = rows(lambda cfg: None), rows(set_path("sim.h", 0.002))
    assert len(stepped) == len(shipped) == 6
    for old, (r, omega, _) in zip(shipped, stepped):
        assert old[1] != omega, r
        scn = apps.FrequencyScenario(amplitude=2.0, omega=3.0, phase=1.9, noise_amplitude=0.2,
                                     noise_frequency=10.0, r=float(r), h=0.002)
        assert omega == f"{apps.estimate_frequency(scn):.12e}", r


@pytest.mark.parametrize("key", ["r", "h", "noise_amplitude", "noise_frequency"])
def test_scenario_is_the_signal_alone(tmp_path, capsys, key):
    cfg = shipped_config("frequency_clean", str(tmp_path / "old"),
                         add_field("system.scenario", key, 1.0))
    for command in ("simulate", "observability", "sweep"):
        assert main([command, write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (f"error: invalid config: unknown field "
                                           f"`system.scenario.{key}`\n")
    assert not list(tmp_path.glob("old_*"))


def test_unknown_input_kind(tmp_path, capsys):
    cfg = scalar_config(str(tmp_path / "x"), input={"kind": "ramp"})
    for command in ("simulate", "observability"):
        assert main([command, write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert "unknown field `input.kind`" in capsys.readouterr().err
    assert not list(tmp_path.glob("x_*"))


@pytest.mark.parametrize("command, make", [
    ("simulate", scalar_config),
    ("observability", scalar_config),
    ("sweep", frequency_sweep_config),
])
def test_unwritable_output_is_one_error_line(tmp_path, capsys, command, make):
    prefix = tmp_path / "missing" / "out"
    assert main([command, write_config(tmp_path, make(str(prefix)))]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1, err
    assert str(prefix) in err and not (tmp_path / "missing").exists()


def lti_full_config(prefix):
    """A = [[50]] in full mode from z0 = 1e300: the full-order flow diverges."""
    return {
        "system": {"kind": "lti", "A": [[50.0]], "b": [0.0], "C": [[1.0]], "f": [0.0]},
        "sim": {"t_end": 1.0, "h": 0.01, "x0": [1.0], "y0": [0.0]},
        "observer": {"r": 0.5, "mode": "full", "z0": [1e300], "w0": [0.0]},
        "output_prefix": prefix,
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make, message", [
    (lambda prefix: shipped_config("frequency_clean", prefix,
                                   set_field("observer", "z0", [1.0, -4e8])),
     "runtime failure: observer flow diverged at t = 0.058"),
    (lti_full_config, "runtime failure: observer flow diverged at t = 0.28"),
], ids=["frequency_clean", "lti"])
def test_full_order_replay_divergence_is_one_error_line(tmp_path, capsys, make, message):
    cfg = make(str(tmp_path / "div"))
    assert main(["simulate", write_config(tmp_path, cfg)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not list(tmp_path.glob("div_*"))


def add_field(section, key, value=1.0):
    """Set ``key`` of the section at the dotted path ``section`` (None: the top level)."""
    def edit(cfg):
        node = cfg
        for name in section.split(".") if section else ():
            node = node.setdefault(name, {})
        node[key] = value
    return edit


@pytest.mark.parametrize("name, command, edit, field", [
    ("reactor", "simulate", add_field(None, "ouput_prefix", "x"), "config.ouput_prefix"),
    ("reactor", "simulate", add_field(None, "det_nodes", [0, 1]), "config.det_nodes"),
    ("reactor", "simulate", add_field("system", "scenario", {}), "system.scenario"),
    ("frequency_clean", "simulate", add_field("system", "relaxed_domain", True),
     "system.relaxed_domain"),
    ("scalar_oracle", "observability", add_field("system", "c_1"), "system.c_1"),
    # the scalar kind is the LTI plant x' = a0 x, y' = f0 + c0 x
    ("scalar_oracle", "simulate", add_field("system", "c1", 0.0), "system.c1"),
    ("scalar_oracle", "simulate", add_field("system", "input_gain", 0.0), "system.input_gain"),
    ("example26", "observability", add_field("system", "a1"), "system.a1"),
    ("reactor", "simulate", add_field("sim", "t_edn"), "sim.t_edn"),
    ("reactor", "simulate", add_field("observer", "mdoe", "full"), "observer.mdoe"),
    ("reactor", "observability", add_field("observer", "on_degenrate", "fail"),
     "observer.on_degenrate"),
    ("scalar_oracle", "simulate", add_field("input", "values", [1.0]), "input.values"),
    ("figure1", "sweep", add_field("sweep", "phase", 8), "sweep.phase"),
    ("figure4", "sweep", add_field("sweep", "mode", "horizon"), "sweep.mode"),
    ("figure1", "sweep", add_field("system.scenario", "noise_amplitud", 0.1),
     "system.scenario.noise_amplitud"),
    ("reactor_lumped", "simulate", add_field("system.params", "a_margn"),
     "system.params.a_margn"),
    ("scalar_oracle", "simulate", add_field("sensor", "amplitud", 0.1), "sensor.amplitud"),
    # a frequency plant starts from its scenario, and w0 is a full-mode field
    *[(name, command, edit, field) for command in ("simulate", "observability")
      for name, edit, field in [
          ("frequency_clean", lambda cfg: cfg["sim"].update(x0=[0.0, -16.0], y0=[1.0]), "sim.x0"),
          ("frequency_clean", add_field("sim", "y0", [1.0]), "sim.y0"),
          ("reactor", add_field("observer", "w0", [1e9]), "observer.w0")]],
], ids=["top", "det_nodes", "reactor", "relaxed_domain", "scalar", "scalar-c1",
        "scalar-input_gain", "example26", "sim",
        "observer-mode", "observer-on_degenerate", "input", "sweep", "sweep-mode", "scenario",
        "params", "sensor", *[f"{field}-{command}" for command in ("simulate", "observability")
                              for field in ("frequency-x0-y0", "frequency-y0", "reduced-w0")]])
def test_unknown_section_field_is_a_config_error(tmp_path, capsys, name, command, edit, field):
    cfg = shipped_config(name, str(tmp_path / "typo"), edit)
    assert main([command, write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: invalid config: unknown field `{field}`\n"
    assert not list(tmp_path.glob("typo_*"))


@pytest.mark.parametrize("name, section, value, h", [
    ("scalar_oracle", "config", [1.0], None),
    ("scalar_oracle", "sim", [1.0], None),
    ("scalar_oracle", "observer", [1.0], None),
    ("scalar_oracle", "input", [1.0], None),
    ("scalar_oracle", "sweep", [1.0], None),
    ("scalar_oracle", "sensor", "x", None),
    ("frequency_clean", "system", [1.0], None),
    ("frequency_clean", "system", [1.0], 0.001),
    ("frequency_clean", "system.scenario", 5.0, None),
    ("reactor_lumped", "system.params", [1.0], None),
], ids=["config", "sim", "observer", "input", "sweep", "sensor", "system", "system-h",
        "scenario", "params"])
def test_config_or_section_that_is_not_an_object_is_a_config_error(tmp_path, capsys, name,
                                                                   section, value, h):
    parent, _, key = section.rpartition(".")
    cfg = (value if section == "config" else
           shipped_config(name, str(tmp_path / "list"), add_field(parent, key, value)))
    if h is not None:
        cfg["sim"]["h"] = h
    assert main(["simulate", write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: invalid config: `{section}` must be an object\n"
    assert not list(tmp_path.glob("list_*"))


def set_path(path, value):
    """Set the field at the dotted ``path`` of a config, making its sections as needed."""
    *sections, key = path.split(".")
    return add_field(".".join(sections) or None, key, value)


@pytest.mark.parametrize("name, command, path, value, message", [
    ("figure1", "sweep", "sweep.phases", [[1.0]],
     "`sweep.phases` must be a number or a list of numbers"),
    ("figure1", "sweep", "sweep.phases", 0.0,
     "`sweep.phases`: a phase count must be a whole number >= 1, got 0.0"),
    ("figure1", "sweep", "sweep.phases", -1.0,
     "`sweep.phases`: a phase count must be a whole number >= 1, got -1.0"),
    ("figure1", "sweep", "sweep.phases", 1.5,
     "`sweep.phases`: a phase count must be a whole number >= 1, got 1.5"),
    ("figure1", "sweep", "sweep.phases", [],
     "`sweep.phases`: a phase sweep needs at least one phase"),
    ("figure4", "sweep", "sweep.r_values", [],
     "`sweep.r_values`: a horizon sweep needs at least one scenario"),
    ("figure4", "sweep", "sweep.r_values", [-1.0],
     "`sweep.r_values`: amplitude, omega and r must be positive"),
    ("scalar_oracle", "simulate", "sim.h", True, "`sim.h` must be a number"),
    ("scalar_oracle", "observability", "system.a0", "x", "`system.a0` must be a number"),
    ("scalar_oracle", "simulate", "observer.z0", {"a": 1.0},
     "`observer.z0` must be a number or a list of numbers"),
    ("scalar_oracle", "simulate", "input.value", [[1.0]],
     "`input.value` must be a number or a list of numbers"),
    ("frequency_clean", "simulate", "system.scenario.omega", [3.0],
     "`system.scenario.omega` must be a number"),
    ("reactor_lumped", "simulate", "system.params.k1", None,
     "`system.params.k1` must be a number"),
    ("scalar_oracle", "simulate", "sim.t_end", 2.5003,
     "`sim`: span 2.5003 is not a positive integer multiple of step 0.0005"),
    ("frequency_clean", "sweep", "sim.h", 0.3,
     "`observer`: window length r=1.0 must be an integer multiple (>= 2) of h=0.3"),
    ("frequency_clean", "simulate", "sim.h", 0.3,
     "`sim`: span 2.5 is not a positive integer multiple of step 0.3"),
    ("scalar_oracle", "simulate", "sim.t_end", 1e300,
     "`sim`: a grid of 2e+303 nodes exceeds the limit of 10000000 nodes"),
    ("figure1", "sweep", "sweep.phases", 1e300,
     "`sweep.phases`: a grid of 1e+300 nodes exceeds the limit of 10000000 nodes"),
    ("scalar_oracle", "simulate", "sim.t_end", 1e9,
     "`sim`: a grid of 2e+12 nodes exceeds the limit of 10000000 nodes"),
    ("scalar_oracle", "simulate", "sim.h", 1e-310,
     "`sim`: a grid of inf nodes exceeds the limit of 10000000 nodes"),
    ("scalar_oracle", "simulate", "observer.r", 1e300,
     "`observer`: a grid of 2e+303 nodes exceeds the limit of 10000000 nodes"),
    ("figure4", "sweep", ("sim.h", "sweep.r_values"), (0.001, [1.0, 1.0005]),
     "`sweep.r_values`: window length r=1.0005 must be an integer multiple (>= 2) of h=0.001"),
    ("figure1", "sweep", "sim.h", 1.0,
     "`observer`: window length r=1.0 must be an integer multiple (>= 2) of h=1.0"),
    ("figure4", "sweep", "sweep.phases", 0.0,
     "`sweep.phases`: a phase count must be a whole number >= 1, got 0.0"),
    ("figure1", "sweep", "sweep.r_values", [],
     "`sweep.r_values`: a horizon sweep needs at least one scenario"),
    ("reactor", "simulate", "system.params", "canonical", "`system.params` must be an object"),
    ("scalar_oracle", "simulate", "input", {}, "missing field `input.value`"),
], ids=["phases-nested", "phases-zero", "phases-negative", "phases-fraction", "phases-empty",
        "r_values-empty", "r_values-negative", "h-true", "a0-string", "z0-object", "input-nested",
        "omega-list", "k1-null", "t_end-multiple", "scenario-h-sweep", "scenario-h-simulate",
        "t_end-unindexable", "phases-unindexable", "t_end-unallocatable", "h-inf-nodes",
        "r-oversized", "r_values-multiple", "sweep-one-step", "phases-in-horizon-mode",
        "r_values-in-phase-mode", "params-canonical", "input-empty"])
def test_config_value_of_the_wrong_type_or_range_is_a_config_error(tmp_path, capsys, name,
                                                                   command, path, value, message):
    # a tuple of paths sets each to its own value
    edits = [set_path(*pair) for pair in (zip(path, value) if isinstance(path, tuple)
                                          else [(path, value)])]
    cfg = shipped_config(name, str(tmp_path / "bad"), lambda cfg: [edit(cfg) for edit in edits])
    # figure4's sweep runs as shipped, a horizon sweep; the other sweeps are phase sweeps
    flags = ["--mode", "horizon"] if (name, command) == ("figure4", "sweep") else []
    assert main([command, write_config(tmp_path, cfg), *flags]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: invalid config: {message}\n"
    assert not list(tmp_path.glob("bad_*"))


def test_output_prefix_that_is_not_a_string_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = json.loads((CONFIG_DIR / "scalar_oracle.json").read_text())
    cfg["output_prefix"] = 5
    assert main(["simulate", write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("error: invalid config: `config.output_prefix` "
                                       "must be a string\n")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("name, edit, message", [
    ("frequency_clean", lambda cfg: cfg["observer"].pop("w0"), "missing field `observer.w0`"),
    ("reactor_lumped", lambda cfg: cfg["system"]["params"].pop("k1"),
     "missing field `system.params.k1`"),
], ids=["full-w0", "reactor-k1"])
def test_missing_required_value_is_a_config_error(tmp_path, capsys, name, edit, message):
    cfg = shipped_config(name, str(tmp_path / "bad"), edit)
    assert main(["simulate", write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: invalid config: {message}\n"
    assert not list(tmp_path.glob("bad_*"))


@pytest.mark.parametrize("name, command", [
    ("example26", "simulate"), ("example26", "observability"), ("figure1", "sweep"),
])
def test_an_input_without_its_value_is_a_config_error_for_every_command(tmp_path, capsys, name,
                                                                         command):
    # observability of example26 runs under the constructed input and a sweep under none
    cfg = shipped_config(name, str(tmp_path / "bad"), set_path("input", {}))
    assert main([command, write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: invalid config: missing field `input.value`\n"
    assert not list(tmp_path.glob("bad_*"))


@pytest.mark.parametrize("A, C, code, message", [
    ([[0.0, 1.0], [0.0]], [[1.0], [0.0]], EXIT_CONFIG,
     "invalid config: `system.A` must be a list of lists of numbers of one length"),
    ([[0.0, 1.0], [0.0, 0.0]], [[1.0]], EXIT_RUNTIME, "C must have 2 rows, got (1, 1)"),
    ([[0.0, 1.0], [0.0, 0.0]], [[1.0], [0.0], [2.0], [3.0]], EXIT_RUNTIME,
     "C must have 2 rows, got (4, 1)"),
    ([[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0, 2.0, 3.0]], EXIT_RUNTIME,
     "C must have 2 rows, got (1, 4)"),
], ids=["ragged-A", "short-C", "tall-C", "wide-C"])
def test_lti_blocks_of_the_wrong_shape_end_with_one_error_line(tmp_path, capsys, A, C, code,
                                                              message):
    cfg = {"system": {"kind": "lti", "A": A, "b": [0.0, 0.0], "C": C, "f": [0.0]},
           "sim": {"t_end": 1.0, "h": 0.01, "x0": [1.0, 0.0], "y0": [0.0]},
           "observer": {"r": 0.5, "z0": [0.0, 0.0]},
           "output_prefix": str(tmp_path / "bad")}
    assert main(["simulate", write_config(tmp_path, cfg)]) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("bad_*"))


def test_observability_rejects_a_bad_sensor_before_the_plant_runs(tmp_path, capsys):
    # the plant alone would fail at node 1 (exit 3); the sensor is built first
    def edit(cfg):
        cfg["sim"]["y0"] = [1e160]
        cfg["sensor"] = {"amplitude": -1.0}
    cfg = shipped_config("example26", str(tmp_path / "bad"), edit)
    assert main(["observability", write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("error: invalid config: `sensor`: "
                                       "noise amplitude must be >= 0\n")
    assert not list(tmp_path.glob("bad_*"))


def one_shot_csv(header, columns, flags):
    """The table as one write: every column stacked and every row listed before the first."""
    table = np.column_stack(columns)
    fmt = ",".join(["%.12e"] * (table.shape[1] - flags) + ["%d"] * flags) + "\n"
    return (",".join(header) + "\n" + "".join(fmt % tuple(row) for row in table.tolist())).encode()


BLOCK = cli.CSV_BLOCK_ROWS


@pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_write_csv_writes_the_bytes_of_the_whole_table(tmp_path, rows):
    rng = np.random.default_rng(rows)
    x = rng.standard_normal((rows, 2)) * 10.0 ** rng.integers(-300, 300, (rows, 2))
    x[0] = [np.nan, -np.inf]
    columns = [np.linspace(0.0, 1.0, rows), x, -rng.random((rows, 1)),
               rng.integers(0, 2, rows), rng.random(rows) < 0.5]
    header = ["t", "x0", "x1", "y0", "reset_flag", "degenerate_flag"]
    cli.write_csv(str(tmp_path / "table.csv"), header, columns, flags=2)
    assert (tmp_path / "table.csv").read_bytes() == one_shot_csv(header, columns, 2)


def test_write_csv_memory_does_not_grow_with_the_table(tmp_path):
    rows = 20_000
    columns = [np.linspace(0.0, 1.0, rows), np.random.default_rng(0).standard_normal((rows, 8)),
               np.zeros(rows, dtype=int), np.ones(rows, dtype=int)]
    header = ["t"] + [f"x{i}" for i in range(8)] + ["reset_flag", "degenerate_flag"]
    tracemalloc.start()
    try:
        cli.write_csv(str(tmp_path / "big.csv"), header, columns, flags=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
