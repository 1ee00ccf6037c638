"""Golden records of the CLI: every shipped config under every command.

One record per run of ``simulate``, ``observability``, ``sweep --mode phase``
and ``sweep --mode horizon`` on each ``configs/*.json``.  A record holds the
exit code, stdout, stderr, the warnings raised, the SHA-256 of every output
file and the summary, sweep-summary and observability JSON in full.
``tests/test_golden.py`` reruns the runs in-process and compares.

The bytes depend on numpy and its BLAS; the records pin numpy 2.4 on x86-64.
A change that moves output bytes on purpose rewrites them with

    PYTHONPATH=src python tests/golden.py --write

and names the moved files in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"
RECORD_DIR = Path(__file__).resolve().parent / "golden"
COMMANDS = {
    "simulate": ["simulate"],
    "observability": ["observability"],
    "sweep_phase": ["sweep", "--mode", "phase"],
    "sweep_horizon": ["sweep", "--mode", "horizon"],
}
PREFIX = "out"


def run_names():
    """``<config>_<command>`` for every shipped config and command, sorted."""
    return sorted(f"{config.stem}_{command}" for config in CONFIG_DIR.glob("*.json")
                  for command in COMMANDS)


def run(name):
    """Run one config x command in a fresh directory and return its record."""
    from deadbeat_observer.cli import main

    config, command = next((name[:-len(c) - 1], c) for c in COMMANDS if name.endswith("_" + c))
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / PREFIX
        argv = COMMANDS[command][:1] + [str(CONFIG_DIR / f"{config}.json"),
                                        "--out-prefix", str(prefix)] + COMMANDS[command][1:]
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(argv)
        files, documents = {}, {}
        for path in sorted(Path(tmp).iterdir()):
            suffix = path.name[len(PREFIX):]
            data = path.read_bytes()
            files[suffix] = hashlib.sha256(data).hexdigest()
            if path.suffix == ".json":
                documents[suffix] = json.loads(data)
    return {
        "argv": COMMANDS[command][:1] + [f"configs/{config}.json"] + COMMANDS[command][1:],
        "exit_code": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "files": files,
        "json": documents,
    }


def record_path(name):
    return RECORD_DIR / f"{name}.json"


def differences(old, new):
    """One line per part of a record that moved: a field, an output file or a JSON value."""
    lines = []
    for key in ("exit_code", "stdout", "stderr", "warnings"):
        if old[key] != new[key]:
            lines.append(f"{key}: {old[key]!r} -> {new[key]!r}")
    for suffix in sorted(set(old["files"]) | set(new["files"])):
        if old["files"].get(suffix) != new["files"].get(suffix):
            lines.append(f"file {PREFIX}{suffix} moved")
            before, after = old["json"].get(suffix), new["json"].get(suffix)
            if isinstance(before, dict) and isinstance(after, dict):
                for field in sorted(set(before) | set(after)):
                    if before.get(field) != after.get(field):
                        lines.append(f"  {field}: {before.get(field)!r} -> {after.get(field)!r}")
    return lines


def write_all():
    RECORD_DIR.mkdir(exist_ok=True)
    for name in run_names():
        record = run(name)
        record_path(name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"{name}: exit {record['exit_code']}, {len(record['files'])} files")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/golden.py --write")
    write_all()
