"""Golden records of the CLI: every shipped config under every command.

One record per run of ``simulate``, ``observability``, ``sweep --mode phase``
and ``sweep --mode horizon`` on each ``configs/*.json``.  A record holds the
exit code, stdout, stderr, the warnings raised, the SHA-256 of every output
file and the summary, sweep-summary and observability JSON in full.  Each JSON
output is read by a strict parser, so a ``NaN`` or ``Infinity`` in one fails
the run.
``tests/test_golden.py`` reruns the runs in-process and compares.

The bytes depend on numpy and its BLAS; the records pin numpy 2.4 on x86-64.
A change that moves output bytes on purpose rewrites them with

    PYTHONPATH=src python tests/golden.py --write

and names the moved files in CHANGES.md.  Before that,

    python tests/golden.py --against REV

reruns the runs at the git revision REV (from ``git archive``, in a temporary
directory) and in the working tree, each in a fresh process, and prints for
every output CSV the largest relative move between the two, and for every
output JSON each key that was added, removed or changed.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

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


def strict_json(text):
    """JSON ``text`` parsed strictly: ``NaN``, ``Infinity`` and ``-Infinity`` raise ValueError."""
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def run_names():
    """``<config>_<command>`` for every shipped config and command, sorted."""
    return sorted(f"{config.stem}_{command}" for config in CONFIG_DIR.glob("*.json")
                  for command in COMMANDS)


def parts(name):
    """(config, command) of a run name."""
    return next((name[:-len(c) - 1], c) for c in COMMANDS if name.endswith("_" + c))


def argv(name, root, prefix):
    """The CLI arguments of one config x command, with the configs of the checkout at ``root``."""
    config, command = parts(name)
    return (COMMANDS[command][:1] + [str(root / "configs" / f"{config}.json"),
                                     "--out-prefix", str(prefix)] + COMMANDS[command][1:])


def run(name):
    """Run one config x command in a fresh directory and return its record."""
    from deadbeat_observer.cli import main

    config, command = parts(name)
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / PREFIX
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(argv(name, ROOT, prefix))
        files, documents = {}, {}
        for path in sorted(Path(tmp).iterdir()):
            suffix = path.name[len(PREFIX):]
            data = path.read_bytes()
            files[suffix] = hashlib.sha256(data).hexdigest()
            if path.suffix == ".json":
                documents[suffix] = strict_json(data)
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
                lines += [f"  {move}" for move in key_moves(before, after)]
    return lines


def key_moves(before, after):
    """One line per key of two JSON objects that was added, removed or changed."""
    lines = []
    for field in sorted(set(before) | set(after)):
        if field not in after:
            lines.append(f"{field} removed")
        elif field not in before:
            lines.append(f"{field} added: {after[field]!r}")
        elif before[field] != after[field]:
            lines.append(f"{field}: {before[field]!r} -> {after[field]!r}")
    return lines


def write_all():
    RECORD_DIR.mkdir(exist_ok=True)
    for name in run_names():
        record = run(name)
        record_path(name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"{name}: exit {record['exit_code']}, {len(record['files'])} files")


def csv_move(old, new):
    """The largest relative move |b - a| / max(|a|, |b|) over the values of two CSV
    texts, 0 where both values are equal (or both NaN) and inf where one of them is NaN;
    a text saying so when the headers or the row counts differ."""
    (old_header, *old_rows), (new_header, *new_rows) = old.splitlines(), new.splitlines()
    if old_header != new_header or len(old_rows) != len(new_rows):
        return "header or row count moved"
    a, b = (np.array([[float(v) for v in row.split(",")] for row in rows])
            for rows in (old_rows, new_rows))
    with np.errstate(invalid="ignore"):
        move = np.abs(b - a) / np.maximum(np.abs(a), np.abs(b))
    equal = (a == b) | (np.isnan(a) & np.isnan(b))
    return float(np.where(equal, 0.0, np.nan_to_num(move, nan=np.inf)).max(initial=0.0))


def outputs(name, root, out):
    """Run one config x command with the package and configs of the checkout at ``root``
    in a fresh process; returns its exit code and {file suffix: text} of its outputs."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = subprocess.run([sys.executable, "-m", "deadbeat_observer.cli",
                           *argv(name, root, out / PREFIX)],
                          cwd=root, env=env, capture_output=True).returncode
    return code, {p.name[len(PREFIX):]: p.read_text() for p in sorted(out.iterdir())}


def against(rev):
    """Print, for every run and output CSV, the largest relative move from ``rev`` to
    the working tree; for every output JSON, each key that moved; and every exit code
    or output file that only one side has."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "rev").mkdir()
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tmp / "rev")], input=archive, check=True)
        for name in run_names():
            old_code, old = outputs(name, tmp / "rev", tmp / "old" / name)
            new_code, new = outputs(name, ROOT, tmp / "new" / name)
            if old_code != new_code:
                print(f"{name}: exit {old_code} -> {new_code}")
            for suffix in sorted(set(old) | set(new)):
                if suffix not in old or suffix not in new:
                    side = f"at {rev}" if suffix in old else "in the working tree"
                    print(f"{name} {PREFIX}{suffix}: only {side}")
                elif suffix.endswith(".csv"):
                    print(f"{name} {PREFIX}{suffix}: {csv_move(old[suffix], new[suffix])}")
                else:
                    for move in key_moves(json.loads(old[suffix]), json.loads(new[suffix])):
                        print(f"{name} {PREFIX}{suffix}: {move}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write_all()
    elif len(sys.argv) == 3 and sys.argv[1] == "--against":
        against(sys.argv[2])
    else:
        sys.exit("usage: python tests/golden.py --write | --against REV")
