"""The CLI's exit-code contract as a property of the shipped configs.

Each example sets one numeric leaf of one shipped config to another number or
to a value of another JSON type (a string, a bool, null, a list or an object),
or replaces one of its sections (an object, nested ones included) with a
string, a number, a list or null, and runs one command in-process, with
warnings raised as errors.  The contract: the exit code is 0, 2 or 3;
nothing escapes ``main`` (no traceback, no numpy warning); a failing run prints
exactly one ``error:`` line, and a successful one prints nothing on stderr.  A
number or a section replaced by a value of another JSON type is a config error
(exit 2) whose line names the field as ``section.key``.

The grid sizes stay as shipped: the drawn examples never change the fields h,
t_end, r, r_values and phases, and the explicit examples that do set them to
values rejected before any grid is built, so no example builds a larger grid
than its config.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from deadbeat_observer.cli import (  # noqa: E402
    EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
CONFIGS = {path.stem: json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))}
COMMANDS = ("simulate", "observability", "sweep")
GRID_FIELDS = {"h", "t_end", "r", "r_values", "phases"}


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def numeric_leaves(node, path=()):
    """Paths (tuples of keys and indices) to the numbers of a config, outside GRID_FIELDS."""
    if isinstance(node, dict):
        items = ((key, value) for key, value in node.items() if key not in GRID_FIELDS)
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path] if is_number(node) else []
    return [leaf for key, value in items for leaf in numeric_leaves(value, path + (key,))]


def objects(node, path=()):
    """Paths to the objects of a config, the config itself first."""
    if not isinstance(node, dict):
        return []
    return [path] + [obj for key, value in node.items() for obj in objects(value, path + (key,))]


LEAVES = {name: numeric_leaves(cfg) for name, cfg in CONFIGS.items()}
SECTIONS = {name: objects(cfg)[1:] for name, cfg in CONFIGS.items()}
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
NOT_NUMBERS = st.one_of(st.text(max_size=3), st.booleans(), st.none(),
                        st.lists(FLOATS, max_size=2),
                        st.dictionaries(st.text(max_size=2), FLOATS, max_size=1))


def leaf(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


@st.composite
def cases(draw):
    """(config, command, path, new value): a numeric leaf set to a scale or sign
    change of the shipped value, an extreme magnitude, any finite float or a
    value that is not a number, or a section set to a string, a number, a list
    or null."""
    name = draw(st.sampled_from(sorted(LEAVES)))
    kind = draw(st.integers(0, 5))  # most cases set a number, so that leaves stay covered
    if kind == 0:
        path = draw(st.sampled_from(SECTIONS[name]))
        value = draw(st.one_of(st.text(max_size=3), FLOATS, st.lists(FLOATS, max_size=2),
                               st.none()))
    elif kind == 1:
        path = draw(st.sampled_from(LEAVES[name]))
        value = draw(NOT_NUMBERS)
    else:
        path = draw(st.sampled_from(LEAVES[name]))
        v = leaf(CONFIGS[name], path)
        value = draw(st.one_of(st.sampled_from([0.0, -v, 1e300, 1e-300, 1e160, 1e8 * v]),
                               FLOATS))
    return name, draw(st.sampled_from(COMMANDS)), path, value


def mistyped_field(name, path, value):
    """``section.key`` of ``path`` when ``value`` replaces a number or an object of the
    shipped config with a value of another JSON type, else None."""
    shipped = leaf(CONFIGS[name], path)
    if (is_number(shipped) and not is_number(value)
            or isinstance(shipped, dict) and not isinstance(value, dict)):
        return ".".join(key for key in path if isinstance(key, str))
    return None


def run(name, command, path, value):
    # figure4's sweep runs as shipped, a horizon sweep; the other sweeps are phase sweeps
    flags = ["--mode", "horizon"] if (name, command) == ("figure4", "sweep") else []
    cfg = json.loads(json.dumps(CONFIGS[name]))
    *parents, last = path
    leaf(cfg, parents)[last] = value
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, str(config), "--out-prefix", str(Path(tmp) / "out"), *flags])
    return code, stderr.getvalue()


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=cases())
# the findings of a fuzz of these leaves, each now a documented exit
@example(case=("frequency_clean", "simulate", ("observer", "z0", 1), -4e8))
@example(case=("frequency_clean", "simulate", ("system", "scenario", "omega"), 1e200))
@example(case=("frequency_clean", "observability", ("system", "scenario", "omega"), 1e200))
@example(case=("frequency_clean", "simulate", ("system", "scenario", "amplitude"), 1e160))
@example(case=("frequency_clean", "simulate", ("system", "scenario", "amplitude"), 1e300))
@example(case=("example26", "observability", ("sim", "x0", 1), -3e7))
@example(case=("example26", "observability", ("sim", "y0", 0), 1e160))
@example(case=("reactor_lumped", "simulate", ("system", "params", "E2"), 1e300))
@example(case=("reactor_lumped", "observability", ("system", "params", "J2"), 1e-153))
@example(case=("scalar_oracle", "simulate", ("system", "a0"), 1e300))
@example(case=("scalar_oracle", "simulate", ("system", "c0"), 1e300))
@example(case=("scalar_oracle", "simulate", ("sim", "x0", 0), 1e300))
# sections of another JSON type, each now a config error
@example(case=("scalar_oracle", "simulate", ("sensor",), "x"))
@example(case=("frequency_clean", "simulate", ("system", "scenario"), 5.0))
@example(case=("reactor_lumped", "simulate", ("system", "params"), [1.0]))
@example(case=("frequency_clean", "simulate", ("system",), [1.0]))
# example26 initial states of the wrong shape, each now a runtime error
@example(case=("example26", "observability", ("sim", "x0"), 5.0))
@example(case=("example26", "observability", ("sim", "x0"), [1.0]))
@example(case=("example26", "observability", ("sim", "x0"), None))
@example(case=("example26", "observability", ("sim", "x0"), True))
@example(case=("example26", "observability", ("sim", "x0"), []))
@example(case=("example26", "observability", ("sim", "y0"), []))
# the findings of a fuzz that also set the grid fields, each now a config error
@example(case=("figure1", "sweep", ("sweep", "phases"), [[1.0]]))
@example(case=("scalar_oracle", "simulate", ("sim", "h"), True))
@example(case=("scalar_oracle", "simulate", ("output_prefix",), 5.0))
@example(case=("figure1", "sweep", ("sweep", "phases"), 0.0))
@example(case=("figure1", "sweep", ("sweep", "phases"), -1.0))
@example(case=("figure1", "sweep", ("sweep", "phases"), 1.5))
@example(case=("figure4", "sweep", ("sweep", "r_values"), [-1.0]))
@example(case=("scalar_oracle", "simulate", ("sim", "t_end"), 2.5003))
@example(case=("frequency_clean", "sweep", ("sim", "h"), 0.3))
# values of another JSON type in place of a number
@example(case=("scalar_oracle", "observability", ("system", "a0"), "x"))
@example(case=("reactor_lumped", "simulate", ("system", "params", "k1"), None))
@example(case=("frequency_clean", "sweep", ("system", "scenario", "omega"), [3.0]))
@example(case=("reactor", "simulate", ("observer", "z0", 1), {"a": 1.0}))
@example(case=("example26", "observability", ("sim", "x0", 0), False))
def test_every_run_ends_with_a_documented_exit(case):
    code, err = run(*case)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME)
    if code == EXIT_OK:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    name, _, path, value = case
    field = mistyped_field(name, path, value)
    if field is not None:
        assert code == EXIT_CONFIG, err
        assert err.startswith(f"error: invalid config: `{field}` must be "), err
