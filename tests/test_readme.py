"""The README names what exists, and its example runs.

The paper-to-code map: every backticked ``module.name`` resolves in the
package, every criterion it cites is a ``test_criterion_N_*`` of
``tests/test_acceptance.py``, and every row shows its claim with a shipped
config and a command.  Every ``deadbeat-obs`` command of the README has a
golden record that exits 0.  The library tour: one row per module, every
Python name of a row resolves in its module, and the README keeps its size
caps.  The exception table lists every exception class of ``errors``, and the
config schema names every section, field and system kind that ``cli`` reads.
"""

import ast
import dataclasses
import importlib
import json
import re
from pathlib import Path

import pytest

from deadbeat_observer import cli, errors

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
PACKAGE = ROOT / "src" / "deadbeat_observer"
COMMAND = re.compile(r"deadbeat-obs (simulate|observability|sweep)"
                     r"(?: --mode (phase|horizon))? configs/(\w+)\.json")
CRITERIA = re.compile(r"criteri(?:on|a) (\d+(?:(?:, | and )\d+)*)")
TICKED = re.compile(r"`([^`]+)`")


def section(title):
    """The README's text from the heading ``## title...`` to the next ``## `` heading."""
    start = README.index(f"\n## {title}")
    end = README.find("\n## ", start + 1)
    return README[start:end if end > 0 else len(README)]


def table(text):
    """The lines of the first markdown table in ``text``, and its body rows as cell lists."""
    lines = [line for line in text.splitlines() if line.startswith("|")]
    return lines, [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]


def module(name):
    return importlib.import_module(f"deadbeat_observer.{name}")


def defined_in(mod, name):
    """Whether ``name`` is an attribute of ``mod`` or a field of one of its dataclasses."""
    return hasattr(mod, name) or any(
        dataclasses.is_dataclass(obj) and name in {f.name for f in dataclasses.fields(obj)}
        for obj in vars(mod).values() if isinstance(obj, type))


_, MAP = table(section("Paper → code"))
TOUR_LINES, TOUR = table(section("Library tour"))


def test_the_map_has_one_row_per_claim():
    assert len(MAP) == 6
    assert all(len(row) == 4 for row in MAP)


@pytest.mark.parametrize("row", MAP, ids=[f"claim-{i}" for i in range(1, len(MAP) + 1)])
def test_each_claim_names_functions_a_criterion_and_a_config(row):
    _, realized, checked, shown = row
    names = TICKED.findall(realized)
    assert names and all("." in name for name in names)
    for name in names:
        owner, attr = name.rsplit(".", 1)
        assert hasattr(module(owner), attr), f"{name} does not exist"
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    tests = {node.name for node in acceptance.body if isinstance(node, ast.FunctionDef)}
    cited = [int(n) for group in CRITERIA.findall(checked) for n in re.findall(r"\d+", group)]
    assert cited
    for n in cited:
        assert any(t.startswith(f"test_criterion_{n}_") for t in tests), f"no criterion {n}"
    assert COMMAND.search(shown), "no shipped config with its command"
    for config in re.findall(r"configs/(\w+)\.json", shown):
        assert (ROOT / "configs" / f"{config}.json").is_file()


def test_every_command_of_the_readme_has_a_golden_record_that_exits_0():
    commands = COMMAND.findall(README)
    assert commands
    for command, mode, config in commands:
        run = f"{config}_{command}" + (f"_{mode}" if mode else "")
        record = json.loads((ROOT / "tests" / "golden" / f"{run}.json").read_text())
        assert record["exit_code"] == 0, run


def test_the_tour_has_a_row_per_module_and_its_names_exist():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "errors"}
    assert sorted(row[0].strip("`") for row in TOUR) == sorted(modules)
    for name, api in TOUR:
        mod = module(name.strip("`"))
        for ticked in TICKED.findall(api):
            if re.fullmatch(r"[A-Za-z_]\w*", ticked):
                assert defined_in(mod, ticked), f"{name}: `{ticked}` does not exist"


def test_the_readme_keeps_its_size():
    assert len(README) <= 16_000
    assert sum(len(line) + 1 for line in TOUR_LINES) <= 4_000
    for name, api in TOUR:
        assert len(re.findall(r"\.(?=\s|$)", api)) <= 3, f"{name}: more than three sentences"


def test_the_exception_table_lists_every_exception():
    _, rows = table(section("Command line"))
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)}
    assert {row[0].strip("`") for row in rows} == classes


def field_names(table):
    """The keys of a table of config field types, those of its nested tables included."""
    names = set(table)
    for value in table.values():
        if isinstance(value, dict):
            names |= field_names(value)
    return names


def test_the_config_schema_names_every_section_field_and_kind():
    (schema,) = re.findall(r"```jsonc\n(.*?)```", README, re.S)
    words = set(re.findall(r"\w+", schema))
    assert field_names(cli._FIELDS) <= words, field_names(cli._FIELDS) - words
    assert field_names(cli._SYSTEM_FIELDS) <= words, field_names(cli._SYSTEM_FIELDS) - words
    (kinds,) = re.findall(r'"kind": "([^"]*)"', schema)
    assert sorted(kinds.split(" | ")) == sorted(cli._SYSTEM_FIELDS)


def test_the_python_example_reconstructs_the_state_after_one_window():
    (example,) = re.findall(r"```python\n(.*?)```", README, re.S)
    namespace = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert namespace["error"] <= 1e-9
