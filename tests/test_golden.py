"""Every shipped config under every command reproduces its golden record.

The records in ``tests/golden/`` pin exit codes, console output and the bytes
of every output file; ``tests/golden.py`` documents how to rewrite them.
"""

import json

import pytest

from deadbeat_observer.errors import NotPositiveDefinite
from deadbeat_observer.numerics import require_pivot

import golden


def test_every_run_has_a_record():
    assert sorted(p.stem for p in golden.RECORD_DIR.glob("*.json")) == golden.run_names()
    assert len(golden.run_names()) == 40


@pytest.mark.parametrize("name", golden.run_names())
def test_run_matches_record(name):
    old = json.loads(golden.record_path(name).read_text())
    new = golden.run(name)
    moved = golden.differences(old, new)
    assert not moved, f"{name} moved:\n" + "\n".join(moved)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_strict_json_rejects_a_non_finite_constant(constant):
    # every JSON output of a golden run is read this way: the README promises strict JSON
    assert golden.strict_json('{"max_rel_error": 0.5}') == {"max_rel_error": 0.5}
    with pytest.raises(ValueError, match=constant):
        golden.strict_json(f'{{"max_rel_error": {constant}}}')


def test_csv_move_is_the_largest_relative_move():
    old = "t,x\n0.0,1.0\n1.0,-2.0\n2.0,nan\n"
    assert golden.csv_move(old, old) == 0.0
    assert golden.csv_move(old, "t,x\n0.0,1.0\n1.0,-2.5\n2.0,nan\n") == pytest.approx(0.2)
    assert golden.csv_move(old, "t,x\n0.0,1.0\n1.0,-2.0\n2.0,3.0\n") == float("inf")
    assert golden.csv_move(old, "t,y\n0.0,1.0\n1.0,-2.0\n2.0,nan\n") == "header or row count moved"
    assert golden.csv_move(old, "t,x\n0.0,1.0\n") == "header or row count moved"


def test_key_moves_names_each_added_removed_and_changed_key():
    old = {"certificate": "degenerate", "det_nodes": [0, 2000], "trace": 0.25}
    assert golden.key_moves(old, old) == []
    assert golden.key_moves(old, {"certificate": "degenerate", "trace": 0.5, "r": None}) == [
        "det_nodes removed", "r added: None", "trace: 0.25 -> 0.5"]


def test_each_observability_record_agrees_with_its_own_numbers():
    # the certificate is the one rule, require_pivot, on the report's own pivot and trace
    reports = [json.loads(golden.record_path(name).read_text())["json"].get("_observability.json")
               for name in golden.run_names() if name.endswith("_observability")]
    reports = [report for report in reports if report and "certificate" in report]
    assert len(reports) == 9
    for report in reports:
        try:
            require_pivot(report["smallest_pivot"], report["trace"], len(report["eigenvalues"]))
            degenerate = False
        except NotPositiveDefinite:
            degenerate = True
        assert degenerate == (report["certificate"] == "degenerate"), report["system"]
