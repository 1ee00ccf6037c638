"""Every shipped config under every command reproduces its golden record.

The records in ``tests/golden/`` pin exit codes, console output and the bytes
of every output file; ``tests/golden.py`` documents how to rewrite them.
"""

import json

import pytest

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


def test_csv_move_is_the_largest_relative_move():
    old = "t,x\n0.0,1.0\n1.0,-2.0\n2.0,nan\n"
    assert golden.csv_move(old, old) == 0.0
    assert golden.csv_move(old, "t,x\n0.0,1.0\n1.0,-2.5\n2.0,nan\n") == pytest.approx(0.2)
    assert golden.csv_move(old, "t,x\n0.0,1.0\n1.0,-2.0\n2.0,3.0\n") == float("inf")
    assert golden.csv_move(old, "t,y\n0.0,1.0\n1.0,-2.0\n2.0,nan\n") == "header or row count moved"
    assert golden.csv_move(old, "t,x\n0.0,1.0\n") == "header or row count moved"
