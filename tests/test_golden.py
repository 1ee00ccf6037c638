"""Every shipped config under every command reproduces its golden record.

The records in ``tests/golden/`` pin exit codes, console output and the bytes
of every output file; ``tests/golden.py`` documents how to rewrite them.
"""

import json

import pytest

import golden


def test_every_run_has_a_record():
    assert sorted(p.stem for p in golden.RECORD_DIR.glob("*.json")) == golden.run_names()
    assert len(golden.run_names()) == 36


@pytest.mark.parametrize("name", golden.run_names())
def test_run_matches_record(name):
    old = json.loads(golden.record_path(name).read_text())
    new = golden.run(name)
    moved = golden.differences(old, new)
    assert not moved, f"{name} moved:\n" + "\n".join(moved)
