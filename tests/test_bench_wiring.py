"""The benchmark's span wrappers on the real package.

``perfbench/spans.instrument`` looks up every name it wraps when its block is
entered, so entering it fails on a name the package no longer has.  Each spec
factory it wraps returns a spec whose four per-point evaluators are counted
under ``model.eval``; a factory that built its spec through another wrapped
factory would count each call twice.  The test only reads ``perfbench/``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from deadbeat_observer import applications, cli, numerics, observer, plant, window

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import spans  # noqa: E402

PKG = {"applications": applications, "cli": cli, "numerics": numerics,
       "observer": observer, "plant": plant, "window": window}


@pytest.mark.parametrize("name", ["scalar_oracle", "lti", "reactor", "frequency_clean",
                                  "example26"])
def test_each_evaluator_call_of_a_shipped_spec_counts_once(name):
    cfg = cli.load_config(ROOT / "configs" / f"{name}.json")
    with spans.instrument(spans.SpanRecorder(), PKG) as rec:
        spec, kind, extras = cli.build_system(cfg)
        y = cli.sim_section(cfg, extras, kind).y0
        u = np.zeros(spec.m)
        spec.eval_A(y, u)
        spec.eval_b(y, u)
        spec.eval_C(y)
        spec.eval_f(y, u)
    assert rec.counts[spans.EVAL] == 4
