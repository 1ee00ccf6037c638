"""Every BENCH_*.json at the root of the repository parses and summarises its runs.

A record holds the benchmark runs of one change against its parent.  Its
``summary_trace0`` gives, for every workload and end-to-end metric declared in
``BENCHMARK.json``, the first quartile, median and third quartile of the
parent's and of the change's untraced runs.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(w["name"] for w in BENCHMARK["workloads"])
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_summarises_every_workload_and_metric(path):
    record = json.loads(path.read_text())
    for key in ("what", "command", "protocol", "summary_trace0"):
        assert key in record, key
    summary = record["summary_trace0"]
    assert sorted(summary) == WORKLOADS
    for workload in WORKLOADS:
        metrics = summary[workload]["metrics"]
        for name in END_TO_END:
            for side in ("parent_q1_median_q3", "change_q1_median_q3"):
                triple = metrics[name][side]
                assert len(triple) == 3, (workload, name, side)
                assert all(isinstance(v, float) and math.isfinite(v) for v in triple)
                assert triple[0] <= triple[1] <= triple[2], (workload, name, side)
