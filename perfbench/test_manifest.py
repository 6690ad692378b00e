"""BENCHMARK.json and the tables in run.py name the same workloads and
metrics with the same units.

Run with: python3 -m pytest perfbench -q
"""

import json
import os

import run
import workloads


def _manifest():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_workloads_match():
    assert [w["name"] for w in _manifest()["workloads"]] == list(workloads.WORKLOADS)


def test_metrics_and_units_match():
    doc = _manifest()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in doc["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
