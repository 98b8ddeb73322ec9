"""BENCHMARK.json and the benchmark's own metric table agree."""

import json
from pathlib import Path

from perfbench.spec import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_metrics_match_the_table():
    assert [tuple(m.values()) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [tuple(m.values()) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)


def test_workloads_match():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(0 < len(w["why"]) <= 200 for w in BENCHMARK["workloads"])


def test_setup_metric_is_present():
    names = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert names["setup_s"]["unit"] == "s"
    assert names["setup_s"]["better"] == "lower"
    assert names["setup_s"]["bound"] == max(m["bound"] for m in names.values())
