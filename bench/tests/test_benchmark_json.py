"""``BENCHMARK.json`` must describe exactly what the benchmark reports."""

import json

from bench import ROOT
from bench.runner import E2E_METRICS
from bench.trace import LAYER_METRICS
from bench.workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {name: cls.why for name, cls in WORKLOADS.items()}


def test_metrics_match():
    assert {m["name"]: (m["unit"], m["better"])
            for m in SPEC["end_to_end"]} == E2E_METRICS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_METRICS


def test_bounds_and_command():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    # At least 5%, at most the 25% the file's schema allows; set-up time
    # gets the largest so that work moved into set-up shows.
    assert all(0.05 <= bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert SPEC["command"][:3] == ["python3", "-m", "bench"]
    assert SPEC["paths"] == ["bench"]
