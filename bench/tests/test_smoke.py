import json
import os
import subprocess
import sys

import pytest

from bench import ROOT, runner
from bench.workloads import WORKLOADS, load_golden


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(runner, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_reduced_run_passes_its_golden_checks(name):
    result = runner.run(name, seed=5, seconds=0, trace=False, max_ops=2)
    assert result.correct, result.errors
    assert result.attempted == 2
    assert set(result.e2e) == set(runner.E2E_METRICS)
    assert all(value > 0 for value in result.e2e.values())


def test_same_seed_same_inputs():
    first = WORKLOADS["ring-small"](load_golden(), ROOT)
    second = WORKLOADS["ring-small"](load_golden(), ROOT)
    first.seed = second.seed = 7
    orders = []
    for workload in (first, second):
        (work, _check), = workload.round(4)
        orders.append(work.args[0])
    assert orders[0] == orders[1]
    assert sorted(orders[0]) == sorted(c.name for c in first.configs)


def _corrupt(monkeypatch, mutate):
    golden = load_golden()
    mutate(golden)
    monkeypatch.setattr(runner, "load_golden", lambda: golden)


def test_corrupt_step_golden_fails_the_run(monkeypatch, tmp_path):
    def mutate(golden):
        golden["step_time_s"]["step-8r"] *= 1 + 1e-6
    _corrupt(monkeypatch, mutate)
    out = tmp_path / "runs.jsonl"
    assert runner.main_run("ring-small", 0, 0, False, 2, out) != 0
    record = json.loads(out.read_text())
    assert record["failed_frac"] > 0


def test_corrupt_cell_golden_fails_ops(monkeypatch, tmp_path):
    def mutate(golden):
        cells = golden["figures"]["cells"]
        warm_up = min(cells)
        for key in cells:
            if key != warm_up:
                cells[key] = "0" * 32
    _corrupt(monkeypatch, mutate)
    out = tmp_path / "runs.jsonl"
    assert runner.main_run("figures-sweep", 0, 0, False, 2, out) != 0
    record = json.loads(out.read_text())
    assert record["failed"] == record["attempted"] == 2
    assert record["failed_frac"] == 1.0


def test_command_line_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "tenants-chaos",
         "--seed", "2", "--ops", "2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(runner.E2E_METRICS)


def test_bare_copy_exits_nonzero_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "ring-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
        env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
