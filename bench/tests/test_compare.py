import json

from bench.__main__ import main
from bench.compare import compare
from bench.runner import E2E_METRICS

BENCHMARK = {"end_to_end": [
    {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]}
FINGERPRINT = {"python": "3.11", "numpy": "2", "scipy": "1", "cpu": "x",
               "nproc": 2, "commit": "abc", "loadavg_1m": 0.5}


def _write(path, values, failed=0, workload="ring-small", **fingerprint):
    with open(path, "w") as out:
        for rate, setup in values:
            metrics = dict.fromkeys(E2E_METRICS, 1.0)
            metrics.update(ops_per_s=rate, setup_s=setup)
            out.write(json.dumps({
                "workload": workload, "attempted": 100, "failed": failed,
                "metrics": metrics,
                "fingerprint": {**FINGERPRINT, **fingerprint}}) + "\n")
    return path


def _setup(tmp_path, parent, change, **kwargs):
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps(BENCHMARK))
    return (_write(tmp_path / "parent.jsonl", parent),
            _write(tmp_path / "change.jsonl", change, **kwargs), benchmark)


def test_claim_needs_nine_tenths_of_pairs_and_a_gap_past_the_spread(tmp_path):
    parent = [(100 + i % 3, 1.0) for i in range(10)]
    change = [(110 + i % 3, 1.0) for i in range(10)]
    files = _setup(tmp_path, parent, change)
    lines, ok = compare(*files, claims=["ops_per_s@ring-small"])
    assert ok, lines
    assert any("gain" in line for line in lines)

    change[0] = change[1] = (90.0, 1.0)  # only 8 of 10 pairs won
    files = _setup(tmp_path, parent, change)
    lines, ok = compare(*files, claims=["ops_per_s@ring-small"])
    assert not ok
    assert any("claim not met (8/10 wins)" in line for line in lines)


def test_regression_beyond_bound_fails_and_spread_is_unresolved(tmp_path):
    parent = [(100.0, 1.0)] * 10
    files = _setup(tmp_path, parent, [(85.0, 1.0)] * 10)
    lines, ok = compare(*files)
    assert not ok
    assert any("ops_per_s" in line and line.endswith("worse")
               for line in lines)

    noisy = [(100.0 + (40 if i % 2 else -10), 1.0) for i in range(10)]
    files = _setup(tmp_path, parent, noisy)
    lines, ok = compare(*files)
    assert ok
    assert any("ops_per_s" in line and line.endswith("unresolved")
               for line in lines)


def test_more_failures_or_other_environment_are_reported(tmp_path):
    runs = [(100.0, 1.0)] * 10
    files = _setup(tmp_path, runs, runs, failed=1, cpu="other")
    lines, ok = compare(*files)
    assert not ok
    assert any("failed_frac rose" in line for line in lines)
    assert any(line.startswith("warning: runs differ in cpu")
               for line in lines)


def test_command_exit_codes(tmp_path, capsys):
    # The command reads the bounds from the repository's BENCHMARK.json.
    runs = [(100.0, 1.0)] * 10
    parent, change, _benchmark = _setup(tmp_path, runs, runs)
    args = ["compare", str(parent), str(change)]
    assert main(args) == 0
    assert main(args + ["--claim", "ops_per_s@ring-small"]) == 1
    assert main(args + ["--claim", "bogus@ring-small"]) == 2
    capsys.readouterr()
