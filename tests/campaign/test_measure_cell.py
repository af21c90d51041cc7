"""One measure path: `measure` cell validation and cross-entry replay.

`repro train`, the harness figures, `measure` campaign cells and
scenario `diagnose` all run :func:`repro.harness.experiments.measure`,
so a malformed cell fails the same typed way everywhere and a printed
spec replays the run it names bit for bit.
"""

import json
import math
import pathlib
from types import SimpleNamespace

import pytest

from repro.campaign.grid import expand_grids, figures_grids, run_key
from repro.campaign.report import load_report_from_path
from repro.campaign.worker import (
    RunContext,
    hybrid_kwargs,
    hybrid_runner,
    measure_kwargs,
    measure_runner,
)
from repro.cli import main
from repro.errors import CampaignError, TrainingError
from repro.harness import experiments
from repro.harness.experiments import figure_rows, measure, write_table

CTX = RunContext(attempt=1, spec_id="cell", campaign_id=1)
CELL = {"model": "resnet50", "gpus": 8}
BENCH = pathlib.Path(__file__).resolve().parents[2] / "BENCH_simulator.json"
RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results"


def table_cells(path: pathlib.Path) -> list[list[str]]:
    """A markdown table's title, then its header and body cells, with
    the column padding stripped."""
    text = path.read_text().splitlines()
    return [[text[0]]] + [[cell.strip() for cell in line.strip("|").split("|")]
                          for line in text if line.startswith("| ")]


class TestMeasureCellValidation:
    @pytest.mark.parametrize("change", [
        {"gpus": True}, {"gpus": 8.7}, {"gpus": "abc"}, {"gpus": 0},
        {"gpus": None},
        {"batch_per_gpu": True}, {"batch_per_gpu": 2.5},
        {"batch_per_gpu": "8"},
        {"iterations": False}, {"iterations": 1.5}, {"iterations": "3"},
        {"iterations": 0},
        {"streams": True}, {"streams": 4.5}, {"streams": "4"},
        {"granularity_mb": math.nan}, {"granularity_mb": math.inf},
        {"granularity_mb": "8"},
        {"core_oversubscription": math.nan},
        {"core_oversubscription": math.inf},
        {"core_oversubscription": "4"},
        {"rdma": 1}, {"congested": "yes"},
        {"backend": "horovod", "streams": 4},
        {"backend": "horovod", "granularity_mb": 8},
        {"backend": "pytorch-ddp", "algorithm": "ring"},
    ], ids=repr)
    def test_malformed_cell_raises_training_error(self, change):
        with pytest.raises(TrainingError):
            measure_runner({**CELL, **change}, CTX)

    @pytest.mark.parametrize("cell", [
        {**CELL, "stream": 4},
        {**CELL, "transport": "rdma"},
        {**CELL, "diagnose": "yes"},
        {**CELL, "full_link": True},
        {"gpus": 8},
        {"model": "resnet50"},
    ], ids=repr)
    def test_unknown_missing_or_mistyped_key_raises_campaign_error(
            self, cell):
        with pytest.raises(CampaignError):
            measure_runner(cell, CTX)

    def test_labels_are_accepted_and_dropped(self):
        assert measure_kwargs({**CELL, "figure": "fig9", "seed": 3,
                               "diagnose": False}) == \
            {**CELL, "backend": "aiacc"}

    def test_integral_float_counts_run_as_ints(self):
        assert measure_runner({**CELL, "gpus": 8.0}, CTX) == \
            measure_runner(CELL, CTX)

    def test_cli_rejects_aiacc_flags_on_other_backends(self, capsys):
        assert main(["train", "--backend", "horovod", "--streams", "4"]) == 1
        assert "only apply to the aiacc backend" in capsys.readouterr().err

    def test_diagnose_rejects_zero_iterations(self, tmp_path, capsys):
        assert main(["diagnose", "--baseline", str(BENCH), "--iterations",
                     "0", "--out", str(tmp_path)]) == 1
        assert "iterations must be" in capsys.readouterr().err


HYBRID = {"model": "resnet50", "gpus": 8}


class TestHybridCellValidation:
    @pytest.mark.parametrize("cell", [
        {**HYBRID, "streams": 64},
        {**HYBRID, "modle": "vgg16"},
        {**HYBRID, "diagnose": True},
        {**HYBRID, "model": 7}, {**HYBRID, "backend": None},
        {"gpus": 8},
        {"model": "resnet50"},
    ], ids=repr)
    def test_bad_cell_raises_campaign_error(self, cell):
        with pytest.raises(CampaignError):
            hybrid_runner(cell, CTX)

    @pytest.mark.parametrize("cell", [
        {**HYBRID, "gpus": 8.7}, {**HYBRID, "gpus": True},
        {**HYBRID, "gpus": 0}, {**HYBRID, "gpus": "8"},
        {**HYBRID, "gpus": None}, {**HYBRID, "gpus": math.inf},
        {**HYBRID, "model_parallel_degree": 1.5},
        {**HYBRID, "model_parallel_degree": False},
        {**HYBRID, "model_parallel_degree": 0},
    ], ids=repr)
    def test_bad_count_raises_training_error(self, cell):
        # measure_hybrid checks its counts as measure does.
        with pytest.raises(TrainingError):
            hybrid_runner(cell, CTX)

    def test_labels_are_accepted_and_dropped(self):
        assert hybrid_kwargs({**HYBRID, "figure": "fig13", "seed": 3}) == \
            {**HYBRID, "backend": "aiacc", "model_parallel_degree": 2}

    def test_integral_float_counts_run_as_ints(self):
        result = hybrid_runner({**HYBRID, "gpus": 8.0,
                                "model_parallel_degree": 2.0}, CTX)
        assert result == hybrid_runner(HYBRID, CTX)
        assert type(result["gpus"]) is int


def spec_line(out: str, name: str) -> str:
    (line,) = [line for line in out.splitlines()
               if line.startswith(f"{name}:")]
    return line.split(":", 1)[1].strip()


def replay(tmp_path, grid_file) -> tuple[str, dict]:
    """Run a one-cell grid file through `campaign run`; its result."""
    store = tmp_path / "replay.db"
    assert main(["campaign", "run", "--store", str(store), "--grid",
                 str(grid_file), "--workers", "1"]) == 0
    (row,) = load_report_from_path(store).rows
    assert row.state == "done"
    return row.spec_id, row.result


class TestReplay:
    def test_train_spec_replays_bit_equal(self, tmp_path, capsys):
        assert main(["train", "--gpus", "16", "--streams", "4",
                     "--granularity-mb", "8"]) == 0
        out = capsys.readouterr().out
        grid_file = tmp_path / "cell.json"
        grid_file.write_text(spec_line(out, "spec"))
        spec_id, result = replay(tmp_path, grid_file)
        assert spec_id == spec_line(out, "spec_id")
        (cell,) = json.loads(grid_file.read_text())
        assert result["mean_iteration_s"] == \
            measure(**cell["base"]).mean_iteration_s
        assert spec_line(out, "iteration time") == \
            f"{result['mean_iteration_s'] * 1e3:.2f} ms"

    def test_diagnose_spec_replays_findings(self, tmp_path, capsys):
        out_dir = tmp_path / "diagnosis"
        main(["diagnose", "--baseline", str(BENCH), "--scenario",
              "planner-128r-ina", "--iterations", "1", "--out",
              str(out_dir)])
        measured = json.loads((out_dir / "measurements.json").read_text())
        (cell,) = json.loads((out_dir / "spec.json").read_text())
        assert cell["base"]["diagnose"] is True
        assert cell["base"]["core_oversubscription"] == 4.0
        _, result = replay(tmp_path, out_dir / "spec.json")
        assert result["findings_digest"] == measured["findings_digest"]
        assert result["mean_iteration_s"] == \
            measured["measurements"]["simulated_step_s"]

    def test_fig9_pivot_renders_committed_table(self, tmp_path):
        cells = [spec for spec in expand_grids(figures_grids())
                 if spec.params["figure"] == "fig9"
                 and spec.params["gpus"] == 8]
        assert len(cells) == 12
        write_table("fig09_cv_pytorch", figure_rows(cells)["fig9"],
                    tmp_path)
        title, header, *lines = table_cells(tmp_path / "fig09_cv_pytorch.md")
        committed = table_cells(RESULTS / "fig09_cv_pytorch.md")
        assert [title, header] == committed[:2]
        assert lines == [line for line in committed[2:] if line[1] == "8"]
        assert len(lines) == 3

    def test_figures_simulate_each_run_once(self, monkeypatch):
        calls = []

        def fake(*args, **kwargs):
            calls.append((args, tuple(sorted(kwargs.items()))))
            return SimpleNamespace(
                model=kwargs["model"], backend=kwargs["backend"],
                num_gpus=kwargs["gpus"], batch_per_gpu=1,
                mean_iteration_s=1.0, throughput=float(len(calls)),
                scaling_efficiency=1.0, exposed_comm_s=0.0)

        monkeypatch.setattr(experiments, "measure", fake)
        monkeypatch.setattr(experiments, "measure_hybrid", fake)
        cells = expand_grids(figures_grids())
        tables = figure_rows(cells)
        assert len(cells) == 188
        assert len(calls) == len(set(calls)) == 140
        assert len(calls) == len({run_key(spec.runner, spec.params)
                                  for spec in cells})
        assert {figure: len(rows) for figure, rows in tables.items()} == {
            "fig9": 18, "fig10": 12, "fig11": 18, "fig12": 12, "fig13": 4}
        # A point two figures share reads the one run's payload.
        assert tables["fig11"][0]["aiacc"] == tables["fig9"][0]["aiacc"]
