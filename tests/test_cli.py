"""Tests for the command-line interface."""

import json
import pathlib

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_bench_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "fig99"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "vgg16" in out
        assert "bert-large" in out

    def test_train(self, capsys):
        assert main(["train", "--model", "resnet50", "--gpus", "16"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "scaling efficiency" in out

    def test_train_with_aiacc_overrides(self, capsys):
        assert main(["train", "--gpus", "16", "--streams", "4",
                     "--granularity-mb", "8"]) == 0

    def test_train_rdma(self, capsys):
        assert main(["train", "--model", "gpt2-xl", "--gpus", "16",
                     "--rdma"]) == 0

    def test_train_unknown_backend_errors(self, capsys):
        assert main(["train", "--backend", "gloo", "--gpus", "8"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bench_single_experiment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "Horovod" in out or "horovod" in out
        assert (tmp_path / "results" / "fig2.md").exists()

    def test_tune(self, capsys):
        assert main(["tune", "--model", "resnet50", "--gpus", "16",
                     "--budget", "6"]) == 0
        out = capsys.readouterr().out
        assert "streams:" in out
        assert "algorithm:" in out

    def test_translate_horovod(self, capsys, tmp_path):
        script = tmp_path / "train.py"
        script.write_text("import horovod.torch as hvd\n")
        assert main(["translate", str(script)]) == 0
        assert "repro.core.perseus" in capsys.readouterr().out

    def test_translate_sequential_to_file(self, tmp_path, capsys):
        script = tmp_path / "train.py"
        script.write_text("opt = SGD(lr=0.1)\n")
        output = tmp_path / "out.py"
        assert main(["translate", str(script), "--mode", "sequential",
                     "--workers", "4", "--output", str(output)]) == 0
        assert "DistributedOptimizer" in output.read_text()

    def test_translate_error_reported(self, tmp_path, capsys):
        script = tmp_path / "train.py"
        script.write_text("x = 1\n")
        assert main(["translate", str(script), "--mode",
                     "sequential"]) == 1
        assert "error:" in capsys.readouterr().err


class TestFaultsCommand:
    def test_faults_scripted_crash(self, capsys):
        assert main(["faults", "--model", "resnet50", "--gpus", "16",
                     "--iterations", "6", "--checkpoint-interval", "2",
                     "--crash-node", "1", "--crash-at", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "16 -> 8 GPUs" in out
        assert "recovery 0:" in out
        assert "goodput" in out
        assert "aiacc.faults.confirm: 1" in out

    def test_faults_poisson_schedule(self, capsys):
        assert main(["faults", "--model", "resnet50", "--gpus", "16",
                     "--iterations", "4", "--mtbf", "20", "--seed",
                     "3"]) == 0
        assert "injected crashes:" in capsys.readouterr().out

    def test_faults_trace_output(self, capsys, tmp_path):
        trace_out = tmp_path / "faults.json"
        assert main(["faults", "--model", "resnet50", "--gpus", "16",
                     "--iterations", "4", "--checkpoint-interval", "2",
                     "--crash-node", "1", "--crash-at", "0.3",
                     "--trace-out", str(trace_out)]) == 0
        events = json.loads(trace_out.read_text())
        assert any(ev.get("name") == "aiacc.fault.inject" for ev in events)

    def test_faults_rejects_small_cluster(self, capsys):
        assert main(["faults", "--model", "resnet50", "--gpus", "8"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_chaos_soak(self, capsys, tmp_path):
        jsonl = tmp_path / "chaos.jsonl"
        assert main(["chaos", "--seeds", "4", "--replays", "2",
                     "--jsonl", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "completed:" in out
        assert "seed   0" in out
        assert len(jsonl.read_text().strip().splitlines()) == 4

    def test_chaos_typed_failures_exit_zero(self, capsys):
        # Typed clean failures are expected chaos outcomes, not harness
        # errors: a sweep containing them still exits 0.
        assert main(["chaos", "--seeds", "6", "--replays", "1",
                     "--mtbf", "0.2"]) == 0
        assert "clean failures:" in capsys.readouterr().out


class TestNewBenchEntries:
    @pytest.mark.parametrize("experiment", ["congested", "insightface",
                                            "futuregpu"])
    def test_bench_entry_runs(self, experiment, capsys, tmp_path,
                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", experiment]) == 0
        assert (tmp_path / "results" / f"{experiment}.md").exists()

    def test_bench_chart_rendered_for_congested(self, capsys, tmp_path,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["bench", "congested"])
        out = capsys.readouterr().out
        assert "#" in out  # the ascii bar chart


class TestDiagnoseScenario:
    def test_planner_scenario_runs_the_baseline_fabric(self):
        # The 4:1 spine is part of the recorded scenario: diagnosing on
        # a non-blocking core would compare unlike with unlike.
        import argparse

        from repro.cli import _scenario_diagnosis
        from repro.obs import load_bench_baseline

        baseline = load_bench_baseline(
            pathlib.Path(__file__).resolve().parent.parent
            / "BENCH_simulator.json", scenario="planner-128r-ina")
        assert baseline.values["core_oversubscription"] == 4.0
        _obs, _report, measured = _scenario_diagnosis(
            argparse.Namespace(iterations=1), baseline)
        assert measured["simulated_step_s"] == pytest.approx(
            baseline.values["simulated_step_s"], rel=0, abs=1e-9)
