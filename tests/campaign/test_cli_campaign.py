"""CLI surface of the campaign service (`python -m repro campaign`)."""

import json

from repro.cli import main


def submit(tmp_path, capsys, grid="smoke"):
    store = tmp_path / "campaigns.db"
    assert main(["campaign", "submit", "--store", str(store),
                 "--grid", grid]) == 0
    out = capsys.readouterr().out
    assert "runs pending" in out
    campaign_id = int(out.split("campaign ")[1].split(":")[0])
    return store, campaign_id


class TestSubmitAndStatus:
    def test_submit_then_status(self, tmp_path, capsys):
        store, campaign_id = submit(tmp_path, capsys)
        assert main(["campaign", "status", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert f"campaign {campaign_id} (smoke)" in out
        assert "pending=4" in out

    def test_resubmit_same_grid_is_a_new_campaign_same_cells(
            self, tmp_path, capsys):
        store, first = submit(tmp_path, capsys)
        _, second = submit(tmp_path, capsys)
        assert second == first + 1

    def test_grid_from_json_file(self, tmp_path, capsys):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps([
            {"runner": "sleep", "axes": {"cell": [0, 1]},
             "base": {"duration_s": 0.01}}]))
        store, _ = submit(tmp_path, capsys, grid=str(grid_file))
        assert main(["campaign", "status", "--store", str(store)]) == 0
        assert "pending=2" in capsys.readouterr().out

    def test_unknown_grid_errors(self, tmp_path, capsys):
        assert main(["campaign", "submit",
                     "--store", str(tmp_path / "c.db"),
                     "--grid", "nope"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_status_missing_store_errors(self, tmp_path, capsys):
        assert main(["campaign", "status",
                     "--store", str(tmp_path / "nope.db")]) == 1
        assert "error:" in capsys.readouterr().err


class TestRunResumeReport:
    def grid_file(self, tmp_path, cells=3):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps([
            {"runner": "sleep", "axes": {"cell": list(range(cells))},
             "base": {"duration_s": 0.01}}]))
        return str(path)

    def test_run_grid_to_completion(self, tmp_path, capsys):
        store = tmp_path / "c.db"
        assert main(["campaign", "run", "--store", str(store),
                     "--grid", self.grid_file(tmp_path),
                     "--workers", "2", "--lease", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "done=3" in out
        assert "report digest:" in out

    def test_run_needs_exactly_one_of_id_or_grid(self, tmp_path, capsys):
        store = str(tmp_path / "c.db")
        assert main(["campaign", "run", "--store", store]) == 1
        assert main(["campaign", "run", "--store", store, "--id", "1",
                     "--grid", "smoke"]) == 1
        err = capsys.readouterr().err
        assert "exactly one of --id or --grid" in err

    def test_resume_completed_campaign_is_a_no_op(self, tmp_path, capsys):
        store = str(tmp_path / "c.db")
        assert main(["campaign", "run", "--store", store,
                     "--grid", self.grid_file(tmp_path)]) == 0
        first = capsys.readouterr().out
        digest = first.split("report digest: ")[1].strip()
        assert main(["campaign", "resume", "1", "--store", store]) == 0
        second = capsys.readouterr().out
        assert f"report digest: {digest}" in second

    def test_report_command_writes_artifacts(self, tmp_path, capsys):
        store = str(tmp_path / "c.db")
        assert main(["campaign", "run", "--store", store,
                     "--grid", self.grid_file(tmp_path)]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "report"
        assert main(["campaign", "report", "--store", store,
                     "--out", str(out_dir)]) == 0
        rendered = capsys.readouterr().out
        assert "digest" in rendered
        assert (out_dir / "summary.md").exists()
        assert (out_dir / "runs.jsonl").exists()
        assert (out_dir / "metrics.prom").exists()
        metrics = (out_dir / "metrics.prom").read_text()
        assert 'repro_campaign_runs_total{state="done"} 3' in metrics

    def test_report_from_campaign_via_report_command(self, tmp_path,
                                                     capsys):
        store = str(tmp_path / "c.db")
        assert main(["campaign", "run", "--store", store,
                     "--grid", self.grid_file(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "digest" in out
        assert "wrote" not in out

    def test_report_missing_store_is_typed_error(self, tmp_path, capsys):
        assert main(["campaign", "report", "--store",
                     str(tmp_path / "nope.db")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_report_corrupt_store_is_typed_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.db"
        bad.write_text("not a sqlite database by any stretch..........")
        assert main(["campaign", "report", "--store", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err
