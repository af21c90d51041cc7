"""Run reuse: cells that differ only in labels share one simulation.

A cell's ``run_key`` is its runner plus its parameters without the
runner's :data:`~repro.campaign.grid.RUN_LABELS`.  A worker whose cell
has a ``done`` twin (same key, same campaign) records that twin's
result instead of simulating.  The contract under test is that reuse is
invisible in the outcome: every cell's result and the report digest
equal those of a control where each cell runs alone in its own
campaign, so reuse is impossible.  Failed twins, cells that differ in
``diagnose`` and runners without labels never reuse.  Stores written
before runs had keys are migrated on open.
"""

import dataclasses
import json
import sqlite3
import time

import pytest

from repro.campaign.grid import (
    RUN_LABELS,
    CampaignGrid,
    RunSpec,
    expand_grids,
    grids_payload,
    run_key,
    smoke_grids,
)
from repro.campaign.policy import RetryPolicy
from repro.campaign.report import (
    CampaignReport,
    build_metrics,
    load_report,
    render_report,
    run_records,
)
from repro.campaign.runner import CampaignRunner, submit_campaign
from repro.campaign.store import SCHEMA_VERSION, CampaignStore
from repro.campaign.worker import RUNNERS, execute_run
from repro.cli import main
from repro.obs.exporters import prometheus_text

POLICY = RetryPolicy(max_attempts=3, base_backoff_s=0.0)
LEASE_S = 60.0

#: The smoke grid under two figure labels, plus a ``hybrid`` twin pair.
TWIN_GRIDS = [
    *(dataclasses.replace(grid, base={**grid.base, "figure": figure})
      for figure in ("a", "b") for grid in smoke_grids()),
    CampaignGrid(runner="hybrid", axes={"figure": ("a", "b")},
                 base={"model": "resnet50", "backend": "aiacc", "gpus": 8,
                       "model_parallel_degree": 2, "seed": 0}),
]

#: ``runs`` and ``campaigns`` as created before cells had run keys.
PARENT_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    name        TEXT NOT NULL,
    grid_json   TEXT NOT NULL,
    created_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    campaign_id      INTEGER NOT NULL,
    spec_id          TEXT NOT NULL,
    runner           TEXT NOT NULL,
    params_json      TEXT NOT NULL,
    state            TEXT NOT NULL DEFAULT 'pending',
    attempt          INTEGER NOT NULL DEFAULT 0,
    not_before       REAL NOT NULL DEFAULT 0,
    claim_token      TEXT,
    claimed_by       TEXT,
    claimed_at       REAL,
    heartbeat_at     REAL,
    lease_expires_at REAL,
    started_at       REAL,
    finished_at      REAL,
    wall_time_s      REAL,
    error_class      TEXT,
    last_error_class TEXT,
    error            TEXT,
    traceback        TEXT,
    result_json      TEXT,
    PRIMARY KEY (campaign_id, spec_id)
);
CREATE INDEX IF NOT EXISTS runs_by_state
    ON runs (campaign_id, state, not_before);
"""


def drain(path, campaign_id):
    """Run every claimable cell in this process, in claim order."""
    with CampaignStore(path) as store:
        while (row := store.claim_next(campaign_id, "test",
                                       LEASE_S)) is not None:
            execute_run(str(path), campaign_id, row.spec_id,
                        row.claim_token, LEASE_S, POLICY.to_payload())
        return load_report(store, campaign_id)


def run_campaign(path, grids):
    with CampaignStore(path) as store:
        campaign_id = submit_campaign(store, grids)
    return drain(path, campaign_id)


def run_alone(path, specs):
    """Each cell in a campaign of its own: no twin, so no reuse."""
    rows = []
    with CampaignStore(path) as store:
        ids = []
        for spec in specs:
            ids.append(store.create_campaign(spec.spec_id))
            store.add_runs(ids[-1], [spec])
    for campaign_id in ids:
        rows.extend(drain(path, campaign_id).rows)
    counts = {state: sum(row.state == state for row in rows)
              for state in {row.state for row in rows}}
    return CampaignReport(campaign_id=0, name="alone", counts=counts,
                          rows=tuple(sorted(rows,
                                            key=lambda r: r.spec_id)))


@pytest.fixture(scope="module")
def twins(tmp_path_factory):
    """``(reused campaign report, control report)`` for TWIN_GRIDS."""
    directory = tmp_path_factory.mktemp("reuse")
    report = run_campaign(directory / "twins.db", TWIN_GRIDS)
    control = run_alone(directory / "alone.db", expand_grids(TWIN_GRIDS))
    return report, control


class TestRunKey:
    def test_label_only_twins_share_a_key(self):
        cell = {"model": "resnet50", "gpus": 8}
        for runner, labels in RUN_LABELS.items():
            keys = {run_key(runner, {**cell, **dict.fromkeys(labels, v)})
                    for v in ("a", 0, None)}
            assert keys == {run_key(runner, cell)}

    def test_label_free_cell_key_is_its_spec_id(self):
        spec = RunSpec("measure", {"model": "resnet50", "gpus": 8})
        assert run_key(spec.runner, spec.params) == spec.spec_id

    def test_run_changing_parameters_change_the_key(self):
        cell = {"model": "resnet50", "gpus": 8, "figure": "a"}
        key = run_key("measure", cell)
        assert run_key("measure", {**cell, "diagnose": True}) != key
        assert run_key("measure", {**cell, "gpus": 16}) != key
        assert run_key("hybrid", cell) != key

    @pytest.mark.parametrize(
        "runner", sorted(set(RUNNERS) - set(RUN_LABELS)))
    def test_runners_without_labels_have_no_key(self, runner):
        assert run_key(runner, {"seed": 1, "figure": "a"}) is None


class TestReuseIsInvisible:
    def test_twins_were_reused(self, twins):
        report, control = twins
        assert report.complete and report.counts["done"] == 10
        # One per smoke point and one for the hybrid pair.
        assert sum(row.reused_from is not None for row in report.rows) == 5
        assert not any(row.reused_from for row in control.rows)

    def test_every_result_equals_the_cell_run_alone(self, twins):
        report, control = twins
        alone = {row.spec_id: row.result for row in control.rows}
        assert {row.spec_id: row.result for row in report.rows} == alone

    def test_digest_equals_the_no_reuse_control(self, twins):
        report, control = twins
        assert report.digest() == control.digest()

    def test_reused_from_names_a_done_twin_with_the_same_run_key(
            self, twins):
        report, _ = twins
        by_id = {row.spec_id: row for row in report.rows}
        for row in report.rows:
            if row.reused_from is None:
                continue
            source = by_id[row.reused_from]
            assert source.state == "done"
            assert source.spec_id != row.spec_id
            assert source.run_key == row.run_key is not None
            assert source.result == row.result

    def test_pool_of_two_matches_one_worker(self, tmp_path):
        digests = []
        for workers in (1, 2):
            path = tmp_path / f"pool{workers}.db"
            with CampaignStore(path) as store:
                campaign_id = submit_campaign(store, TWIN_GRIDS[:2])
            counts = CampaignRunner(
                path, campaign_id, max_workers=workers, lease_s=5.0,
                poll_s=0.02, policy=POLICY).run(max_wall_s=120.0)
            assert counts["done"] == 8
            with CampaignStore(path) as store:
                digests.append(load_report(store, campaign_id).digest())
        assert digests[0] == digests[1]


class TestNeverReused:
    def test_twins_differing_in_diagnose_both_simulate(self, tmp_path):
        grids = [CampaignGrid(
            runner="measure", axes={"figure": ("a", "b")},
            base={"model": "resnet50", "gpus": 8, "diagnose": flag})
            for flag in (True, False)]
        report = run_campaign(tmp_path / "d.db", grids)
        by_flag = {}
        for row in report.rows:
            by_flag.setdefault(row.params["diagnose"], []).append(row)
        # Each diagnose value has one simulated cell and one copy.
        for rows in by_flag.values():
            sources = [row for row in rows if row.reused_from is None]
            assert len(sources) == 1
        assert by_flag[True][0].run_key != by_flag[False][0].run_key
        assert "findings" in by_flag[True][0].result
        assert "findings" not in by_flag[False][0].result

    def test_failed_twin_is_never_a_source(self, tmp_path):
        grid = CampaignGrid(runner="measure", axes={"figure": ("a", "b")},
                            base={"model": "no-such-model", "gpus": 8})
        report = run_campaign(tmp_path / "f.db", [grid])
        assert report.complete
        assert len(report.rows) == 2
        for row in report.rows:
            assert row.state in ("failed", "quarantined")
            assert row.reused_from is None and row.result is None
            assert row.attempt >= 1 and row.error_class
        assert report.rows[0].run_key == report.rows[1].run_key

    def test_runner_without_labels_always_runs(self, tmp_path):
        grid = CampaignGrid(runner="sleep", axes={"figure": ("a", "b")},
                            base={"cell": 0, "duration_s": 0.0})
        report = run_campaign(tmp_path / "s.db", [grid])
        assert report.counts["done"] == 2
        for row in report.rows:
            assert row.run_key is None and row.reused_from is None


class TestOutputs:
    def test_reuse_is_surfaced_in_every_artifact(self, twins):
        report, _ = twins
        records = [r for r in run_records(report) if r["kind"] == "run"]
        assert {r["spec"]: r["reused_from"] for r in records} == \
            {row.spec_id: row.reused_from for row in report.rows}
        summary = render_report(report)
        assert "reused_from" in summary
        assert all(row.reused_from in summary
                   for row in report.rows if row.reused_from)
        assert "repro_campaign_runs_reused_total 5" in \
            prometheus_text(build_metrics(report))

    def test_status_prints_reused_count(self, tmp_path, capsys):
        grid = CampaignGrid(runner="measure", axes={"figure": ("a", "b")},
                            base={"model": "resnet50", "gpus": 8})
        run_campaign(tmp_path / "st.db", [grid])
        assert main(["campaign", "status", "--store",
                     str(tmp_path / "st.db")]) == 0
        out = capsys.readouterr().out.rstrip()
        assert "done=2" in out and out.endswith("reused=1")


def old_store(path, grids, done=None):
    """A store written with the schema from before run keys: ``grids``
    added as pending cells, ``done`` maps spec ids to stored results."""
    specs = expand_grids(grids)
    conn = sqlite3.connect(path)
    with conn:
        conn.executescript(PARENT_SCHEMA)
        campaign_id = conn.execute(
            "INSERT INTO campaigns (name, grid_json, created_at) "
            "VALUES (?, ?, ?)",
            ("old", grids_payload(grids), time.time())).lastrowid
        for spec in specs:
            conn.execute(
                "INSERT OR IGNORE INTO runs "
                "(campaign_id, spec_id, runner, params_json) "
                "VALUES (?, ?, ?, ?)",
                (campaign_id, spec.spec_id, spec.runner,
                 json.dumps(dict(sorted(spec.params.items())),
                            sort_keys=True)))
        for spec_id, result in (done or {}).items():
            conn.execute(
                "UPDATE runs SET state = 'done', attempt = 1, "
                "result_json = ? WHERE spec_id = ?",
                (json.dumps(result, sort_keys=True), spec_id))
    conn.close()
    return campaign_id, specs


class TestStoreMigration:
    def test_open_adds_columns_and_backfills_run_keys(self, tmp_path):
        # TWIN_GRIDS[1] is TWIN_GRIDS[0] under another figure label.
        grids = [*TWIN_GRIDS[:2],
                 CampaignGrid(runner="sleep", axes={"cell": (0, 1)})]
        source = expand_grids([TWIN_GRIDS[0]])[0]
        campaign_id, specs = old_store(tmp_path / "old.db", grids,
                                       done={source.spec_id: {"x": 1.5}})
        with CampaignStore(tmp_path / "old.db") as store:
            rows = {row.spec_id: row for row in store.runs(campaign_id)}
            twin_key = rows[source.spec_id].run_key
            claimed = store.claim_next(campaign_id, "test", LEASE_S)
            while claimed.run_key != twin_key:
                claimed = store.claim_next(campaign_id, "test", LEASE_S)
            _, twin = store.mark_running(campaign_id, claimed.spec_id,
                                         claimed.claim_token)
            assert twin == (source.spec_id, {"x": 1.5})
        assert {spec_id: row.run_key for spec_id, row in rows.items()} == \
            {spec.spec_id: run_key(spec.runner, spec.params)
             for spec in specs}
        assert all(row.reused_from is None for row in rows.values())
        # Reopening a migrated store is a no-op.
        with CampaignStore(tmp_path / "old.db") as store:
            assert [row.run_key for row in store.runs(campaign_id)] == \
                [rows[spec_id].run_key for spec_id in sorted(rows)]

    def test_migrated_store_is_stamped_and_reopens_without_ddl(
            self, tmp_path, ddl_on_open):
        path = tmp_path / "old.db"
        old_store(path, [TWIN_GRIDS[0]])
        migration = ddl_on_open(path)
        assert any(sql.startswith("ALTER TABLE runs ADD COLUMN run_key")
                   for sql in migration)
        conn = sqlite3.connect(path)
        assert conn.execute("PRAGMA user_version").fetchone()[0] == \
            SCHEMA_VERSION
        conn.close()
        assert ddl_on_open(path) == []

    def test_old_store_resumes_and_reuses(self, tmp_path, capsys):
        path = tmp_path / "old.db"
        campaign_id, _ = old_store(path, TWIN_GRIDS[:2])
        assert main(["campaign", "resume", str(campaign_id), "--store",
                     str(path), "--workers", "1", "--lease", "5",
                     "--backoff", "0"]) == 0
        with CampaignStore(path) as store:
            report = load_report(store, campaign_id)
        assert report.counts["done"] == len(report.rows) == 8
        assert any(row.reused_from for row in report.rows)
        fresh = run_campaign(tmp_path / "fresh.db", TWIN_GRIDS[:2])
        assert report.digest() == fresh.digest()
