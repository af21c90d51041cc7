"""End-to-end campaign runs under crashes (`repro.campaign.runner`).

The contract under test is ISSUE 6's kill-and-resume invariant: kill a
worker (SIGKILL mid-run) or the orchestrator (``kill -9``) at an
arbitrary point, resume, and the campaign completes with every cell
recorded exactly once and a final report digest identical to an
uninterrupted run.
"""

import os
import signal
import subprocess
import sys
import time

import numpy
import pytest

from repro.campaign import worker
from repro.campaign.grid import CampaignGrid
from repro.campaign.policy import RetryPolicy
from repro.campaign.report import load_report
from repro.campaign.runner import CampaignRunner, submit_campaign
from repro.campaign.store import CampaignStore
from repro.errors import CampaignError

FAST = RetryPolicy(max_attempts=3, base_backoff_s=0.05, multiplier=2.0,
                   max_backoff_s=0.2)


def run_grids(store_path, grids, name="test", **kwargs):
    with CampaignStore(store_path) as store:
        campaign_id = submit_campaign(store, grids, name=name)
    kwargs.setdefault("max_workers", 2)
    kwargs.setdefault("lease_s", 1.0)
    kwargs.setdefault("poll_s", 0.05)
    kwargs.setdefault("policy", FAST)
    runner = CampaignRunner(store_path, campaign_id, **kwargs)
    counts = runner.run(max_wall_s=90.0)
    return campaign_id, counts


def report_of(store_path, campaign_id):
    with CampaignStore(store_path) as store:
        return load_report(store, campaign_id)


def sleep_grid(cells, duration_s=0.05):
    return CampaignGrid(runner="sleep", axes={"cell": tuple(range(cells))},
                        base={"duration_s": duration_s})


class TestHappyPath:
    def test_campaign_completes_and_digest_is_reproducible(self, tmp_path):
        grids = [sleep_grid(4)]
        _, counts = run_grids(tmp_path / "a.db", grids)
        assert counts["done"] == 4
        assert counts["failed"] == counts["quarantined"] == 0
        first = report_of(tmp_path / "a.db", 1)
        cid, _ = run_grids(tmp_path / "b.db", grids)
        second = report_of(tmp_path / "b.db", cid)
        assert first.complete and second.complete
        assert first.digest() == second.digest()

    def test_rerun_of_finished_campaign_is_a_no_op(self, tmp_path):
        path = tmp_path / "c.db"
        campaign_id, _ = run_grids(path, [sleep_grid(2)])
        before = report_of(path, campaign_id)
        runner = CampaignRunner(path, campaign_id, policy=FAST)
        counts = runner.run(max_wall_s=30.0)
        assert counts["done"] == 2
        after = report_of(path, campaign_id)
        assert after.digest() == before.digest()
        # Exactly-once: no cell was re-attempted.
        assert [r.attempt for r in after.rows] == \
            [r.attempt for r in before.rows]


class TestWorkerCrash:
    def test_sigkilled_worker_is_reclaimed_and_cell_completes(
            self, tmp_path):
        # kamikaze SIGKILLs its own worker process on attempt 1: the
        # pool breaks, the lease expires, the cell is re-queued, and the
        # second attempt completes.
        grids = [CampaignGrid(runner="kamikaze", axes={"cell": (0,)},
                              base={"die_attempts": 1}),
                 sleep_grid(3)]
        campaign_id, counts = run_grids(tmp_path / "k.db", grids)
        assert counts["done"] == 4
        report = report_of(tmp_path / "k.db", campaign_id)
        kamikaze = [r for r in report.rows if r.runner == "kamikaze"][0]
        assert kamikaze.state == "done"
        assert kamikaze.attempt == 2
        assert kamikaze.result == {"cell": 0, "survived_attempt": True}

    def test_retry_quarantine_and_budget_paths(self, tmp_path):
        grids = [
            CampaignGrid(runner="flaky", axes={"cell": (0,)},
                         base={"succeed_at": 2}),
            CampaignGrid(runner="broken", axes={"cell": (1,)}),
            CampaignGrid(runner="alternating", axes={"cell": (2,)}),
        ]
        campaign_id, counts = run_grids(tmp_path / "f.db", grids)
        assert counts == {"pending": 0, "claimed": 0, "running": 0,
                          "done": 1, "failed": 1, "quarantined": 1}
        by_runner = {r.runner: r
                     for r in report_of(tmp_path / "f.db",
                                        campaign_id).rows}
        assert by_runner["flaky"].state == "done"
        assert by_runner["flaky"].attempt == 2
        assert by_runner["broken"].state == "quarantined"
        assert by_runner["broken"].error_class == "InjectedFailure"
        assert by_runner["alternating"].state == "failed"
        assert by_runner["alternating"].attempt == FAST.max_attempts

    def test_result_json_cannot_encode_is_quarantined(self, tmp_path,
                                                      monkeypatch):
        # A forked worker inherits the patched registry.
        monkeypatch.setitem(worker.RUNNERS, "numpy-result",
                            lambda params, ctx: {"n": numpy.int64(3)})
        grids = [CampaignGrid(runner="numpy-result", axes={"cell": (0,)}),
                 sleep_grid(1)]
        campaign_id, counts = run_grids(tmp_path / "j.db", grids,
                                        mp_start_method="fork")
        assert counts["done"] == counts["quarantined"] == 1
        cell = [r for r in report_of(tmp_path / "j.db", campaign_id).rows
                if r.runner == "numpy-result"][0]
        assert cell.state == "quarantined"
        assert cell.error_class == "TypeError"
        assert cell.attempt == 2

    def test_wall_clock_budget_leaves_campaign_resumable(self, tmp_path):
        path = tmp_path / "w.db"
        with CampaignStore(path) as store:
            campaign_id = submit_campaign(store, [sleep_grid(8, 0.3)])
        runner = CampaignRunner(path, campaign_id, max_workers=1,
                                lease_s=1.0, poll_s=0.05, policy=FAST)
        with pytest.raises(CampaignError, match="wall-clock budget"):
            runner.run(max_wall_s=0.4)
        # The interrupted campaign resumes to completion.
        resumed = CampaignRunner(path, campaign_id, max_workers=2,
                                 lease_s=1.0, poll_s=0.05, policy=FAST)
        counts = resumed.run(max_wall_s=90.0)
        assert counts["done"] == 8


def proc_stat(pid):
    """``(state, ppid)`` of ``pid`` from ``/proc``, or ``None`` if gone."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def pool_workers(pid):
    """The pids of ``pid``'s process-pool workers, read from ``/proc``."""
    workers = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or (proc_stat(entry) or ("", 0))[1] != pid:
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as cmdline:
                if b"spawn_main" in cmdline.read():
                    workers.append(int(entry))
        except OSError:
            pass
    return workers


def alive(pid):
    """Whether ``pid`` exists and is not a zombie."""
    stat = proc_stat(pid)
    return stat is not None and stat[0] != "Z"


class TestOrchestratorKill9:
    """SIGKILL the orchestrator process mid-campaign, then resume."""

    CELLS = 8

    def _spawn_orchestrator(self, store_path, campaign_id):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "run",
             "--store", str(store_path), "--id", str(campaign_id),
             "--workers", "2", "--lease", "1.0",
             "--max-attempts", "3", "--backoff", "0.05"],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)

    def _wait_for_progress(self, store_path, campaign_id, proc):
        # Kill once some cells are done but others are still active:
        # the most adversarial window, mixing every run state.
        deadline = time.monotonic() + 60.0
        with CampaignStore(store_path) as store:
            while time.monotonic() < deadline:
                counts = store.counts(campaign_id)
                if counts["done"] >= 2 and \
                        store.active_count(campaign_id) > 0:
                    return counts
                if proc.poll() is not None:
                    pytest.fail("orchestrator finished before the kill "
                                f"window: {counts}")
                time.sleep(0.02)
        pytest.fail("campaign never reached the kill window")

    def test_kill9_resume_matches_uninterrupted_digest(self, tmp_path):
        grids = [sleep_grid(self.CELLS, duration_s=0.25)]

        # Control: the same grid run start-to-finish, separate store.
        control_id, control_counts = run_grids(
            tmp_path / "control.db", grids)
        assert control_counts["done"] == self.CELLS
        control = report_of(tmp_path / "control.db", control_id)

        # Interrupted: kill -9 the orchestrator mid-campaign.
        path = tmp_path / "killed.db"
        with CampaignStore(path) as store:
            campaign_id = submit_campaign(store, grids)
        proc = self._spawn_orchestrator(path, campaign_id)
        try:
            at_kill = self._wait_for_progress(path, campaign_id, proc)
            workers = pool_workers(proc.pid)
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
        assert at_kill["done"] < self.CELLS
        # The pool workers notice their orchestrator is gone and exit;
        # the cells they were running wait out their leases.
        assert workers
        deadline = time.monotonic() + 5.0
        while any(map(alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if alive(pid)]

        # Resume in-process; leases of the killed claims age out.
        resumed = CampaignRunner(path, campaign_id, max_workers=2,
                                 lease_s=1.0, poll_s=0.05, policy=FAST)
        counts = resumed.run(max_wall_s=90.0)

        # Exactly once: (campaign_id, spec_id) is the primary key, so
        # "every cell done" means one terminal record per cell.
        assert counts["done"] == self.CELLS
        interrupted = report_of(path, campaign_id)
        assert interrupted.complete
        # The digest covers state + results only — the detour through
        # the crash must be invisible in the final report.
        assert interrupted.digest() == control.digest()
        # Cells finished before the kill were not re-run.
        finished_before_kill = at_kill["done"]
        untouched = [r for r in interrupted.rows if r.attempt == 1]
        assert len(untouched) >= finished_before_kill
