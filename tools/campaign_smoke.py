"""Kill-and-resume smoke of the campaign service, used by CI.

The script exercises ISSUE 6's end-to-end invariant on a tiny grid:

1. submit a grid mixing sleep cells, one of which outlives a lease
   heartbeat interval, one ``kamikaze`` cell that SIGKILLs its own
   worker mid-campaign, and a ``measure`` twin pair that differs only
   in its ``figure`` label (so one cell may copy the other's result
   instead of simulating it);
2. run the campaign in a child orchestrator and ``kill -9`` that
   orchestrator once some cells are done and some are still active;
3. resume with ``python -m repro campaign resume`` and require that
   every cell ends terminal, the kamikaze cell recovered, and the final
   report digest equals that of an uninterrupted control run of the
   same grid in a fresh store — whichever twin ran or was reused;
   in both stores the long sleep cell must show a heartbeat after its
   start, from a worker in a real pool process — in the control run,
   whose one pool process serves the cells in claim order, from a
   worker that already served an earlier cell, so the beat comes from
   a reused worker's lease keeper;
4. write the resulting store summary under ``--out`` for upload.

Exit code 0 only if every check holds.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import sqlite3
import subprocess
import sys
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.campaign.grid import CampaignGrid, expand_grids  # noqa: E402
from repro.campaign.policy import RetryPolicy  # noqa: E402
from repro.campaign.report import (  # noqa: E402
    load_report,
    write_report_artifacts,
)
from repro.campaign.runner import (  # noqa: E402
    CampaignRunner,
    submit_campaign,
)
from repro.campaign.store import CampaignStore  # noqa: E402

POLICY = RetryPolicy(max_attempts=3, base_backoff_s=0.05,
                     max_backoff_s=0.5)
LEASE_S = 1.0

#: ``cell`` of the sleep cell that outlives a heartbeat interval
#: (``LEASE_S / 3``), so its worker's keeper beats it at least twice.
#: :func:`check_claim_order` requires that it is not the first cell a
#: worker process serves in the control run.
BEAT_CELL = 200

GRIDS = [
    CampaignGrid(runner="sleep", axes={"cell": tuple(range(6))},
                 base={"duration_s": 0.25}),
    CampaignGrid(runner="sleep", axes={"cell": (BEAT_CELL,)},
                 base={"duration_s": 0.8}),
    CampaignGrid(runner="kamikaze", axes={"cell": (100,)},
                 base={"die_attempts": 1}),
    CampaignGrid(runner="measure", axes={"figure": ("a", "b")},
                 base={"model": "resnet50", "gpus": 8}),
]
CELLS = len(expand_grids(GRIDS))


def check_claim_order() -> None:
    """Fail unless a cell that keeps its worker alive is claimed right
    before the beat cell.

    ``claim_next`` claims in spec id order.  In a one-worker pool every
    cell claimed since the last worker death runs in the same process,
    so the beat cell then runs in a worker that served the cell before
    it, and whose lease keeper is already running.
    """
    order = sorted(expand_grids(GRIDS), key=lambda spec: spec.spec_id)
    beat = [spec.params.get("cell") for spec in order].index(BEAT_CELL)
    if beat == 0 or order[beat - 1].runner == "kamikaze":
        raise SystemExit(f"sleep cell {BEAT_CELL} would be the first cell "
                         f"of a fresh worker; pick another BEAT_CELL")


def run_uninterrupted(store_path: pathlib.Path) -> str:
    check_claim_order()
    with CampaignStore(store_path) as store:
        campaign_id = submit_campaign(store, GRIDS, name="smoke-control")
    runner = CampaignRunner(store_path, campaign_id, max_workers=1,
                            lease_s=LEASE_S, poll_s=0.05, policy=POLICY)
    counts = runner.run(max_wall_s=120.0)
    assert counts["done"] == CELLS, f"control run incomplete: {counts}"
    check_heartbeat(store_path)
    with CampaignStore(store_path) as store:
        return load_report(store, campaign_id).digest()


def check_heartbeat(store_path: pathlib.Path) -> None:
    """Fail unless the long sleep cell's ``heartbeat_at`` moved past its
    ``started_at``: ``mark_running``, the transaction that begins a
    cell, stamps both with one instant, so only a beat of the worker's
    lease keeper can move it."""
    conn = sqlite3.connect(store_path)
    try:
        rows = conn.execute(
            "SELECT params_json, started_at, heartbeat_at FROM runs "
            "WHERE runner = 'sleep' AND state = 'done'").fetchall()
    finally:
        conn.close()
    beats = [beat for params, started, beat in rows
             if json.loads(params)["cell"] == BEAT_CELL
             and beat is not None and beat > started]
    if not beats:
        raise SystemExit(f"sleep cell {BEAT_CELL} has no heartbeat_at "
                         f"after its start in {store_path}")


def spawn_orchestrator(store_path: pathlib.Path,
                       campaign_id: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "run",
         "--store", str(store_path), "--id", str(campaign_id),
         "--workers", "2", "--lease", str(LEASE_S),
         "--max-attempts", "3", "--backoff", "0.05"],
        env=env)


def wait_for_kill_window(store_path: pathlib.Path, campaign_id: int,
                         proc: subprocess.Popen) -> dict:
    deadline = time.monotonic() + 120.0
    with CampaignStore(store_path) as store:
        while time.monotonic() < deadline:
            counts = store.counts(campaign_id)
            if counts["done"] >= 2 and store.active_count(campaign_id):
                return counts
            if proc.poll() is not None:
                raise SystemExit(
                    f"orchestrator finished before the kill window: "
                    f"{counts}")
            time.sleep(0.02)
    raise SystemExit("campaign never reached the kill window")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path("results/campaign_smoke"))
    parser.add_argument("--store", type=pathlib.Path, default=None,
                        help="store path (default: <out>/campaigns.db)")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    store_path = args.store or args.out / "campaigns.db"
    control_path = args.out / "control.db"
    for stale in (store_path, control_path):
        stale.unlink(missing_ok=True)

    control_digest = run_uninterrupted(control_path)
    print(f"control digest: {control_digest}")

    with CampaignStore(store_path) as store:
        campaign_id = submit_campaign(store, GRIDS, name="smoke-killed")
    proc = spawn_orchestrator(store_path, campaign_id)
    try:
        at_kill = wait_for_kill_window(store_path, campaign_id, proc)
        print(f"kill -9 orchestrator at {at_kill}")
        os.kill(proc.pid, signal.SIGKILL)
    finally:
        proc.wait(timeout=60)

    result = subprocess.run(
        [sys.executable, "-m", "repro", "campaign", "resume",
         str(campaign_id), "--store", str(store_path),
         "--workers", "2", "--lease", str(LEASE_S),
         "--max-attempts", "3", "--backoff", "0.05"],
        env={**os.environ,
             "PYTHONPATH": str(SRC) + os.pathsep +
             os.environ.get("PYTHONPATH", "")})
    if result.returncode != 0:
        raise SystemExit(f"resume exited {result.returncode}")

    with CampaignStore(store_path) as store:
        report = load_report(store, campaign_id)
        counts = store.counts(campaign_id)
        reused = store.reused_count(campaign_id)
    write_report_artifacts(args.out, report)
    summary = {
        "counts": counts,
        "reused": reused,
        "digest": report.digest(),
        "control_digest": control_digest,
        "counts_at_kill": at_kill,
    }
    (args.out / "smoke.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary, indent=2))

    assert counts["done"] == CELLS, \
        f"resume left cells unfinished: {counts}"
    assert report.complete, "report not complete after resume"
    assert report.digest() == control_digest, (
        f"digest mismatch: interrupted {report.digest()} != "
        f"control {control_digest}")
    check_heartbeat(store_path)
    kamikaze = [r for r in report.rows if r.runner == "kamikaze"][0]
    assert kamikaze.state == "done" and kamikaze.attempt >= 2, (
        f"kamikaze cell did not recover: {kamikaze.state} "
        f"after {kamikaze.attempt} attempts")
    print("campaign smoke OK: kill -9 + resume matches uninterrupted run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
