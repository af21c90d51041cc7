"""Lease heartbeat of a running cell (`repro.campaign.worker`).

While a cell runs, a background thread extends its claim's lease every
``lease_s / 3`` over its own store connection.  The thread opens that
connection at its first beat, so a cell shorter than one interval costs
one connection, the worker's own; a claim that went stale ends the
thread at its next beat.
"""

import sqlite3
import threading

import pytest

from repro.campaign import worker
from repro.campaign.grid import CampaignGrid, expand_grids
from repro.campaign.policy import RetryPolicy
from repro.campaign.store import CampaignStore

POLICY = RetryPolicy(max_attempts=1).to_payload()


def claimed_sleep_cell(path, duration_s, lease_s):
    """A store holding one claimed ``sleep`` cell: ``(campaign id, row)``."""
    with CampaignStore(path) as store:
        campaign_id = store.create_campaign("heartbeat")
        store.add_runs(campaign_id, expand_grids([CampaignGrid(
            runner="sleep", axes={"cell": (0,)},
            base={"duration_s": duration_s})]))
        return campaign_id, store.claim_next(campaign_id, "test", lease_s)


def join_heartbeats():
    for thread in threading.enumerate():
        if thread.name.startswith("heartbeat-"):
            thread.join(timeout=5.0)
            assert not thread.is_alive()


def test_cell_outliving_an_interval_extends_its_lease(tmp_path):
    lease_s = 0.15
    path = tmp_path / "campaigns.db"
    campaign_id, claimed = claimed_sleep_cell(path, 0.4, lease_s)
    assert worker.execute_run(str(path), campaign_id, claimed.spec_id,
                              claimed.claim_token, lease_s, POLICY) == "done"
    join_heartbeats()
    conn = sqlite3.connect(path)
    started, beat, expires = conn.execute(
        "SELECT started_at, heartbeat_at, lease_expires_at FROM runs"
    ).fetchone()
    conn.close()
    # ``mark_running`` stamps ``heartbeat_at = started_at``; only a beat
    # moves it.
    assert beat > started
    assert expires == pytest.approx(beat + lease_s)
    assert expires > claimed.lease_expires_at


def test_cell_shorter_than_an_interval_opens_one_store(tmp_path,
                                                       monkeypatch):
    lease_s = 60.0
    path = tmp_path / "campaigns.db"
    campaign_id, claimed = claimed_sleep_cell(path, 0.05, lease_s)
    opened = []

    class CountingStore(CampaignStore):
        def __init__(self, *args, **kwargs):
            opened.append(threading.current_thread().name)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(worker, "CampaignStore", CountingStore)
    assert worker.execute_run(str(path), campaign_id, claimed.spec_id,
                              claimed.claim_token, lease_s, POLICY) == "done"
    join_heartbeats()
    assert opened == [threading.current_thread().name]


def test_stale_claim_ends_the_heartbeat(tmp_path):
    lease_s = 0.15
    path = tmp_path / "campaigns.db"
    campaign_id, claimed = claimed_sleep_cell(path, 0.0, lease_s)
    with CampaignStore(path) as store:
        assert store.release_claim(campaign_id, claimed.spec_id,
                                   claimed.claim_token)
    heartbeat = worker._HeartbeatThread(str(path), campaign_id,
                                        claimed.spec_id,
                                        claimed.claim_token, lease_s)
    heartbeat.start()
    heartbeat.join(timeout=5.0)
    assert not heartbeat.is_alive()
