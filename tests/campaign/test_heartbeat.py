"""Lease heartbeat of a running cell (`repro.campaign.worker`).

While a cell runs, the process's lease keeper extends its claim's lease
every ``lease_s / 3`` over the keeper's own store connection.  The
keeper opens that connection at its first beat, so a cell shorter than
one interval costs one connection, the worker's own; a claim that went
stale is dropped at its next beat while the keeper beats on for the
others.
"""

import sqlite3
import threading
import time

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


def test_cell_outliving_an_interval_extends_its_lease(tmp_path):
    lease_s = 0.15
    path = tmp_path / "campaigns.db"
    campaign_id, claimed = claimed_sleep_cell(path, 0.4, lease_s)
    assert worker.execute_run(str(path), campaign_id, claimed.spec_id,
                              claimed.claim_token, lease_s, POLICY) == "done"
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
    assert opened == [threading.current_thread().name]


def beaten(path, spec_id):
    """``(heartbeat_at, claimed_at)`` of a cell; only a beat moves the
    first past the second."""
    conn = sqlite3.connect(path)
    try:
        return conn.execute(
            "SELECT heartbeat_at, claimed_at FROM runs WHERE spec_id = ?",
            (spec_id,)).fetchone()
    finally:
        conn.close()


def test_stale_claim_is_dropped_and_the_keeper_beats_on(tmp_path):
    lease_s = 0.15
    path = tmp_path / "campaigns.db"
    with CampaignStore(path) as store:
        campaign_id = store.create_campaign("keeper")
        store.add_runs(campaign_id, expand_grids([CampaignGrid(
            runner="sleep", axes={"cell": (0, 1)})]))
        stale = store.claim_next(campaign_id, "test", lease_s)
        live = store.claim_next(campaign_id, "test", lease_s)
        assert store.release_claim(campaign_id, stale.spec_id,
                                   stale.claim_token)
    keeper = worker._LeaseKeeper()
    with keeper.hold(str(path), campaign_id, stale.spec_id,
                     stale.claim_token, lease_s), \
            keeper.hold(str(path), campaign_id, live.spec_id,
                        live.claim_token, lease_s):
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            with keeper._cond:
                held = set(keeper._claims)
            beat, claimed_at = beaten(path, live.spec_id)
            if held == {live.claim_token} and beat > claimed_at:
                break
            time.sleep(0.02)
        assert held == {live.claim_token}
        first = beaten(path, live.spec_id)[0]
        assert first > claimed_at
        # The keeper still beats the live claim after dropping the other.
        while beaten(path, live.spec_id)[0] == first:
            assert time.monotonic() < deadline + 5.0
            time.sleep(0.02)
    with CampaignStore(path) as store:
        assert store.run(campaign_id, stale.spec_id).state == "pending"
