"""One store and one lease keeper per worker process
(`repro.campaign.worker`).

``execute_run`` keeps its store open across the cells a process serves
and reopens it only when the path, the file's inode or the pid
changes; a forked pool never touches the connection its parent opened.
One keeper thread per process extends every running claim.
"""

import os
import threading

import pytest

from repro.campaign import worker
from repro.campaign.grid import CampaignGrid, expand_grids
from repro.campaign.policy import RetryPolicy
from repro.campaign.runner import CampaignRunner, submit_campaign
from repro.campaign.store import CampaignStore

POLICY = RetryPolicy(max_attempts=1).to_payload()
LEASE_S = 60.0


def sleep_cells(store, cells, name="cells"):
    campaign_id = store.create_campaign(name)
    store.add_runs(campaign_id, expand_grids([CampaignGrid(
        runner="sleep", axes={"cell": tuple(range(cells))},
        base={"duration_s": 0.0})]))
    return campaign_id


def run_next(path, campaign_id):
    """Claim the next cell and execute it in this process."""
    with CampaignStore(path) as store:
        row = store.claim_next(campaign_id, "test", LEASE_S)
    return worker.execute_run(str(path), campaign_id, row.spec_id,
                              row.claim_token, LEASE_S, POLICY)


@pytest.fixture
def opened(monkeypatch):
    """Threads that opened a worker or keeper store, one entry per open,
    with a fresh worker store slot and lease keeper."""
    names = []

    class CountingStore(CampaignStore):
        def __init__(self, *args, **kwargs):
            names.append(threading.current_thread().name)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(worker, "CampaignStore", CountingStore)
    monkeypatch.setattr(worker, "_WORKER_STORE", worker._ThreadStoreSlot())
    monkeypatch.setattr(worker, "_KEEPER", worker._LeaseKeeper())
    return names


def test_sequential_cells_open_one_store_and_one_keeper(
        tmp_path, opened, monkeypatch):
    path = tmp_path / "campaigns.db"
    with CampaignStore(path) as store:
        campaign_id = sleep_cells(store, 4)
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    assert [run_next(path, campaign_id) for _ in range(4)] == ["done"] * 4
    assert opened == [threading.current_thread().name]
    assert started == ["lease-keeper"]
    with CampaignStore(path) as store:
        assert store.counts(campaign_id)["done"] == 4


def test_store_recreated_at_the_same_path_gets_the_next_result(
        tmp_path, opened):
    path = tmp_path / "campaigns.db"
    with CampaignStore(path) as store:
        first = sleep_cells(store, 1, "first")
    assert run_next(path, first) == "done"
    for suffix in ("", "-wal", "-shm"):
        (tmp_path / f"campaigns.db{suffix}").unlink(missing_ok=True)
    with CampaignStore(path) as store:
        second = sleep_cells(store, 1, "second")
    assert run_next(path, second) == "done"
    with CampaignStore(path) as store:
        assert [row.state for row in store.runs(second)] == ["done"]
        assert store.runs(second)[0].result == {"slept_s": 0.0, "cell": 0}
    assert len(opened) == 2


class ParentOnly:
    """A connection that fails any use outside the process that made it."""

    def __init__(self, conn):
        self._conn = conn
        self._pid = os.getpid()

    def __getattr__(self, name):
        assert os.getpid() == self._pid, \
            "a forked worker used its parent's store connection"
        return getattr(self._conn, name)


def test_fork_pool_after_in_process_cells_opens_its_own_store(
        tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "_WORKER_STORE", worker._ThreadStoreSlot())
    path = tmp_path / "campaigns.db"
    with CampaignStore(path) as store:
        campaign_id = sleep_cells(store, 6)
    assert run_next(path, campaign_id) == "done"
    cached = worker._WORKER_STORE.store
    assert cached is not None
    cached._conn = ParentOnly(cached._conn)
    counts = CampaignRunner(path, campaign_id, max_workers=2,
                            lease_s=5.0, poll_s=0.02,
                            mp_start_method="fork").run(max_wall_s=60.0)
    assert counts["done"] == 6
    # The parent's store still serves the parent.
    assert run_next(path, sleep_cells(cached, 1, "after")) == "done"
