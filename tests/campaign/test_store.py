"""Durable results store (`repro.campaign.store`).

The contract under test: every state transition is atomic and
token-guarded, so concurrent claimants can never double-claim a cell,
a stale worker can never overwrite a newer attempt, and a terminal
state is recorded exactly once.
"""

import sqlite3

import pytest

from repro.campaign.grid import CampaignGrid, expand_grids
from repro.campaign.policy import RetryPolicy
from repro.campaign.store import (
    ACTIVE_STATES,
    STATES,
    TERMINAL_STATES,
    SCHEMA_VERSION,
    CampaignStore,
    open_store_readonly,
)
from repro.errors import CampaignStoreError


def make_campaign(store, cells=3):
    specs = expand_grids([CampaignGrid(
        runner="sleep", axes={"cell": tuple(range(cells))})])
    campaign_id = store.create_campaign("test")
    store.add_runs(campaign_id, specs)
    return campaign_id, specs


@pytest.fixture
def store(tmp_path):
    with CampaignStore(tmp_path / "campaigns.db") as s:
        yield s


class TestSchema:
    def test_states_partition(self):
        assert set(STATES) == set(ACTIVE_STATES) | set(TERMINAL_STATES)

    def test_missing_store_raises_typed(self, tmp_path):
        with pytest.raises(CampaignStoreError):
            open_store_readonly(tmp_path / "nope.db")

    def test_corrupt_store_raises_typed(self, tmp_path):
        path = tmp_path / "corrupt.db"
        path.write_text("this is not a sqlite database at all........")
        with pytest.raises(CampaignStoreError):
            open_store_readonly(path)

    def test_unknown_campaign_raises_typed(self, store):
        with pytest.raises(CampaignStoreError):
            store.campaign(999)

    def test_new_store_is_stamped(self, tmp_path, ddl_on_open):
        path = tmp_path / "campaigns.db"
        assert ddl_on_open(path)
        conn = sqlite3.connect(path)
        assert conn.execute("PRAGMA user_version").fetchone()[0] == \
            SCHEMA_VERSION
        conn.close()

    def test_reopening_a_stamped_store_issues_no_ddl(self, tmp_path,
                                                      ddl_on_open):
        path = tmp_path / "campaigns.db"
        with CampaignStore(path) as store:
            campaign_id, _ = make_campaign(store)
        assert ddl_on_open(path) == []
        with CampaignStore(path) as store:
            assert store.counts(campaign_id)["pending"] == 3


class TestSubmission:
    def test_add_runs_is_idempotent(self, store):
        campaign_id, specs = make_campaign(store, cells=3)
        assert store.counts(campaign_id)["pending"] == 3
        # Resubmitting the same grid adds nothing and resets nothing.
        assert store.add_runs(campaign_id, specs) == 0
        assert store.counts(campaign_id)["pending"] == 3

    def test_counts_zero_filled(self, store):
        campaign_id, _ = make_campaign(store, cells=1)
        counts = store.counts(campaign_id)
        assert set(counts) == set(STATES)
        assert counts["done"] == 0


class TestClaiming:
    def test_claim_increments_attempt_and_stamps_token(self, store):
        campaign_id, _ = make_campaign(store, cells=1)
        row = store.claim_next(campaign_id, "orch-1", lease_s=10.0)
        assert row is not None
        assert row.state == "claimed"
        assert row.attempt == 1
        assert row.claim_token
        assert row.claimed_by == "orch-1"

    def test_no_double_claim(self, store):
        # The atomicity invariant: N cells yield exactly N successful
        # claims no matter how many claimants race.
        campaign_id, _ = make_campaign(store, cells=2)
        first = store.claim_next(campaign_id, "a", 10.0)
        second = store.claim_next(campaign_id, "b", 10.0)
        third = store.claim_next(campaign_id, "c", 10.0)
        assert first is not None and second is not None
        assert first.spec_id != second.spec_id
        assert third is None

    def test_backoff_gate_defers_claims(self, store):
        campaign_id, _ = make_campaign(store, cells=1)
        row = store.claim_next(campaign_id, "a", 10.0, now=100.0)
        store.mark_running(campaign_id, row.spec_id, row.claim_token,
                           now=100.0)
        state = store.record_failure(
            campaign_id, row.spec_id, row.claim_token,
            RetryPolicy(max_attempts=3, base_backoff_s=5.0),
            error_class="TransientWorkerError", error="x",
            traceback_text="", wall_time_s=0.1, now=100.0)
        assert state == "pending"
        # Not claimable until the backoff gate passes...
        assert store.claim_next(campaign_id, "a", 10.0, now=101.0) is None
        assert store.next_wakeup(campaign_id) == pytest.approx(105.0)
        # ...then claimable again.
        assert store.claim_next(campaign_id, "a", 10.0, now=106.0) \
            is not None

    def test_release_claim_only_before_running(self, store):
        campaign_id, _ = make_campaign(store, cells=1)
        row = store.claim_next(campaign_id, "a", 10.0)
        assert store.release_claim(campaign_id, row.spec_id,
                                   row.claim_token)
        released = store.run(campaign_id, row.spec_id)
        assert released.state == "pending"
        assert released.attempt == 0  # the aborted claim is not charged
        row = store.claim_next(campaign_id, "a", 10.0)
        store.mark_running(campaign_id, row.spec_id, row.claim_token)
        # A running cell may still be executing: never release it.
        assert not store.release_claim(campaign_id, row.spec_id,
                                       row.claim_token)


class TestTokenGuards:
    def test_stale_token_cannot_record_done(self, store):
        campaign_id, _ = make_campaign(store, cells=1)
        row = store.claim_next(campaign_id, "a", 10.0)
        store.mark_running(campaign_id, row.spec_id, row.claim_token)
        assert not store.record_done(campaign_id, row.spec_id,
                                     "wrong-token", {"x": 1}, 0.1)
        assert store.run(campaign_id, row.spec_id).state == "running"

    def test_mark_running_begins_a_claim_once(self, store):
        campaign_id, _ = make_campaign(store, cells=1)
        row = store.claim_next(campaign_id, "a", 10.0)
        assert store.mark_running(campaign_id, row.spec_id,
                                  "wrong-token") is None
        begun, twin = store.mark_running(campaign_id, row.spec_id,
                                         row.claim_token, now=100.0)
        assert twin is None  # sleep cells have no run key
        assert begun.state == "running"
        assert begun.heartbeat_at == 100.0
        assert (begun.spec_id, begun.claim_token, begun.attempt) == \
            (row.spec_id, row.claim_token, 1)
        assert store.mark_running(campaign_id, row.spec_id,
                                  row.claim_token) is None

    def test_mark_running_returns_the_lowest_done_twin(self, store):
        # Four label twins of one run, claimed in spec id order: the
        # first fails, the next two end done, the last then begins.
        campaign_id = store.create_campaign("twins")
        store.add_runs(campaign_id, expand_grids([CampaignGrid(
            runner="measure", axes={"figure": ("a", "b", "c", "d")},
            base={"model": "resnet50", "gpus": 8})]))
        failed, low, high, last = [store.claim_next(campaign_id, "a", 10.0)
                                   for _ in range(4)]
        for claim in (failed, low, high):
            _, twin = store.mark_running(campaign_id, claim.spec_id,
                                         claim.claim_token)
            assert twin is None
        assert store.record_failure(
            campaign_id, failed.spec_id, failed.claim_token,
            RetryPolicy(max_attempts=1), error_class="E", error="x",
            traceback_text="", wall_time_s=0.1) == "failed"
        for claim, value in ((high, 2), (low, 1)):
            assert store.record_done(campaign_id, claim.spec_id,
                                     claim.claim_token, {"x": value}, 0.1)
        _, twin = store.mark_running(campaign_id, last.spec_id,
                                     last.claim_token)
        assert twin == (low.spec_id, {"x": 1})

    def test_record_done_is_exactly_once(self, store):
        campaign_id, _ = make_campaign(store, cells=1)
        row = store.claim_next(campaign_id, "a", 10.0)
        store.mark_running(campaign_id, row.spec_id, row.claim_token)
        assert store.record_done(campaign_id, row.spec_id,
                                 row.claim_token, {"x": 1}, 0.1)
        # The token is consumed by the first terminal transition.
        assert not store.record_done(campaign_id, row.spec_id,
                                     row.claim_token, {"x": 2}, 0.1)
        assert store.run(campaign_id, row.spec_id).result == {"x": 1}

    def test_reclaimed_cell_drops_stale_worker_result(self, store):
        # The slow-worker race: the lease expires, the cell is re-queued
        # and re-claimed, and only then the presumed-dead worker finishes.
        campaign_id, _ = make_campaign(store, cells=1)
        row = store.claim_next(campaign_id, "a", lease_s=1.0, now=100.0)
        store.mark_running(campaign_id, row.spec_id, row.claim_token,
                           now=100.0)
        store.reclaim_expired(campaign_id, RetryPolicy(), now=102.0)
        fresh = store.claim_next(campaign_id, "b", 10.0, now=102.0)
        assert fresh is not None
        assert not store.record_done(campaign_id, row.spec_id,
                                     row.claim_token, {"stale": True}, 5.0)
        assert not store.heartbeat(campaign_id, row.spec_id,
                                   row.claim_token, 1.0)
        assert store.record_done(campaign_id, fresh.spec_id,
                                 fresh.claim_token, {"fresh": True}, 0.1)
        assert store.run(campaign_id, row.spec_id).result == {"fresh": True}


class TestLeases:
    def test_reclaim_requeues_expired_runs(self, store):
        campaign_id, _ = make_campaign(store, cells=2)
        row = store.claim_next(campaign_id, "a", lease_s=1.0, now=100.0)
        # Within the lease nothing is reclaimed.
        assert store.reclaim_expired(campaign_id, RetryPolicy(),
                                     now=100.5) == []
        reclaimed = store.reclaim_expired(campaign_id, RetryPolicy(),
                                          now=102.0)
        assert reclaimed == [row.spec_id]
        requeued = store.run(campaign_id, row.spec_id)
        assert requeued.state == "pending"
        assert requeued.attempt == 1  # the crashed attempt stays charged

    def test_heartbeat_extends_lease(self, store):
        campaign_id, _ = make_campaign(store, cells=1)
        row = store.claim_next(campaign_id, "a", lease_s=1.0, now=100.0)
        store.mark_running(campaign_id, row.spec_id, row.claim_token,
                           now=100.0)
        assert store.heartbeat(campaign_id, row.spec_id, row.claim_token,
                               lease_s=1.0, now=100.9)
        # Without the heartbeat the lease would have expired at 101.
        assert store.reclaim_expired(campaign_id, RetryPolicy(),
                                     now=101.5) == []

    def test_crash_looping_cell_is_quarantined(self, store):
        # A cell whose claimant dies on every attempt never reports a
        # typed error; the reclaim path must stop it, not loop forever.
        campaign_id, _ = make_campaign(store, cells=1)
        policy = RetryPolicy(max_attempts=2)
        now = 100.0
        for _ in range(policy.max_attempts):
            row = store.claim_next(campaign_id, "a", lease_s=1.0, now=now)
            assert row is not None
            now += 5.0
            store.reclaim_expired(campaign_id, policy, now=now)
        final = store.run(campaign_id, row.spec_id)
        assert final.state == "quarantined"
        assert final.error_class == "WorkerCrash"


class TestFailurePolicyIntegration:
    def _fail(self, store, campaign_id, policy, error_class, now):
        row = store.claim_next(campaign_id, "a", 10.0, now=now)
        store.mark_running(campaign_id, row.spec_id, row.claim_token,
                           now=now)
        return store.record_failure(
            campaign_id, row.spec_id, row.claim_token, policy,
            error_class=error_class, error="boom",
            traceback_text="tb", wall_time_s=0.1, now=now)

    def test_repeated_class_quarantines_after_retry(self, store):
        campaign_id, _ = make_campaign(store, cells=1)
        policy = RetryPolicy(max_attempts=5, base_backoff_s=0.0)
        assert self._fail(store, campaign_id, policy,
                          "InjectedFailure", now=100.0) == "pending"
        assert self._fail(store, campaign_id, policy,
                          "InjectedFailure", now=200.0) == "quarantined"
        row = store.runs(campaign_id, states=("quarantined",))[0]
        assert "deterministic failure" in row.error

    def test_alternating_classes_fail_on_budget(self, store):
        campaign_id, _ = make_campaign(store, cells=1)
        policy = RetryPolicy(max_attempts=3, base_backoff_s=0.0)
        assert self._fail(store, campaign_id, policy,
                          "ErrA", now=100.0) == "pending"
        assert self._fail(store, campaign_id, policy,
                          "ErrB", now=200.0) == "pending"
        assert self._fail(store, campaign_id, policy,
                          "ErrA", now=300.0) == "failed"
        row = store.runs(campaign_id, states=("failed",))[0]
        assert row.attempt == 3
        assert "retry budget exhausted" in row.error
