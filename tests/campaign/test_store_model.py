"""Model-based test of the campaign store (`repro.campaign.store`).

A Hypothesis state machine drives one :class:`CampaignStore` on a
virtual clock (every call passes ``now=``) against a dict of model
rows.  Two workers claim cells; tokens are picked from every token the
store ever issued plus a foreign one, so stale and foreign claims are
exercised as often as live ones.  Between the rules the clock jumps,
sometimes past a lease, and the store is closed and reopened, with
or without its schema stamp.  ``mark_running`` must return the row and
the twin the model predicts.

After every step the store's rows must equal the model's, and:

1. every run is in exactly one state, and ``counts`` sums to the runs
   added;
2. a stale or foreign token changes no row;
3. a ``done`` result never changes;
4. ``reused_from`` names a ``done`` row with the same ``run_key``;
5. ``attempt`` stays within the policy's budget.
"""

import dataclasses
import shutil
import sqlite3
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, \
    invariant, rule

from repro.campaign.grid import RunSpec, run_key
from repro.campaign.policy import RETRY, RetryPolicy
from repro.campaign.store import STATES, CampaignStore

POLICY = RetryPolicy(max_attempts=3, base_backoff_s=0.5,
                     max_backoff_s=2.0)

#: Two runs under two labels each (label-only twins), and two cells of
#: a runner without labels.
SPECS = (
    *(RunSpec("measure", {"model": model, "gpus": 8, "figure": figure})
      for model in ("resnet50", "vgg16") for figure in ("a", "b")),
    *(RunSpec("sleep", {"cell": cell}) for cell in (0, 1)),
)

WORKERS = ("w1", "w2")
LEASES = (1.0, 2.0)
ERRORS = ("ErrA", "ErrB")

#: A token the store never issued.
FOREIGN = "f" * 32


@dataclasses.dataclass
class Row:
    """What the store should hold for one run."""

    run_key: str | None
    state: str = "pending"
    attempt: int = 0
    not_before: float = 0.0
    claim_token: str | None = None
    claimed_by: str | None = None
    lease_expires_at: float | None = None
    last_error_class: str | None = None
    error_class: str | None = None
    result: dict | None = None
    reused_from: str | None = None


def observed(row):
    """The fields compared between a store row and a model :class:`Row`;
    the lease only counts while a claim holds it."""
    lease = (row.lease_expires_at
             if row.state in ("claimed", "running") else None)
    return (row.state, row.attempt, row.not_before, row.claim_token,
            row.claimed_by, lease, row.error_class, row.result,
            row.reused_from, row.run_key)


class StoreMachine(RuleBasedStateMachine):

    @initialize()
    def setup(self):
        self.directory = tempfile.mkdtemp(prefix="store-model-")
        self.path = f"{self.directory}/campaigns.db"
        self.store = CampaignStore(self.path)
        self.now = 1000.0
        self.campaign_id = self.store.create_campaign("model", now=self.now)
        self.rows = {}
        self.tokens = []
        self.done_results = {}
        self.next_result = 0

    # -- helpers ---------------------------------------------------------------

    def snapshot(self):
        return {row.spec_id: row
                for row in self.store.runs(self.campaign_id)}

    def holder(self, index):
        """``(token, spec id, model row)`` of the ``index``-th token ever
        issued, the row ``None`` once the claim went stale; the last
        index is the foreign token."""
        tokens = [*self.tokens, FOREIGN]
        token = tokens[index % len(tokens)]
        for spec_id, row in self.rows.items():
            if row.claim_token == token:
                return token, spec_id, row
        return token, None, None

    def target(self, index, spec_id):
        """The cell a token-guarded call names: the holder's, else any."""
        if spec_id is not None:
            return spec_id
        ids = sorted(self.rows) or [SPECS[0].spec_id]
        return ids[index % len(ids)]

    def guarded(self, live, call):
        """Run ``call``; when the token is not live, no row may change."""
        before = self.snapshot()
        outcome = call()
        if not live:
            assert self.snapshot() == before, "a stale token changed a row"
        return outcome

    def twin(self, key):
        """The lowest ``done`` spec id of run ``key``, or None."""
        if key is None:
            return None
        done = sorted(spec_id for spec_id, row in self.rows.items()
                      if row.run_key == key and row.state == "done")
        return done[0] if done else None

    # -- rules -----------------------------------------------------------------

    @rule(picks=st.lists(st.sampled_from(SPECS), max_size=4))
    def add_runs(self, picks):
        new = {spec.spec_id: spec for spec in picks
               if spec.spec_id not in self.rows}
        assert self.store.add_runs(self.campaign_id, picks) == len(new)
        for spec_id, spec in new.items():
            self.rows[spec_id] = Row(run_key(spec.runner, spec.params))

    @rule(worker=st.sampled_from(WORKERS), lease_s=st.sampled_from(LEASES))
    def claim_next(self, worker, lease_s):
        eligible = sorted(spec_id for spec_id, row in self.rows.items()
                          if row.state == "pending"
                          and row.not_before <= self.now)
        claimed = self.store.claim_next(self.campaign_id, worker, lease_s,
                                        now=self.now)
        if not eligible:
            assert claimed is None
            return
        assert claimed is not None and claimed.spec_id == eligible[0]
        assert claimed.claim_token not in self.tokens
        self.tokens.append(claimed.claim_token)
        row = self.rows[claimed.spec_id]
        row.state = "claimed"
        row.attempt += 1
        row.claim_token = claimed.claim_token
        row.claimed_by = worker
        row.lease_expires_at = self.now + lease_s
        row.error_class = None

    @rule(index=st.integers(min_value=0))
    def mark_running(self, index):
        token, spec_id, row = self.holder(index)
        live = row is not None and row.state == "claimed"
        began = self.guarded(live, lambda: self.store.mark_running(
            self.campaign_id, self.target(index, spec_id), token,
            now=self.now))
        if not live:
            assert began is None
            return
        row.state = "running"
        begun, twin = began
        assert observed(begun) == observed(row)
        source = self.twin(row.run_key)
        assert twin == (None if source is None
                        else (source, self.rows[source].result))

    @rule(index=st.integers(min_value=0), lease_s=st.sampled_from(LEASES))
    def heartbeat(self, index, lease_s):
        token, spec_id, row = self.holder(index)
        live = row is not None
        beat = self.guarded(live, lambda: self.store.heartbeat(
            self.campaign_id, self.target(index, spec_id), token, lease_s,
            now=self.now))
        assert beat == live
        if live:
            row.lease_expires_at = self.now + lease_s

    @rule(index=st.integers(min_value=0), reuse=st.booleans())
    def record_done(self, index, reuse):
        token, spec_id, row = self.holder(index)
        live = row is not None
        source = self.twin(row.run_key) if live and reuse else None
        if source is not None:
            result = self.rows[source].result
        else:
            result = {"value": self.next_result}
            self.next_result += 1
        recorded = self.guarded(live, lambda: self.store.record_done(
            self.campaign_id, self.target(index, spec_id), token, result,
            wall_time_s=0.1, now=self.now, reused_from=source))
        assert recorded == live
        if live:
            row.state = "done"
            row.claim_token = None
            row.error_class = None
            row.result = dict(result)
            row.reused_from = source
            self.done_results[spec_id] = dict(result)

    @rule(index=st.integers(min_value=0),
          error_class=st.sampled_from(ERRORS))
    def record_failure(self, index, error_class):
        token, spec_id, row = self.holder(index)
        live = row is not None
        state = self.guarded(live, lambda: self.store.record_failure(
            self.campaign_id, self.target(index, spec_id), token, POLICY,
            error_class=error_class, error="boom", traceback_text="",
            wall_time_s=0.1, now=self.now))
        if not live:
            assert state is None
            return
        decision = POLICY.decide(row.attempt, error_class,
                                 row.last_error_class)
        row.claim_token = None
        row.last_error_class = row.error_class = error_class
        if decision.action == RETRY:
            row.state = "pending"
            row.claimed_by = None
            row.not_before = self.now + decision.delay_s
        else:
            row.state = "quarantined" if decision.action == "quarantine" \
                else "failed"
        assert state == row.state

    @rule(index=st.integers(min_value=0))
    def release_claim(self, index):
        token, spec_id, row = self.holder(index)
        live = row is not None and row.state == "claimed"
        released = self.guarded(live, lambda: self.store.release_claim(
            self.campaign_id, self.target(index, spec_id), token))
        assert released == live
        if live:
            row.state = "pending"
            row.attempt -= 1
            row.claim_token = row.claimed_by = None
            row.lease_expires_at = None

    @rule()
    def reclaim_expired(self):
        requeued = []
        for spec_id, row in sorted(self.rows.items()):
            if row.state not in ("claimed", "running") \
                    or not row.lease_expires_at < self.now:
                continue
            row.claim_token = None
            if row.attempt >= POLICY.max_attempts:
                row.state = "quarantined"
                row.error_class = "WorkerCrash"
            else:
                row.state = "pending"
                row.claimed_by = None
                row.lease_expires_at = None
                requeued.append(spec_id)
        assert self.store.reclaim_expired(
            self.campaign_id, POLICY, now=self.now) == requeued

    @rule(dt=st.sampled_from((0.25, 1.0, max(LEASES) + 0.5)))
    def advance(self, dt):
        self.now += dt

    @rule(unstamp=st.booleans())
    def reopen(self, unstamp):
        self.store.close()
        if unstamp:
            # An unstamped store reruns the schema script and the
            # migration on open; neither may change a row.
            conn = sqlite3.connect(self.path)
            conn.execute("PRAGMA user_version = 0")
            conn.close()
        self.store = CampaignStore(self.path)

    # -- invariants ------------------------------------------------------------

    @invariant()
    def store_equals_model(self):
        stored = self.snapshot()
        assert set(stored) == set(self.rows)
        for spec_id, row in stored.items():
            assert observed(row) == observed(self.rows[spec_id]), spec_id

    @invariant()
    def every_run_is_in_one_state(self):
        counts = self.store.counts(self.campaign_id)
        assert set(counts) == set(STATES)
        assert sum(counts.values()) == len(self.rows)
        for state in STATES:
            assert counts[state] == sum(row.state == state
                                        for row in self.rows.values())

    @invariant()
    def done_results_never_change(self):
        stored = self.snapshot()
        for spec_id, result in self.done_results.items():
            assert stored[spec_id].state == "done"
            assert stored[spec_id].result == result

    @invariant()
    def reused_from_names_a_done_twin(self):
        stored = self.snapshot()
        for row in stored.values():
            if row.reused_from is None:
                continue
            source = stored[row.reused_from]
            assert source.state == "done"
            assert source.run_key == row.run_key is not None

    @invariant()
    def attempt_stays_within_budget(self):
        for row in self.store.runs(self.campaign_id):
            assert 0 <= row.attempt <= POLICY.max_attempts

    def teardown(self):
        if hasattr(self, "store"):
            self.store.close()
            shutil.rmtree(self.directory, ignore_errors=True)


StoreMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestStoreModel = StoreMachine.TestCase
