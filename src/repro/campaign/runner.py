"""Campaign orchestrator: fans grid cells out across a process pool.

The orchestrator is deliberately **stateless against the store**: it
claims eligible runs (atomic, token-guarded), submits them to a
``concurrent.futures`` process pool, and otherwise just watches.  All
durable progress is recorded by the workers themselves, so the
orchestrator can die at any instant — ``python -m repro campaign
resume <id>`` starts a fresh orchestrator that claims whatever is left.

Failure handling:

* **worker SIGKILL / OOM** — the pool raises
  :class:`~concurrent.futures.process.BrokenProcessPool`; the
  orchestrator releases still-``claimed`` (never started) runs
  immediately, rebuilds the pool, and lets ``running`` runs age out via
  their lease before reclaiming them;
* **orchestrator kill -9** — claimed/running rows keep their lease; the
  next orchestrator's :meth:`~repro.campaign.store.CampaignStore.
  reclaim_expired` re-queues them once the lease passes.  Its pool
  workers exit (:func:`_exit_with`), leaving their cells to the lease;
* **crash-looping cells** — the reclaim path quarantines cells that
  burn the whole attempt budget without ever reporting an error.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import threading
import time
import typing as t

from repro.campaign.grid import (
    CampaignGrid,
    expand_grids,
    grids_payload,
)
from repro.campaign.policy import RetryPolicy
from repro.campaign.store import CampaignStore, RunRow
from repro.campaign.worker import execute_run
from repro.errors import CampaignError, require_count, require_real

#: progress callback: counts dict after every state change wave.
ProgressFn = t.Callable[[dict[str, int]], None]


def _exit_with(parent_pid: int) -> None:
    """Pool initializer: exit once the orchestrator ``parent_pid`` dies
    (the worker is re-parented), so no lease keeper outlives it."""
    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(0.2)
        os._exit(1)
    threading.Thread(target=watch, daemon=True).start()


def submit_campaign(store: CampaignStore, grids: t.Sequence[CampaignGrid],
                    name: str = "campaign") -> int:
    """Register a campaign and its expanded cells; returns the id."""
    specs = expand_grids(grids)
    campaign_id = store.create_campaign(name, grids_payload(grids))
    store.add_runs(campaign_id, specs)
    return campaign_id


class CampaignRunner:
    """Drive one campaign in the store to completion."""

    def __init__(self, store_path: str | os.PathLike[str],
                 campaign_id: int,
                 max_workers: int = 2,
                 lease_s: float = 10.0,
                 poll_s: float = 0.1,
                 policy: RetryPolicy | None = None,
                 mp_start_method: str = "spawn") -> None:
        self.store_path = os.fspath(store_path)
        self.campaign_id = campaign_id
        self.max_workers = require_count("max_workers", max_workers, 1,
                                         CampaignError)
        self.lease_s = require_real("lease_s", lease_s, CampaignError,
                                    positive=True)
        self.poll_s = require_real("poll_s", poll_s, CampaignError)
        self.policy = policy or RetryPolicy()
        #: Consecutive broken-pool rebuilds tolerated before giving up.
        self.max_pool_rebuilds = 8
        # ``spawn`` keeps workers free of inherited SQLite connections
        # and other fork-unsafe state; ``fork`` is allowed for tests
        # that need fast in-process iteration.
        self._mp_context = multiprocessing.get_context(mp_start_method)
        self._claimant = f"orchestrator-{os.getpid()}"

    # -- pool plumbing ---------------------------------------------------------

    def _new_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.max_workers, mp_context=self._mp_context,
            initializer=_exit_with, initargs=(os.getpid(),))

    def run(self, progress: ProgressFn | None = None,
            max_wall_s: float | None = None) -> dict[str, int]:
        """Run until no run is pending/claimed/running; returns counts.

        ``max_wall_s`` bounds the orchestrator's wall clock (CI safety
        net); exceeding it raises :class:`~repro.errors.CampaignError`
        after the pool is torn down — the campaign itself stays
        resumable.
        """
        if max_wall_s is not None:
            require_real("max_wall_s", max_wall_s, CampaignError)
        store = CampaignStore(self.store_path)
        store.campaign(self.campaign_id)  # typed error if unknown
        pool = self._new_pool()
        inflight: dict[concurrent.futures.Future, RunRow] = {}
        deadline = (time.monotonic() + max_wall_s
                    if max_wall_s is not None else None)
        # Consecutive pool breakages without a single completed future:
        # a worker environment that cannot even start (bad interpreter,
        # unimportable package) would otherwise claim/release forever.
        broken_streak = 0
        try:
            while True:
                if deadline is not None and time.monotonic() > deadline:
                    raise CampaignError(
                        f"campaign {self.campaign_id} exceeded its "
                        f"{max_wall_s:g}s wall-clock budget; "
                        f"resume to continue")
                now = time.time()
                store.reclaim_expired(self.campaign_id, self.policy,
                                      now=now)
                # Fill free pool slots with fresh claims.
                submitted = False
                while len(inflight) < self.max_workers:
                    row = store.claim_next(self.campaign_id,
                                           self._claimant, self.lease_s,
                                           now=now)
                    if row is None:
                        break
                    future = pool.submit(
                        execute_run, self.store_path, self.campaign_id,
                        row.spec_id, t.cast(str, row.claim_token),
                        self.lease_s, self.policy.to_payload())
                    inflight[future] = row
                    submitted = True
                if submitted and progress is not None:
                    progress(store.counts(self.campaign_id))

                if not inflight:
                    if store.active_count(self.campaign_id) == 0:
                        break
                    # Nothing claimable right now: sleep to the nearest
                    # backoff gate / lease expiry instead of spinning.
                    wake = store.next_wakeup(self.campaign_id)
                    delay = self.poll_s
                    if wake is not None:
                        delay = min(max(self.poll_s, wake - time.time()),
                                    max(self.poll_s, self.lease_s))
                    time.sleep(delay)
                    continue

                done, _pending = concurrent.futures.wait(
                    inflight, timeout=self.poll_s,
                    return_when=concurrent.futures.FIRST_COMPLETED)
                for future in done:
                    row = inflight.pop(future)
                    try:
                        future.result()
                        broken_streak = 0
                    except concurrent.futures.BrokenExecutor:
                        # BrokenProcessPool: a worker process died
                        # abruptly (SIGKILL/OOM) and poisoned the pool.
                        broken_streak += 1
                        if broken_streak > self.max_pool_rebuilds:
                            raise CampaignError(
                                f"process pool broke "
                                f"{broken_streak} times in a row "
                                f"without completing a single run; "
                                f"the worker environment looks "
                                f"unusable") from None
                        pool, inflight = self._recover_broken_pool(
                            store, pool, inflight, row)
                        break
                if done and progress is not None:
                    progress(store.counts(self.campaign_id))
            counts = store.counts(self.campaign_id)
            if progress is not None:
                progress(counts)
            return counts
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
            store.close()

    def _recover_broken_pool(
        self, store: CampaignStore,
        pool: concurrent.futures.ProcessPoolExecutor,
        inflight: dict[concurrent.futures.Future, RunRow],
        failed_row: RunRow,
    ) -> tuple[concurrent.futures.ProcessPoolExecutor,
               dict[concurrent.futures.Future, RunRow]]:
        """A worker died abruptly; rebuild the pool and release claims.

        Every inflight future is now poisoned.  Runs still in
        ``claimed`` never reached a worker and are released for
        immediate re-claim; runs in ``running`` may have been executing
        in the dead process (or may still be finishing elsewhere), so
        they are left to their lease — the token guard makes either
        outcome safe.
        """
        pool.shutdown(wait=False, cancel_futures=True)
        for row in [failed_row, *inflight.values()]:
            if row.claim_token is not None:
                store.release_claim(self.campaign_id, row.spec_id,
                                    row.claim_token)
        return self._new_pool(), {}
