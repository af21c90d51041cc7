"""Decentralized gradient synchronization (paper §V-A.2 and Fig. 8b).

Workers must agree on which gradients are ready everywhere before
all-reducing them.  Horovod routes this through a master; AIACC-Training
instead performs a **ring all-reduce with a min operator over the
readiness bit vector** among the per-worker MPI daemons:

    "To check if a gradient has been computed by all training workers, we
    apply a min reduction operator to each element of the gradient
    synchronization vector.  Since a min operator is used, a gradient in
    the all-reduced synchronization vector will be marked as 0 (not
    ready) if it has not been computed by any of the workers."

This module provides the message-level implementation used in numeric
mode (and by the tests that prove the min-reduction semantics); the timed
engine models the same exchange through
:meth:`repro.collectives.timed.TimedCollectives.control_roundtrip`.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.errors import SynchronizationError, SyncTimeoutError, \
    require_count
from repro.collectives.primitives import ReduceOp
from repro.collectives.ring import ring_allreduce_worker
from repro.core.registration import GradientRegistry
from repro.obs import Observability
from repro.sim.kernel import Simulator
from repro.sim.mpi import Communicator

#: Tag namespace for synchronization rounds; one stride per round.
_SYNC_TAG_BASE = 8 << 20
_SYNC_TAG_STRIDE = 16384
#: Tag offset per membership epoch.  An elastic transition re-keys the
#: sync namespace so a straggling pre-transition ring message can never
#: collide with the re-formed group's rounds.
_SYNC_EPOCH_STRIDE = 1 << 26


class DecentralizedSynchronizer:
    """Per-worker handle performing bit-vector min all-reduce rounds."""

    def __init__(self, sim: Simulator, comm: Communicator, rank: int,
                 registry: GradientRegistry,
                 obs: Observability | None = None,
                 epoch: int = 0) -> None:
        if not registry.frozen:
            raise SynchronizationError(
                "registry must be frozen before synchronization"
            )
        require_count("epoch", epoch, 0, SynchronizationError)
        self.sim = sim
        self.comm = comm
        self.rank = rank
        self.registry = registry
        #: Membership epoch keying this synchronizer's tag namespace
        #: (epoch 0 preserves the historical tag layout).
        self.epoch = epoch
        self._round = 0
        #: Observability sink for negotiation spans/counters.
        self.obs = obs or Observability.disabled()
        self._m_rounds = self.obs.registry.counter(
            "aiacc_sync_rounds_total",
            "Decentralized readiness synchronization rounds")

    def sync_round(self, timeout_s: float | None = None) -> t.Generator:
        """Simulated-process generator for one synchronization round.

        All workers must enter the same round number.  Returns the array
        of gradient ids that are ready on **every** worker.

        With ``timeout_s`` set, the round races a deadline: the design is
        master-free (no central health tracker, paper §IV), so a rank
        whose ring pass does not complete in time can only *suspect* a
        peer failure — it raises :class:`SyncTimeoutError` and leaves
        confirmation to the caller's retry policy.
        """
        round_index = self._round
        tag_base = (_SYNC_TAG_BASE + self.epoch * _SYNC_EPOCH_STRIDE
                    + round_index * _SYNC_TAG_STRIDE)
        self._round += 1
        started_at = self.sim.now
        local = self.registry.sync_vector.copy()
        checker = getattr(self.sim, "invariants", None)
        worker = self.sim.spawn(ring_allreduce_worker(
            self.sim, self.comm, self.rank, local,
            op=ReduceOp.MIN, tag_base=tag_base),
            name=f"sync.r{self.rank}")
        if checker is not None:
            checker.on_sync_worker(self, self.rank, round_index, worker)
        if timeout_s is None:
            reduced = yield worker
        else:
            index, value = yield self.sim.any_of(
                [worker, self.sim.timeout(timeout_s)])
            if index != 0:
                # The ring worker must not be abandoned: alive, it keeps
                # consuming this round's tags and peer messages, which
                # collide with the retry round's exchanges.
                if worker.can_interrupt:
                    worker.interrupt("sync deadline missed")
                raise SyncTimeoutError(self.rank, round_index, timeout_s)
            reduced = value
        mask = t.cast(np.ndarray, reduced)
        if mask.shape != local.shape:
            raise SynchronizationError("sync vector shape changed mid-round")
        ready = np.flatnonzero(mask == 1)
        if checker is not None:
            checker.report_sync_result(self.rank, round_index, len(mask),
                                       ready)
        self.obs.timeline.span("sync-round", "negotiate", self.rank,
                               started_at, self.sim.now,
                               round=round_index, ready=len(ready))
        self._m_rounds.inc(rank=self.rank)
        return ready


def synchronize_all(
    registries: t.Sequence[GradientRegistry],
) -> list[np.ndarray]:
    """Run one synchronization round across all workers' registries.

    Convenience wrapper for tests/examples: builds a fresh simulator,
    returns each worker's view of the globally ready gradient ids (which
    the min-reduction guarantees are identical).
    """
    if not registries:
        raise SynchronizationError("need at least one registry")
    lengths = {len(r.sync_vector) for r in registries}
    if len(lengths) != 1:
        raise SynchronizationError(
            f"workers disagree on parameter count: {lengths}"
        )
    sim = Simulator()
    comm = Communicator(sim, size=len(registries))
    synchronizers = [
        DecentralizedSynchronizer(sim, comm, rank, registry)
        for rank, registry in enumerate(registries)
    ]
    processes = [sim.spawn(s.sync_round(), name=f"sync{i}")
                 for i, s in enumerate(synchronizers)]
    sim.run(until=sim.all_of(processes))
    return [t.cast(np.ndarray, p.value) for p in processes]
