"""Opt-in invariant checking and deterministic-replay support.

The paper's core claim (§V) rests on lock-step agreement: every worker
independently produces the *same* unit plan and the *same* sync decision,
or the multi-streamed all-reduce silently corrupts.  This module is the
harness that checks those agreements — and the kernel's resource
accounting — continuously while a simulation runs, instead of only in
dedicated tests.

Three invariant families:

**Resource accounting** (kernel-level).  Every
:class:`~repro.sim.resources.Resource` built while a checker is attached
keeps a double-entry grant/release ledger; the checker verifies
``in_use == granted_slots - released_slots`` and ``in_use >= 0`` after
every mutation, and quiescence checks assert no slots or acquire grants
leaked after interrupts (the stream pool must drain to zero at iteration
boundaries).

**Event-ordering determinism**.  The kernel breaks simultaneous-event
ties with a monotone insertion counter, so two runs of the same seeded
workload pop events in the same order.  The checker folds every popped
``(time, event-name)`` pair into a rolling BLAKE2 digest
(:meth:`InvariantChecker.digest`, surfaced as
:meth:`~repro.sim.kernel.Simulator.state_digest`); byte-identical digests
across runs prove replay determinism, a diverging digest localises the
first nondeterministic step.

**Cross-worker agreement** (shadow referee).  Per-rank components report
their decisions to the checker, which compares them against the first
reporter for the same round: sync rounds must return identical ready-id
vectors on every rank (:meth:`report_sync_result`), unit plans must be
identical per round (:meth:`report_unit_plan`), no unit plan may contain
degenerate sub-epsilon slices or gaps/overlaps
(:meth:`check_unit_plan`), and a synchronizer must never enter a new
round while its previous ring worker is still alive
(:meth:`on_sync_worker` — the leaked-worker class of bug).

Enabling the checker: pass ``check_invariants=True`` to
:class:`~repro.sim.kernel.Simulator` (the run drivers forward their own
``check_invariants`` argument to it), pass ``--check-invariants`` to a
``repro`` CLI subcommand, or export ``REPRO_CHECK_INVARIANTS=1`` (the CI
hook) — the environment flag makes every new simulator built without an
explicit choice attach a checker.  The checker always attaches at
construction, so the digest covers every popped event.  Violations
raise :class:`~repro.errors.InvariantViolation` naming the invariant,
rank, and simulated time.
"""

from __future__ import annotations

import hashlib
import os
import typing as t

from repro.errors import InvariantViolation, SimulationError

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.packing import AllReduceUnit
    from repro.core.streams import CommStreamPool
    from repro.sim.kernel import Simulator
    from repro.sim.process import Process
    from repro.sim.resources import Resource

#: Environment flag that turns the checker on for every new simulator.
ENV_FLAG = "REPRO_CHECK_INVARIANTS"


def invariants_enabled_by_env() -> bool:
    """Whether ``REPRO_CHECK_INVARIANTS`` requests checking globally."""
    value = os.environ.get(ENV_FLAG, "").strip().lower()
    return value not in ("", "0", "false", "no")


class InvariantChecker:
    """Continuous invariant checking woven through one simulator.

    Attach before building the system under test so resources register
    themselves; components discover the checker through
    ``sim.invariants`` and report into it.  All ``check_*`` /
    ``report_*`` methods raise :class:`InvariantViolation` on failure
    and are no-ops otherwise.
    """

    def __init__(self) -> None:
        self.sim: "Simulator | None" = None
        self._digest = hashlib.blake2b(digest_size=16)
        #: Events folded into the digest so far.
        self.events_hashed = 0
        #: Invariant evaluations performed (all families).
        self.checks = 0
        self._resources: list["Resource"] = []
        #: synchronizer -> its most recently spawned ring worker.
        self._sync_workers: dict[object, "Process"] = {}
        #: (round, vector length) -> (reporting rank, ready-id tuple).
        self._sync_results: dict[tuple[int, int], tuple[int, tuple]] = {}
        #: round -> (reporting rank, unit-plan signature).
        self._unit_plans: dict[int, tuple[int, tuple]] = {}
        #: Membership epoch the referee tables belong to (see
        #: :meth:`advance_epoch`).
        self.epoch = 0

    def attach(self, sim: "Simulator") -> "InvariantChecker":
        """Install this checker as ``sim.invariants``."""
        if sim.invariants is not None and sim.invariants is not self:
            raise SimulationError(
                "simulator already has an invariant checker attached"
            )
        sim.invariants = self
        self.sim = sim
        return self

    def _now(self) -> float | None:
        return self.sim.now if self.sim is not None else None

    def _violate(self, invariant: str, detail: str,
                 rank: int | None = None) -> t.NoReturn:
        raise InvariantViolation(invariant, detail, rank=rank,
                                 sim_time=self._now())

    # -- event-ordering determinism ------------------------------------------

    def record_event(self, when: float, name: str) -> None:
        """Fold one popped event into the run digest (kernel hook)."""
        self._digest.update(f"{when!r}|{name}\n".encode())
        self.events_hashed += 1

    def digest(self) -> str:
        """Hex digest of the event sequence so far.

        Two runs of the same seeded workload must produce byte-identical
        digests; comparing digests is the replay-determinism invariant.
        """
        return self._digest.hexdigest()

    # -- membership epochs ---------------------------------------------------

    def advance_epoch(self, epoch: int) -> None:
        """Re-key the cross-worker referee for a new membership epoch.

        An elastic scale-up/down changes the world size and restarts the
        engines' round numbering, so sync-round and unit-plan agreements
        recorded before the transition must not be compared against
        reports from the new worker group: the per-round referee tables
        (and the dead previous epoch's ring workers) are cleared.  The
        event-sequence digest is untouched — replay determinism spans
        epochs.
        """
        if epoch < self.epoch:
            self._violate(
                "epoch-monotone",
                f"membership epoch moved backwards: {self.epoch} -> "
                f"{epoch}")
        if epoch == self.epoch:
            return
        self.epoch = epoch
        self._sync_workers.clear()
        self._sync_results.clear()
        self._unit_plans.clear()

    # -- resource accounting -------------------------------------------------

    def register_resource(self, resource: "Resource") -> None:
        """Track ``resource`` for accounting and quiescence checks."""
        self._resources.append(resource)

    def check_resource(self, resource: "Resource") -> None:
        """Double-entry accounting: usage must equal the grant ledger."""
        self.checks += 1
        if resource.in_use < 0:
            self._violate(
                "resource-non-negative",
                f"{resource.name!r} holds {resource.in_use} slots")
        if resource.capacity < 1:
            self._violate(
                "resource-capacity-positive",
                f"{resource.name!r} has capacity {resource.capacity}")
        ledger = resource.granted_slots - resource.released_slots
        if resource.in_use != ledger:
            self._violate(
                "resource-ledger",
                f"{resource.name!r}: in_use={resource.in_use} but "
                f"granted-released={ledger}")

    def check_idle(self, resource: "Resource",
                   rank: int | None = None) -> None:
        """Quiescence: no held slots, no queued acquire requests.

        Called at iteration boundaries; a failure means an interrupt
        leaked a grant (or a cancel failed to withdraw a request).
        """
        self.checks += 1
        self.check_resource(resource)
        if resource.in_use != 0:
            self._violate(
                "resource-quiescent",
                f"{resource.name!r} still holds {resource.in_use} "
                "slot(s) at a quiescence point", rank=rank)
        if resource.waiting_requests != 0:
            self._violate(
                "resource-quiescent",
                f"{resource.name!r} still queues "
                f"{resource.waiting_requests} acquire request(s) at a "
                "quiescence point", rank=rank)

    # -- stream-pool accounting ----------------------------------------------

    def check_stream_accounting(self, pool: "CommStreamPool",
                                rank: int | None = None) -> None:
        """``dispatched_units`` must never exceed actual stream grants.

        The counter is maintained independently (a callback per granted
        acquire); cross-checking it against the resource's grant ledger
        catches the count-on-request drift where acquire requests later
        cancelled by an interrupt inflate post-recovery metrics.
        """
        self.checks += 1
        grants = pool._resource.total_grants
        if pool.dispatched_units > grants:
            self._violate(
                "stream-dispatch-count",
                f"pool counted {pool.dispatched_units} dispatched units "
                f"but only {grants} stream grant(s) happened "
                "(counting requests instead of grants?)", rank=rank)

    def check_pool_quiescent(self, pool: "CommStreamPool",
                             rank: int | None = None) -> None:
        """All streams returned and no queued units at a boundary."""
        self.check_stream_accounting(pool, rank=rank)
        self.check_idle(pool._resource, rank=rank)

    # -- cross-worker agreement (shadow referee) -----------------------------

    def on_sync_worker(self, synchronizer: object, rank: int,
                       round_index: int, worker: "Process") -> None:
        """A synchronizer spawned its ring worker for ``round_index``.

        The previous round's worker must be dead by now: a worker
        abandoned on timeout keeps consuming tags and peer messages that
        collide with the retry round (the leaked-worker bug class).
        """
        self.checks += 1
        previous = self._sync_workers.get(synchronizer)
        if previous is not None and previous.alive:
            self._violate(
                "no-leaked-sync-worker",
                f"round {round_index} started while the previous ring "
                f"worker {previous.name!r} is still alive", rank=rank)
        self._sync_workers[synchronizer] = worker

    def report_sync_result(self, rank: int, round_index: int,
                           vector_length: int,
                           ready_ids: t.Iterable[int]) -> None:
        """All ranks must agree on each round's globally-ready set."""
        self.checks += 1
        key = (round_index, vector_length)
        value = tuple(int(g) for g in ready_ids)
        reference = self._sync_results.get(key)
        if reference is None:
            self._sync_results[key] = (rank, value)
            return
        ref_rank, ref_value = reference
        if value != ref_value:
            self._violate(
                "sync-agreement",
                f"round {round_index}: rank {rank} decided {value} but "
                f"rank {ref_rank} decided {ref_value}", rank=rank)

    def check_unit_plan(self, units: t.Sequence["AllReduceUnit"],
                        granularity_bytes: float,
                        rank: int | None = None) -> None:
        """Structural sanity of one pack() output.

        * no *split* gradient may contribute a slice below
          ``granularity * SLICE_EPSILON_FRACTION`` (degenerate residue
          slices from accumulated float error);
        * every unit except the last must be full within epsilon, and no
          unit may exceed the granularity by more than epsilon;
        * slices must tile each gradient without gaps or overlaps.
        """
        from repro.core.packing import (
            PackingError,
            SLICE_EPSILON_FRACTION,
            unpack,
        )

        self.checks += 1
        if not units:
            return
        epsilon = granularity_bytes * SLICE_EPSILON_FRACTION
        slices_per_grad: dict[int, int] = {}
        for unit in units:
            for piece in unit.slices:
                slices_per_grad[piece.grad_id] = \
                    slices_per_grad.get(piece.grad_id, 0) + 1
        for unit in units:
            for piece in unit.slices:
                if slices_per_grad[piece.grad_id] > 1 \
                        and piece.nbytes < epsilon:
                    self._violate(
                        "no-degenerate-slices",
                        f"unit {unit.unit_id} carries a "
                        f"{piece.nbytes:g}-byte residue slice of split "
                        f"gradient {piece.grad_id} "
                        f"(epsilon={epsilon:g})", rank=rank)
            if unit.nbytes > granularity_bytes + epsilon:
                self._violate(
                    "unit-granularity",
                    f"unit {unit.unit_id} holds {unit.nbytes:g} bytes, "
                    f"over the {granularity_bytes:g}-byte granularity",
                    rank=rank)
        for unit in units[:-1]:
            if unit.nbytes < granularity_bytes - epsilon:
                self._violate(
                    "unit-granularity",
                    f"non-final unit {unit.unit_id} holds only "
                    f"{unit.nbytes:g} of {granularity_bytes:g} bytes",
                    rank=rank)
        try:
            unpack(units)
        except PackingError as error:
            self._violate("pack-contiguity", str(error), rank=rank)

    def report_unit_plan(self, rank: int, round_index: int,
                         units: t.Sequence["AllReduceUnit"],
                         granularity_bytes: float) -> None:
        """All ranks must produce byte-identical plans per round.

        Unit ids are excluded from the comparison: the packer numbers
        units in call order, which is not cross-worker stable; the
        (grad_id, offset, nbytes) structure is.
        """
        self.check_unit_plan(units, granularity_bytes, rank=rank)
        self.checks += 1
        signature = tuple(
            tuple((s.grad_id, float(s.offset), float(s.nbytes))
                  for s in unit.slices)
            for unit in units)
        reference = self._unit_plans.get(round_index)
        if reference is None:
            self._unit_plans[round_index] = (rank, signature)
            return
        ref_rank, ref_signature = reference
        if signature != ref_signature:
            self._violate(
                "plan-agreement",
                f"round {round_index}: rank {rank} packed a different "
                f"unit plan than rank {ref_rank}", rank=rank)
