"""Message-level AIACC engine: the full pipeline, one process per worker.

The timed engine (:mod:`repro.core.engine`) follows one representative
worker and models the cluster through aggregate flows.  This module runs
the *entire* AIACC pipeline with a real simulated process per worker at
small scale:

* every worker produces its own gradient tensors on the backward
  schedule;
* readiness is agreed by actual bit-vector min all-reduce **messages**
  among the workers (over the cluster network, contending with gradient
  traffic);
* packing is computed independently per worker (and must agree — the
  implicit-agreement property of §V-B);
* each all-reduce unit is a real numeric ring all-reduce whose chunks are
  flows on the cluster links, dispatched through a per-worker stream
  pool.

It exists for validation: the numeric results must equal the
mathematical reduction, and the iteration wall-clock must agree with the
representative timed engine (``tests/integration`` checks both).  It is
practical up to ~8 workers and a few million parameters.
"""

from __future__ import annotations

import dataclasses
import heapq
import typing as t

import numpy as np

from repro.errors import SynchronizationError, TrainingError, \
    require_count, require_real
from repro.collectives.primitives import ReduceOp
from repro.collectives.ring import ring_allreduce_worker
from repro.collectives.runner import run_workers
from repro.core.packing import GradientPacker
from repro.core.registration import GradientRegistry
from repro.core.runtime import AIACCConfig
from repro.core.synchronization import DecentralizedSynchronizer
from repro.models.base import ModelSpec
from repro.obs import Observability
from repro.sim.kernel import Simulator
from repro.sim.mpi import Communicator
from repro.sim.network import FluidNetwork
from repro.sim.resources import Resource
from repro.sim.topology import Cluster, NodeSpec

#: Tag namespace for gradient-unit rings.  A unit's tag is derived from
#: its starting *global element offset*, which is identical on every
#: worker regardless of the order in which concurrent synchronization
#: rounds complete locally (unit ids from the packer are call-ordered
#: and therefore NOT cross-worker stable).
_UNIT_TAG_BASE = 16 << 20
_UNIT_TAG_STRIDE = 1 << 13


@dataclasses.dataclass(frozen=True)
class MessageLevelResult:
    """Outcome of one message-level iteration."""

    iteration_time_s: float
    #: Per-worker reduced gradients, keyed by parameter name.
    reduced: list[dict[str, np.ndarray]]
    units: int
    sync_rounds: int
    #: Event-sequence digest (replay determinism); ``None`` unless the
    #: invariant checker ran.
    state_digest: str | None = None


class _SharedState:
    """Counters reported once (worker 0's view) per iteration."""

    def __init__(self) -> None:
        self.units_seen = 0
        self.sync_rounds = 0


def run_message_level_iteration(
    model: ModelSpec,
    num_nodes: int = 2,
    gpus_per_node: int = 2,
    config: AIACCConfig | None = None,
    compute_time_s: float = 0.0,
    seed: int = 0,
    check_invariants: bool | None = None,
    obs: Observability | None = None,
    compute_skew: t.Mapping[int, float] | None = None,
) -> MessageLevelResult:
    """Execute one full AIACC iteration with real per-worker processes.

    ``compute_time_s`` is the backward duration over which the gradient
    schedule is spread (0 = all gradients available immediately).
    ``compute_skew`` optionally scales that duration per rank
    (``{rank: factor}``, default 1.0) — the straggler scenario knob: one
    slow rank stretches its own backward while the cohort keeps pace.
    A rank outside the world or a factor that is not finite and
    positive raises :class:`~repro.errors.TrainingError`.
    Gradient values are deterministic per (worker, parameter) so the
    reduction can be verified.

    With ``check_invariants`` (``None`` follows the
    ``REPRO_CHECK_INVARIANTS`` environment flag, as
    :class:`~repro.sim.kernel.Simulator` does) the invariant checker
    runs as a shadow referee:
    every worker's unit plan and sync decision is compared against the
    other ranks' for the same round, and the returned
    ``state_digest`` fingerprints the full event sequence.
    """
    config = config or AIACCConfig()
    obs = obs or Observability.disabled()
    timeline = obs.timeline
    sim = Simulator(check_invariants=check_invariants)
    checker = sim.invariants
    network = FluidNetwork(sim, obs=obs)
    cluster = Cluster(sim, num_nodes,
                      NodeSpec(gpus_per_node=gpus_per_node))
    world = cluster.world_size
    for rank, factor in (compute_skew or {}).items():
        if require_count("compute_skew rank", rank, 0, TrainingError) \
                >= world:
            raise TrainingError(f"compute_skew rank {rank} out of range "
                                f"for world size {world}")
        require_real(f"compute_skew factor of rank {rank}", factor,
                     TrainingError, positive=True)
    comm = Communicator(sim, size=world, cluster=cluster, network=network,
                        connections_per_pair=config.num_streams)
    rng = np.random.default_rng(seed)
    # Deterministic per-worker values: value(worker, param) = base + rank.
    bases = {p.name: float(rng.normal())
             for p in model.parameters()}

    registries = []
    for _rank in range(world):
        registry = GradientRegistry()
        registry.register_model(model)
        registry.freeze()
        registries.append(registry)
    synchronizers = [
        DecentralizedSynchronizer(sim, comm, rank, registries[rank],
                                  obs=obs)
        for rank in range(world)
    ]
    pools = [Resource(sim, config.num_streams, name=f"pool.r{rank}")
             for rank in range(world)]
    # Per-rank free CUDA-stream ids, smallest-first so lane assignment is
    # deterministic (mirrors :class:`repro.core.streams.CommStreamPool`).
    stream_ids = [list(range(config.num_streams)) for _ in range(world)]
    packers = [GradientPacker(config.granularity_bytes)
               for _ in range(world)]
    shared = _SharedState()
    element_bytes = 4
    # Global byte offset of each gradient in id order (identical on all
    # workers); anchors content-derived unit tags.
    prefix_bytes: dict[int, int] = {}
    cursor = 0
    for index, parameter in enumerate(
            registries[0].ordered_specs()):
        prefix_bytes[index] = cursor
        cursor += parameter.nbytes

    def worker(rank: int) -> t.Generator:
        registry = registries[rank]
        packer = packers[rank]
        grads: dict[int, np.ndarray] = {}
        specs = registry.ordered_specs()
        reduced: dict[str, np.ndarray] = {}
        communicated: set[int] = set()
        unit_procs = []

        def run_unit(unit) -> t.Generator:
            """One worker's participation in one unit's ring."""
            first = unit.slices[0]
            start_element = (prefix_bytes[first.grad_id]
                             + int(first.offset)) // element_bytes
            tag = _UNIT_TAG_BASE + start_element * _UNIT_TAG_STRIDE
            pieces = []
            for piece in unit.slices:
                lo = int(piece.offset // element_bytes)
                hi = lo + int(piece.nbytes // element_bytes)
                pieces.append(grads[piece.grad_id][lo:hi])
            buffer = np.concatenate(pieces)
            yield pools[rank].acquire()
            stream_id = heapq.heappop(stream_ids[rank])
            granted_at = sim.now
            try:
                out = yield sim.spawn(ring_allreduce_worker(
                    sim, comm, rank, buffer, op=ReduceOp.SUM,
                    tag_base=tag))
            finally:
                heapq.heappush(stream_ids[rank], stream_id)
                timeline.span("allreduce-unit", "network", rank,
                              granted_at, sim.now, stream=stream_id,
                              bytes=float(unit.nbytes))
                pools[rank].release()
            out = t.cast(np.ndarray, out)
            cursor = 0
            for piece in unit.slices:
                lo = int(piece.offset // element_bytes)
                hi = lo + int(piece.nbytes // element_bytes)
                name = specs[piece.grad_id].name
                target = reduced.setdefault(
                    name, np.empty(specs[piece.grad_id].num_elements))
                target[lo:hi] = out[cursor:cursor + (hi - lo)]
                cursor += hi - lo

        def dispatch(batch: list[tuple[int, float]],
                     after, done_event) -> t.Generator:
            # Synchronization rounds serialize through the worker's MPI
            # daemon (paper Fig. 4): round k+1 starts only after round k
            # completed locally.  This also makes round-completion order
            # globally consistent, so every worker dispatches units in
            # the same order — a FIFO stream pool then cannot deadlock
            # across workers.
            if after is not None:
                yield after
            round_index = synchronizers[rank]._round
            ready = yield sim.spawn(synchronizers[rank].sync_round())
            if rank == 0:
                shared.sync_rounds += 1
            ready_new = [(gid, size) for gid, size in batch
                         if gid in set(t.cast(np.ndarray, ready))
                         and gid not in communicated]
            missing = [gid for gid, _ in batch
                       if gid not in set(t.cast(np.ndarray, ready))]
            if missing:
                raise SynchronizationError(
                    f"worker {rank}: batch gradients {missing} not "
                    "globally ready despite symmetric production"
                )
            units = packer.pack(ready_new)
            if checker is not None:
                # Shadow referee: every rank's independently computed
                # plan for this round must be structurally identical.
                checker.report_unit_plan(rank, round_index, units,
                                         config.granularity_bytes)
            communicated.update(gid for gid, _ in ready_new)
            if rank == 0:
                shared.units_seen += len(units)
            for unit in units:
                unit_procs.append(sim.spawn(
                    run_unit(unit), name=f"r{rank}.unit{unit.unit_id}"))
            done_event.succeed(None)

        # Backward pass: produce gradients on the schedule.
        step_start = sim.now
        timeline.begin_step(rank, 0, step_start)
        dispatch_procs = []
        previous_sync = None
        batch: list[tuple[int, float]] = []
        batch_bytes = 0.0
        elapsed = 0.0
        ids = {p.name: i for i, p in enumerate(specs)}
        skew = 1.0 if compute_skew is None \
            else float(compute_skew.get(rank, 1.0))
        for event in model.backward_schedule():
            target_t = event.time_fraction * compute_time_s * skew
            if target_t > elapsed:
                segment_start = sim.now
                yield sim.timeout(target_t - elapsed)
                timeline.span("backward", "compute", rank,
                              segment_start, sim.now)
                elapsed = target_t
            for parameter in event.parameters:
                gid = ids[parameter.name]
                grads[gid] = np.full(parameter.num_elements,
                                     bases[parameter.name] + rank)
                registry.mark_ready(parameter.name)
                batch.append((gid, parameter.nbytes))
                batch_bytes += parameter.nbytes
            if batch_bytes >= config.granularity_bytes:
                sync_done = sim.event(name=f"r{rank}.sync_done")
                dispatch_procs.append(sim.spawn(
                    dispatch(batch, previous_sync, sync_done)))
                previous_sync = sync_done
                batch = []
                batch_bytes = 0.0
        if batch:
            sync_done = sim.event(name=f"r{rank}.sync_done")
            dispatch_procs.append(sim.spawn(
                dispatch(batch, previous_sync, sync_done)))

        if dispatch_procs:
            yield sim.all_of(dispatch_procs)
        if unit_procs:
            yield sim.all_of(unit_procs)
        step_end = sim.now
        timeline.end_step(rank, 0, step_end)
        return reduced

    processes = [sim.spawn(worker(rank), name=f"worker{rank}")
                 for rank in range(world)]
    results = run_workers(sim, processes)
    reduced = [
        {name: value for name, value in worker_result.items()}
        for worker_result in t.cast(list, results)
    ]
    return MessageLevelResult(
        iteration_time_s=sim.now,
        reduced=reduced,
        units=shared.units_seen,
        sync_rounds=shared.sync_rounds,
        state_digest=sim.state_digest(),
    )
