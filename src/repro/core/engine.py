"""The AIACC-Training communication engine (paper §V, Algorithm 1).

One iteration runs the pipeline of Fig. 6:

1. gradients appear asynchronously during backward propagation and are
   pushed into the gradient queue by the framework hook;
2. when the accumulated bytes reach the communication granularity, a
   **decentralized synchronization round** (bit-vector min all-reduce
   among the MPI daemons) confirms global readiness — asynchronously, off
   the critical path;
3. synchronized gradients are **packed** into all-reduce units of the
   tuned granularity (large tensors sliced, small tensors merged).
   Which gradients close each batch, and how it is sliced, is fixed by
   the backward schedule's order, the wire sizes and the granularity,
   so the plan is packed once per warm-up and replayed every step;
4. each unit is dispatched to a free stream of the **communication
   thread pool** and all-reduced concurrently with other units over the
   same physical network — the multi-streamed communication that lifts
   TCP utilisation from ≤30% toward the aggregate limit.  A unit runs
   on the pool's callbacks, not as a process: the step spawns only
   itself and one dispatch per packed batch (plus, with a unit
   deadline, one failure-detector loop per unit);
5. when every unit of the iteration has completed, gradients are
   unpacked and handed to the optimizer via the callback.
"""

from __future__ import annotations

import functools
import typing as t

from repro.errors import PeerDeadError, ProcessInterrupt, TrainingError
from repro.core.packing import AllReduceUnit, BackwardPlan, plan_backward
from repro.core.registration import GradientRegistry
from repro.core.runtime import AIACCConfig, DETECTION_DEADLINE_CAP_FACTOR
from repro.core.streams import CommStreamPool
from repro.frameworks.base import (
    DDLBackend,
    IterationStats,
    TrainContext,
    UPDATE_TIME_S,
)
from repro.obs.metrics import STEP_TIME_BUCKETS
from repro.sim.events import Event
from repro.sim.invariants import InvariantChecker
from repro.sim.process import Process
from repro.sim.resources import Resource


class AIACCBackend(DDLBackend):
    """Multi-streamed, decentralized gradient communication."""

    name = "aiacc"

    #: CPU time the MPI daemon spends launching one all-reduce unit
    #: (queue handling plus the NCCL group call).
    UNIT_DISPATCH_OVERHEAD_S = 50e-6

    def __init__(self, config: AIACCConfig | None = None) -> None:
        self.config = config or AIACCConfig()
        self._pool: CommStreamPool | None = None
        self._registry: GradientRegistry | None = None
        self._plan: BackwardPlan | None = None
        self._daemon: Resource | None = None
        self._checker: InvariantChecker | None = None
        #: Processes this iteration spawned that are still running;
        #: :meth:`abort` interrupts them on a confirmed peer death.
        #: Insertion-ordered (dict-as-set): processes hash by identity,
        #: so a plain set would make abort's interrupt order — and with
        #: it the cancel-vs-grant outcome of same-timestamp stream
        #: requests — depend on memory addresses, leaking allocation
        #: history into the replay digest.
        self._inflight: dict[Process, None] = {}
        #: Number of :meth:`abort` calls so far: a unit whose staging
        #: began before the latest abort never starts.
        self._aborts = 0
        #: Step index of the representative worker's timeline (-1 until
        #: the first iteration runs).
        self._step = -1
        #: Membership epoch of the worker group this engine serves.  The
        #: elastic runtime bumps it at every scale-up/down boundary via
        #: :meth:`advance_epoch`; spans and streams record it so traces
        #: of different topologies are distinguishable.
        self.epoch = 0

    # -- lifecycle -----------------------------------------------------------

    def warmup(self, ctx: TrainContext) -> t.Generator:
        """Create stream contexts, the registry and the packing plan."""
        # The simulator attached its checker (if any) at construction.
        self._checker = ctx.sim.invariants
        self._registry = GradientRegistry()
        self._registry.register_model(ctx.model)
        self._registry.freeze()
        self._plan = plan_backward(
            ctx.backward_steps(), self._registry.grad_id, ctx.wire_bytes,
            self.config.granularity_bytes)
        self._pool = CommStreamPool(
            ctx.sim,
            ctx.cluster.gpu_device,
            self.config.num_streams,
            # Batch-size-aware occupancy (paper footnote 5): smaller
            # batches leave more SMs for communication streams.
            ctx.effective_occupancy,
            setup_latency_s=ctx.cluster.spec.transport.setup_latency_s,
            obs=ctx.obs,
        )
        # A rewarm after an elastic transition builds a fresh pool; it
        # serves the same (possibly advanced) membership epoch.
        self._pool.epoch = self.epoch
        registry = ctx.obs.registry
        self._m_gradients = registry.counter(
            "aiacc_gradients_total", "Gradients pushed by the framework")
        self._m_sync_rounds = registry.counter(
            "aiacc_sync_rounds_total",
            "Decentralized readiness synchronization rounds")
        self._m_units = registry.counter(
            "aiacc_units_total", "All-reduce units packed and launched")
        self._m_unit_bytes = registry.histogram(
            "aiacc_unit_bytes", "Wire size of packed all-reduce units",
            buckets=(1e6, 4e6, 16e6, 64e6, 256e6))
        self._m_iterations = registry.counter(
            "aiacc_iterations_total", "Completed training iterations")
        self._m_step_seconds = registry.histogram(
            "aiacc_step_seconds", "Simulated end-to-end step time",
            buckets=STEP_TIME_BUCKETS)
        # The per-GPU MPI daemon is single-threaded: synchronization
        # relays and unit launches serialize through it (paper Fig. 4).
        self._daemon = Resource(ctx.sim, 1, name="mpi-daemon")
        self._inflight.clear()
        yield self._pool.setup()

    def advance_epoch(self, epoch: int) -> None:
        """Enter membership epoch ``epoch`` after an elastic transition.

        Called by the recovery driver once the new worker group is
        formed.  Propagates the epoch to the stream pool (span metadata)
        and to the invariant checker, whose cross-worker referee tables
        are keyed per-topology and must not compare sync rounds or unit
        plans across a membership change.
        """
        if epoch < self.epoch:
            raise TrainingError(
                f"membership epoch moved backwards: {self.epoch} -> {epoch}")
        self.epoch = epoch
        if self._pool is not None:
            self._pool.epoch = epoch
        if self._checker is not None:
            self._checker.advance_epoch(epoch)

    def abort(self, cause: object = None) -> int:
        """Interrupt every in-flight process and cancel every live unit.

        Called by the recovery driver after a confirmed peer death: units
        talking to the dead node would otherwise hold stream slots
        forever.  Afterwards no stream slot is held, no request is
        queued and no unit still being staged will start.  Returns the
        number of processes interrupted plus units cancelled.
        """
        victims, self._inflight = list(self._inflight), {}
        interrupted = 0
        for victim in victims:
            if victim.can_interrupt:
                # A no-op watcher so the interrupt is recorded as a
                # failed event instead of surfacing out of sim.step().
                victim.add_callback(lambda _ev: None)
                victim.interrupt(cause)
                interrupted += 1
        self._aborts += 1
        if self._pool is not None:
            interrupted += self._pool.cancel_all(cause)
        return interrupted

    # -- iteration -----------------------------------------------------------

    def iteration(self, ctx: TrainContext) -> t.Generator:
        if self._pool is None or self._registry is None \
                or self._plan is None:
            raise TrainingError(
                "AIACCBackend.warmup() must run before iterations"
            )
        pool = self._pool
        plan = self._plan
        self._registry.reset_vector()
        sync_vector = self._registry.sync_vector

        timeline = ctx.obs.timeline
        self._step += 1
        step = self._step
        start = ctx.sim.now
        timeline.begin_step(0, step, start)
        yield ctx.sim.timeout(ctx.forward_time_s)
        timeline.span("forward", "compute", 0, start, ctx.sim.now)
        backward_start = ctx.sim.now
        pool.compute_started()

        unit_events: list[Event] = []
        dispatch_processes: list[Process] = []

        # The framework hook: each schedule point's gradients enter the
        # gradient queue in one resume, and the batches the plan closes
        # there go to the daemon.
        for (delay, _parameters), (grad_ids, batches) in zip(
                ctx.backward_steps(), plan.points, strict=True):
            if delay:
                yield ctx.sim.timeout(delay)
            sync_vector[grad_ids] = 1
            self._m_gradients.inc(len(grad_ids))
            for units in batches:
                dispatch_processes.append(self._track(ctx.sim.spawn(
                    self._dispatch(ctx, units, unit_events),
                    name="aiacc.dispatch")))

        pool.compute_finished()
        timeline.span("backward", "compute", 0, backward_start, ctx.sim.now)
        if plan.tail:
            dispatch_processes.append(self._track(ctx.sim.spawn(
                self._dispatch(ctx, plan.tail, unit_events),
                name="aiacc.dispatch")))

        # All dispatches must finish starting units before the barrier on
        # the units themselves is complete.
        if dispatch_processes:
            yield ctx.sim.all_of(dispatch_processes)
        if unit_events:
            yield ctx.sim.all_of(unit_events)

        if self._checker is not None:
            # Iteration boundary is a quiescence point: every stream slot
            # returned, no queued units, the daemon idle — anything else
            # means an interrupt leaked a grant or a counter drifted.
            self._checker.check_pool_quiescent(pool, rank=0)
            self._checker.check_idle(
                t.cast(Resource, self._daemon), rank=0)

        apply_start = ctx.sim.now
        yield ctx.sim.timeout(UPDATE_TIME_S)
        timeline.span("apply", "apply", 0, apply_start, ctx.sim.now)
        timeline.end_step(0, step, ctx.sim.now)
        self._m_iterations.inc()
        self._m_step_seconds.observe(ctx.sim.now - start)
        if ctx.obs.diag is not None:
            ctx.obs.diag.observe_step(0, step, ctx.sim.now - start,
                                      ctx.sim.now)
        return IterationStats(
            iteration_time_s=ctx.sim.now - start,
            compute_time_s=ctx.compute_time_s,
        )

    # -- internals -------------------------------------------------------------

    def _track(self, process: Process) -> Process:
        """Register a spawned process for :meth:`abort`.

        The tracking callback doubles as a watcher, so a failing tracked
        process records its exception (surfaced via the iteration
        barriers) rather than hard-raising out of the simulator.
        """
        self._inflight[process] = None
        process.add_callback(lambda _ev: self._inflight.pop(process, None))
        return process

    def _retrying(self, ctx: TrainContext,
                  launch: t.Callable[[], t.Any], phase: str,
                  timeout_s: float,
                  abandon: t.Callable[[t.Any], None] | None = None,
                  ) -> t.Generator:
        """Race ``launch()`` against a deadline, with bounded retries.

        The paper's failure detector: a missed deadline raises
        *suspicion*; only after ``comm_retries`` further attempts — each
        preceded by exponential backoff and given a doubled deadline —
        is the peer *confirmed* dead (:class:`PeerDeadError`).  The
        optional ``abandon`` callback tears down a timed-out attempt
        (e.g. cancels a hung unit so it frees its streams).

        Both the per-attempt deadline and the backoff are clamped to
        ``config.max_detection_deadline_s`` (default:
        ``DETECTION_DEADLINE_CAP_FACTOR x timeout_s``) so confirmation
        latency grows linearly — not exponentially — in ``comm_retries``.
        """
        cap = self.config.max_detection_deadline_s
        if cap is None:
            cap = DETECTION_DEADLINE_CAP_FACTOR * timeout_s
        deadline = min(timeout_s, cap)
        suspected_at: float | None = None
        for attempt in range(self.config.comm_retries + 1):
            pending = launch()
            index, value = yield ctx.sim.any_of(
                [pending, ctx.sim.timeout(deadline)])
            if index == 0:
                return value
            if suspected_at is None:
                suspected_at = ctx.sim.now
                ctx.obs.fault_event("suspect", ctx.sim.now, phase=phase)
            ctx.obs.count_fault(f"{phase}_timeout")
            if abandon is not None:
                abandon(pending)
            if attempt < self.config.comm_retries:
                yield ctx.sim.timeout(min(
                    self.config.retry_backoff_s * (2 ** attempt), cap))
                deadline = min(deadline * 2, cap)
        ctx.obs.fault_event("confirm", ctx.sim.now, phase=phase)
        raise PeerDeadError(phase=phase,
                            suspected_at_s=t.cast(float, suspected_at),
                            confirmed_at_s=ctx.sim.now)

    def _dispatch(self, ctx: TrainContext,
                  units: tuple[AllReduceUnit, ...],
                  unit_events: list[Event]) -> t.Generator:
        """Synchronize a planned gradient batch, start its units.

        The daemon CPU work (relaying the bit-vector ring, launching
        units) is serialized on the single MPI daemon thread; the network
        round-trip of the synchronization ring is asynchronous and only
        delays when these units may start.  Each unit's event goes into
        ``unit_events`` when it starts — after its staging, if any — and
        the dispatch returns once every unit of the batch has started.
        """
        daemon = t.cast(Resource, self._daemon)
        spec = ctx.cluster.spec
        if self._checker is not None:
            self._checker.check_unit_plan(
                units, self.config.granularity_bytes, rank=0)

        # CPU service time on the daemon: one ring relay per sync round
        # plus one launch per unit.
        relay_cost = 2 * max(ctx.cluster.num_nodes - 1, 1) * \
            spec.transport.per_message_overhead_s
        service = relay_cost + len(units) * self.UNIT_DISPATCH_OVERHEAD_S
        request = daemon.acquire()
        try:
            yield request
        except ProcessInterrupt:
            # Abort while queued: withdraw the request so the grant is
            # not handed to a dead process.
            if not daemon.cancel(request):
                daemon.release()
            raise
        try:
            service_start = ctx.sim.now
            yield ctx.sim.timeout(service)
            ctx.obs.timeline.span("pack+launch", "pack", 0, service_start,
                                  ctx.sim.now, units=len(units))
        finally:
            daemon.release()

        # Network round-trip of the decentralized min all-reduce.  With a
        # sync deadline configured, this is the paper's master-free
        # failure detector: a missed round means suspicion.
        payload = max(1.0, len(t.cast(GradientRegistry,
                                      self._registry).sync_vector) / 8.0)
        negotiate_start = ctx.sim.now
        if self.config.sync_timeout_s is None:
            yield ctx.collectives.control_roundtrip(payload_bytes=payload)
        else:
            yield from self._retrying(
                ctx,
                lambda: ctx.collectives.control_roundtrip(
                    payload_bytes=payload),
                phase="sync", timeout_s=self.config.sync_timeout_s)
        ctx.obs.timeline.span("sync-round", "negotiate", 0,
                              negotiate_start, ctx.sim.now,
                              payload_bytes=payload)
        if ctx.obs.diag is not None:
            ctx.obs.diag.observe_negotiation(
                0, ctx.sim.now - negotiate_start)
        self._m_sync_rounds.inc()
        self._m_units.inc(len(units))
        for unit in units:
            self._m_unit_bytes.observe(unit.nbytes)

        # A hierarchical or planner-synthesized unit occupies one CUDA
        # stream per local GPU for its inter-node stage (g parallel
        # rings / per-shard exchange streams); a flat-ring unit
        # occupies one.
        streams = 1 if self.config.algorithm == "ring" \
            else spec.gpus_per_node
        staging: list[Event] = []
        for unit in units:
            # Paper §V-A.2: with GPU-direct RDMA the bucket lives in
            # GPU memory; over TCP it is staged through CPU memory.
            staging_s = ctx.staging_time_s(unit.nbytes)
            if staging_s:
                stage = ctx.sim.timeout(staging_s)
                stage.add_callback(functools.partial(
                    self._staged, ctx, unit, streams, unit_events,
                    self._aborts, ctx.sim.now))
                staging.append(stage)
            else:
                unit_events.append(self._start_unit(ctx, unit, streams))
        if staging:
            # The iteration builds its barrier from ``unit_events`` once
            # every dispatch has returned, so each staged unit must
            # have started by then.
            yield ctx.sim.all_of(staging)

    def _staged(self, ctx: TrainContext, unit: AllReduceUnit,
                streams: int, unit_events: list[Event], aborts: int,
                staging_start: float, _stage: Event) -> None:
        """Start ``unit`` once its staging copy is done (unless aborted)."""
        if aborts != self._aborts:
            return
        ctx.obs.timeline.span("staging", "staging", 0, staging_start,
                              ctx.sim.now, bytes=unit.nbytes)
        unit_events.append(self._start_unit(ctx, unit, streams))

    def _start_unit(self, ctx: TrainContext, unit: AllReduceUnit,
                    streams: int) -> Event:
        """Hand ``unit`` to the stream pool; returns its event.

        With a unit deadline configured, the failure detector's retry
        loop owns the unit: each attempt is a pool unit, and a timed-out
        attempt is cancelled through the pool before the next one.
        """
        pool = t.cast(CommStreamPool, self._pool)
        nbytes = unit.nbytes
        algorithm = self.config.algorithm

        def work() -> Event:
            return ctx.collectives.allreduce(nbytes, algorithm=algorithm)

        timeout_s = self.config.unit_timeout_s
        if timeout_s is None:
            return pool.start_unit(work, streams, "allreduce-unit",
                                   bytes=nbytes)
        return self._track(ctx.sim.spawn(self._retrying(
            ctx,
            lambda: pool.start_unit(work, streams, "allreduce-unit",
                                    bytes=nbytes),
            phase="unit", timeout_s=timeout_s, abandon=pool.cancel),
            name=f"aiacc.unit{unit.unit_id}"))
