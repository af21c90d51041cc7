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
   TCP utilisation from ≤30% toward the aggregate limit.  The daemon's
   hand-offs are asynchronous, not threads: a dispatch (daemon grant,
   service time, sync round, staging) is a chain of callbacks, a unit
   runs on the pool's callbacks, and the failure detector
   (:meth:`AIACCBackend.deadline`) is a callback combinator.  The step
   spawns only itself, with or without deadlines, and its backward walk
   wakes only where a batch closes and where backward ends;
5. when every unit of the iteration has completed, gradients are
   unpacked and handed to the optimizer via the callback.
"""

from __future__ import annotations

import functools
import typing as t

from repro.errors import PeerDeadError, ProcessInterrupt, TrainingError, \
    require_count
from repro.core.packing import AllReduceUnit, BackwardPlan, plan_backward
from repro.core.registration import GradientRegistry
from repro.core.runtime import AIACCConfig, DETECTION_DEADLINE_CAP_FACTOR
from repro.core.streams import CommStreamPool
from repro.frameworks.base import (
    DDLBackend,
    IterationStats,
    TrainContext,
    UPDATE_TIME_S,
    relay,
)
from repro.obs.metrics import STEP_TIME_BUCKETS
from repro.sim.events import Event
from repro.sim.invariants import InvariantChecker
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
        #: Live dispatch chains and deadlines of this iteration, each
        #: mapped to its cancel hook; :meth:`abort` runs them on a
        #: confirmed peer death.  Insertion-ordered: events hash by
        #: identity, so a set would make abort's cancel order — and with
        #: it the cancel-vs-grant outcome of same-timestamp daemon
        #: requests — depend on memory addresses, leaking allocation
        #: history into the replay digest.
        self._inflight: dict[Event, t.Callable[[object], None]] = {}
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
        if require_count("membership epoch", epoch, 0,
                         TrainingError) < self.epoch:
            raise TrainingError(
                f"membership epoch moved backwards: {self.epoch} -> {epoch}")
        self.epoch = epoch
        if self._pool is not None:
            self._pool.epoch = epoch
        if self._checker is not None:
            self._checker.advance_epoch(epoch)

    def abort(self, cause: object = None) -> int:
        """Cancel every live dispatch chain, deadline and unit.

        Called by the recovery driver after a confirmed peer death: units
        talking to the dead node would otherwise hold stream slots
        forever.  Afterwards no daemon or stream slot is held, no request
        is queued and no unit still being staged will start.  Each
        cancelled chain's event fails with
        :class:`~repro.errors.ProcessInterrupt`.  Returns the number of
        chains and units cancelled.
        """
        live, self._inflight = self._inflight, {}
        for cancel in live.values():
            cancel(cause)
        self._aborts += 1
        cancelled = len(live)
        if self._pool is not None:
            cancelled += self._pool.cancel_all(cause)
        return cancelled

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
        dispatches: list[Event] = []

        # The framework hook: each schedule point's gradients enter the
        # gradient queue, and the batches the plan closes there go to
        # the daemon.  Nothing else happens between those points, so the
        # walk wakes only at a point that closes a batch and at the end
        # of backward, at the instant successive per-point timeouts
        # would have reached.
        sim = ctx.sim
        when = sim.now
        for (delay, _parameters), (grad_ids, batches) in zip(
                ctx.backward_steps(), plan.points, strict=True):
            if delay:
                when = when + delay
            sync_vector[grad_ids] = 1
            self._m_gradients.inc(len(grad_ids))
            if batches:
                if when > sim.now:
                    yield sim.at(when)
                for units in batches:
                    dispatches.append(
                        self._dispatch(ctx, units, unit_events))
        if when > sim.now:
            yield sim.at(when)

        pool.compute_finished()
        timeline.span("backward", "compute", 0, backward_start, sim.now)
        if plan.tail:
            dispatches.append(self._dispatch(ctx, plan.tail, unit_events))

        # All dispatches must finish starting units before the barrier on
        # the units themselves is complete.
        if dispatches:
            yield sim.all_of(dispatches)
        if unit_events:
            yield sim.all_of(unit_events)

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
        return IterationStats(
            iteration_time_s=ctx.sim.now - start,
            compute_time_s=ctx.compute_time_s,
        )

    # -- internals -------------------------------------------------------------

    def deadline(self, ctx: TrainContext, launch: t.Callable[[], Event],
                 timeout_s: float, phase: str,
                 abandon: t.Callable[[Event], None] | None = None,
                 ) -> Event:
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

        The detector runs on callbacks, not as a process: the returned
        event succeeds with the first attempt that beats its deadline,
        fails with that attempt's exception, or fails with
        :class:`PeerDeadError` once every retry has timed out.
        :meth:`abort` cancels it in any state.
        """
        sim, obs, config = ctx.sim, ctx.obs, self.config
        cap = config.max_detection_deadline_s
        if cap is None:
            cap = DETECTION_DEADLINE_CAP_FACTOR * timeout_s
        result = sim.event(name=f"deadline.{phase}")
        window = min(timeout_s, cap)
        attempt = 0
        suspected_at: float | None = None
        #: The attempt racing the current deadline; ``None`` once it has
        #: timed out, so a late outcome of an abandoned attempt is
        #: ignored.
        pending: Event | None = None

        def start(_event: Event | None = None) -> None:
            nonlocal pending
            if result.triggered:  # cancelled in backoff
                return
            current = pending = launch()
            timer = sim.timeout(window)
            current.add_callback(finished)
            timer.add_callback(lambda _timer: expired(current))

        def finished(current: Event) -> None:
            if current is not pending or result.triggered:
                return
            self._inflight.pop(result, None)
            relay(result, current)

        def expired(current: Event) -> None:
            nonlocal pending, suspected_at, window, attempt
            if current is not pending or result.triggered:
                return
            pending = None
            if suspected_at is None:
                suspected_at = sim.now
                obs.fault_event("suspect", sim.now, phase=phase)
            obs.count_fault(f"{phase}_timeout")
            if abandon is not None:
                abandon(current)
            if attempt < config.comm_retries:
                backoff = sim.timeout(min(
                    config.retry_backoff_s * (2 ** attempt), cap))
                window = min(window * 2, cap)
                attempt += 1
                backoff.add_callback(start)
                return
            obs.fault_event("confirm", sim.now, phase=phase)
            self._inflight.pop(result, None)
            result.fail(PeerDeadError(
                phase=phase, suspected_at_s=t.cast(float, suspected_at),
                confirmed_at_s=sim.now))

        def cancel(cause: object) -> None:
            result.fail(ProcessInterrupt(cause))

        self._inflight[result] = cancel
        start()
        return result

    def _dispatch(self, ctx: TrainContext,
                  units: tuple[AllReduceUnit, ...],
                  unit_events: list[Event]) -> Event:
        """Synchronize a planned gradient batch, start its units.

        The daemon CPU work (relaying the bit-vector ring, launching
        units) is serialized on the single MPI daemon thread; the network
        round-trip of the synchronization ring is asynchronous and only
        delays when these units may start.  Each unit's event goes into
        ``unit_events`` when it starts — after its staging, if any.

        The dispatch is a chain of callbacks, not a process: the daemon
        grant starts the service time, whose end releases the daemon and
        starts the sync round, whose end starts (or stages) the units.
        The returned event fires once every unit of the batch has
        started.  :meth:`abort` cancels the chain in any state.
        """
        sim = ctx.sim
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
        dispatch = sim.event(name="aiacc.dispatch")
        request = daemon.acquire()
        #: Whether the chain still holds (or is queued for) the daemon:
        #: from the request until the service time ends.
        holding = True
        service_start = negotiate_start = 0.0
        #: Staged units not yet started.
        staging = 0
        payload = max(1.0, len(t.cast(GradientRegistry,
                                      self._registry).sync_vector) / 8.0)

        def granted(_request: Event) -> None:
            nonlocal service_start
            if dispatch.triggered:  # cancelled
                return
            service_start = sim.now
            sim.timeout(service).add_callback(served)

        def served(_service: Event) -> None:
            nonlocal holding, negotiate_start
            if dispatch.triggered:  # cancelled
                return
            ctx.obs.timeline.span("pack+launch", "pack", 0, service_start,
                                  sim.now, units=len(units))
            holding = False
            daemon.release()
            # Network round-trip of the decentralized min all-reduce.
            # With a sync deadline configured, this is the paper's
            # master-free failure detector: a missed round means
            # suspicion.
            negotiate_start = sim.now
            timeout_s = self.config.sync_timeout_s
            if timeout_s is None:
                round_trip = ctx.collectives.control_roundtrip(
                    payload_bytes=payload)
            else:
                round_trip = self.deadline(
                    ctx, lambda: ctx.collectives.control_roundtrip(
                        payload_bytes=payload),
                    timeout_s, "sync")
            round_trip.add_callback(synced)

        def synced(round_trip: Event) -> None:
            nonlocal staging
            if dispatch.triggered:  # cancelled
                return
            if not round_trip._ok:
                self._inflight.pop(dispatch, None)
                dispatch.fail(t.cast(BaseException, round_trip._value))
                return
            ctx.obs.timeline.span("sync-round", "negotiate", 0,
                                  negotiate_start, sim.now,
                                  payload_bytes=payload)
            self._m_sync_rounds.inc()
            self._m_units.inc(len(units))
            for unit in units:
                self._m_unit_bytes.observe(unit.nbytes)

            # A hierarchical or planner-synthesized unit occupies one
            # CUDA stream per local GPU for its inter-node stage (g
            # parallel rings / per-shard exchange streams); a flat-ring
            # unit occupies one.
            streams = 1 if self.config.algorithm == "ring" \
                else spec.gpus_per_node
            for unit in units:
                # Paper §V-A.2: with GPU-direct RDMA the bucket lives in
                # GPU memory; over TCP it is staged through CPU memory.
                staging_s = ctx.staging_time_s(unit.nbytes)
                if staging_s:
                    staging += 1
                    sim.timeout(staging_s).add_callback(functools.partial(
                        staged, unit, streams, self._aborts, sim.now))
                else:
                    unit_events.append(self._start_unit(ctx, unit, streams))
            if not staging:
                started()

        def staged(unit: AllReduceUnit, streams: int, aborts: int,
                   staging_start: float, _stage: Event) -> None:
            # Start ``unit`` once its staging copy is done, unless an
            # abort came in between.
            nonlocal staging
            if aborts != self._aborts:
                return
            ctx.obs.timeline.span("staging", "staging", 0, staging_start,
                                  sim.now, bytes=unit.nbytes)
            unit_events.append(self._start_unit(ctx, unit, streams))
            staging -= 1
            if not staging:
                started()

        def started() -> None:
            # The iteration builds its barrier from ``unit_events`` once
            # every dispatch has fired, so each unit has started by then.
            self._inflight.pop(dispatch, None)
            dispatch.succeed()

        def cancel(cause: object) -> None:
            if holding and not daemon.cancel(request):
                # Granted (the grant may not have fired yet) or in
                # service: the chain holds the slot.
                daemon.release()
            dispatch.fail(ProcessInterrupt(cause))

        self._inflight[dispatch] = cancel
        request.add_callback(granted)
        return dispatch

    def _start_unit(self, ctx: TrainContext, unit: AllReduceUnit,
                    streams: int) -> Event:
        """Hand ``unit`` to the stream pool; returns its event.

        With a unit deadline configured, the failure detector owns the
        unit: each attempt is a pool unit, and a timed-out attempt is
        cancelled through the pool before the next one.
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
        return self.deadline(
            ctx,
            lambda: pool.start_unit(work, streams, "allreduce-unit",
                                    bytes=nbytes),
            timeout_s, "unit", abandon=pool.cancel)
