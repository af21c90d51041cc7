"""Differential test of the AIACC step: callback chains vs processes.

The oracle is kept verbatim below.  Its iteration slept through one
timeout per backward schedule point and spawned one ``_dispatch``
process per packed batch; that process waited on the daemon, hosted the
sync round's failure detector (the ``_retrying`` generator) and spawned
one ``unit_process`` per all-reduce unit (staging, then the unit), which
spawned the stream pool's ``run_unit`` generator (acquire, run the
collective, release).  Now the walk wakes only where a batch closes, a
dispatch is a callback chain, a unit runs on the pool's callbacks
(:meth:`~repro.core.streams.CommStreamPool.start_unit`), staging is a
timeout with a callback, and the failure detector is a callback
combinator (:meth:`~repro.core.engine.AIACCBackend.deadline`): the step
spawns only itself.

Every delay is still ``now + delay`` and every grant still goes through
the daemon's and the pool's FIFO resources, so a unit starts its flows
at the same instant; only its position among the events of that instant
changes.  So every iteration time, every diagnosis finding and every
``allreduce-unit`` and ``staging`` span (start, end, CUDA stream id and
meta) must be identical.
"""

import heapq
import typing as t

import pytest

from repro.core.engine import AIACCBackend
from repro.core.packing import AllReduceUnit
from repro.core.registration import GradientRegistry
from repro.core.runtime import AIACCConfig, DETECTION_DEADLINE_CAP_FACTOR
from repro.core.streams import CommStreamPool
from repro.errors import PeerDeadError, ProcessInterrupt, TrainingError
from repro.frameworks.base import IterationStats, TrainContext, \
    UPDATE_TIME_S
from repro.obs import Observability, diagnose
from repro.sim.events import Event
from repro.sim.faults import FaultPlan, NodeCrash
from repro.sim.process import Process
from repro.sim.rdma import RDMA
from repro.sim.resources import Resource
from repro.training.resilience import run_fault_injected_training
from repro.training.trainer import run_training


def _oracle_acquire(self, streams: int = 1) -> Event:
    """Wait for ``streams`` free slots (granted atomically).

    ``dispatched_units`` is incremented when the grant fires, not
    when the request is queued — a request later withdrawn by an
    interrupt (:meth:`run_unit`'s cancel path) never dispatched and
    must not drift the post-recovery metrics.
    """
    grant = self._resource.acquire(streams)

    def _count_grant(event: Event) -> None:
        if event.ok:
            self.dispatched_units += 1
            self._m_dispatched.inc(rank=self.rank)
            self._m_in_flight.set(self._resource.in_use,
                                  rank=self.rank)

    grant.add_callback(_count_grant)
    return grant

def _oracle_release(self, streams: int = 1) -> None:
    self._resource.release(streams)
    self._m_in_flight.set(self._resource.in_use, rank=self.rank)

def _oracle_run_unit(self, work: t.Callable[[], Event],
                     streams: int = 1, label: str = "unit",
                     **span_meta: object) -> t.Generator:
    """Process generator: acquire stream(s), run ``work()``, release.

    ``streams`` > 1 models collectives that occupy several CUDA
    streams at once — the hierarchical all-reduce runs ``g`` parallel
    inter-node rings, one stream each (paper §V-B).

    With observability attached, the unit's occupancy is recorded as
    one timeline span per held CUDA stream (``label`` + ``span_meta``
    under category ``network``), so the exported trace shows exactly
    which lanes carried which unit — including units cut short by an
    interrupt, which are flagged ``interrupted``.

    Interrupt-safe: an abort while queued withdraws the acquire
    request (no leaked grant to a dead process); an abort while
    running releases the held streams.
    """
    request = self.acquire(streams)
    try:
        yield request
    except ProcessInterrupt:
        if not self._resource.cancel(request):
            self.release(streams)
        raise
    held = [heapq.heappop(self._free_ids)
            for _ in range(min(streams, len(self._free_ids)))]
    granted_at = self.sim.now
    interrupted = False
    try:
        yield work()
    except ProcessInterrupt:
        interrupted = True
        raise
    finally:
        timeline = self.obs.timeline
        diag = self.obs.diag
        if self.epoch:
            span_meta = dict(span_meta, epoch=self.epoch)
        for stream_id in held:
            heapq.heappush(self._free_ids, stream_id)
            timeline.span(label, "network", self.rank, granted_at,
                          self.sim.now, stream=stream_id,
                          interrupted=interrupted, **span_meta)
            if diag is not None:
                diag.observe_stream_span(
                    self.rank, stream_id, self.sim.now - granted_at,
                    float(t.cast(float, span_meta.get("bytes", 0.0))))
        self.release(streams)


def _oracle_iteration(self, ctx: TrainContext) -> t.Generator:
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


def _oracle_track(self, process: Process) -> Process:
    """Register a spawned process for :meth:`abort`.

    The tracking callback doubles as a watcher, so a failing tracked
    process records its exception (surfaced via the iteration
    barriers) rather than hard-raising out of the simulator.  The
    engine's ``abort`` runs each registered hook: here, the interrupt
    the process-based engine delivered.
    """
    def interrupt(cause: object) -> None:
        if process.can_interrupt:
            # A no-op watcher so the interrupt is recorded as a
            # failed event instead of surfacing out of sim.step().
            process.add_callback(lambda _ev: None)
            process.interrupt(cause)

    self._inflight[process] = interrupt
    process.add_callback(lambda _ev: self._inflight.pop(process, None))
    return process


def _oracle_retrying(self, ctx: TrainContext,
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


def _oracle_dispatch(self, ctx: TrainContext,
                     units: tuple[AllReduceUnit, ...],
                     unit_processes: list[Process]) -> t.Generator:
    """Synchronize a planned gradient batch, launch its units.

    The daemon CPU work (relaying the bit-vector ring, launching
    units) is serialized on the single MPI daemon thread; the network
    round-trip of the synchronization ring is asynchronous and only
    delays when these units may start.
    """
    pool = t.cast(CommStreamPool, self._pool)
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
    streams_per_unit = 1 if self.config.algorithm == "ring" \
        else spec.gpus_per_node
    for unit in units:
        def work(nbytes: float = unit.nbytes) -> t.Any:
            return ctx.collectives.allreduce(
                nbytes, algorithm=self.config.algorithm)

        def unit_process(nbytes: float = unit.nbytes,
                         do_work: t.Callable = work) -> t.Generator:
            # Paper §V-A.2: with GPU-direct RDMA the bucket lives in
            # GPU memory; over TCP it is staged through CPU memory.
            staging = ctx.staging_time_s(nbytes)
            if staging:
                staging_start = ctx.sim.now
                yield ctx.sim.timeout(staging)
                ctx.obs.timeline.span("staging", "staging", 0,
                                      staging_start, ctx.sim.now,
                                      bytes=nbytes)
            if self.config.unit_timeout_s is None:
                result = yield ctx.sim.spawn(
                    pool.run_unit(do_work, streams=streams_per_unit,
                                  label="allreduce-unit", bytes=nbytes))
                return result

            def launch() -> Process:
                return self._track(ctx.sim.spawn(
                    pool.run_unit(do_work, streams=streams_per_unit,
                                  label="allreduce-unit",
                                  bytes=nbytes)))

            def abandon(runner: Process) -> None:
                # Free the hung attempt's streams before retrying.
                if runner.can_interrupt:
                    runner.add_callback(lambda _ev: None)
                    runner.interrupt("unit timeout")

            result = yield from self._retrying(
                ctx, launch, phase="unit",
                timeout_s=t.cast(float, self.config.unit_timeout_s),
                abandon=abandon)
            return result

        unit_processes.append(self._track(ctx.sim.spawn(
            unit_process(), name=f"aiacc.unit{unit.unit_id}")))


def _use_unit_processes(monkeypatch):
    monkeypatch.setattr(AIACCBackend, "iteration", _oracle_iteration)
    monkeypatch.setattr(AIACCBackend, "_track", _oracle_track,
                        raising=False)
    monkeypatch.setattr(AIACCBackend, "_retrying", _oracle_retrying,
                        raising=False)
    monkeypatch.setattr(CommStreamPool, "acquire", _oracle_acquire,
                        raising=False)
    monkeypatch.setattr(CommStreamPool, "release", _oracle_release,
                        raising=False)
    monkeypatch.setattr(CommStreamPool, "run_unit", _oracle_run_unit,
                        raising=False)
    monkeypatch.setattr(AIACCBackend, "_dispatch", _oracle_dispatch)


def _observed():
    obs = Observability(enabled=True)
    obs.attach_detectors()
    return obs


def _outcome(times, obs):
    spans = [(span.name, span.start, span.end, span.stream, span.meta)
             for span in obs.timeline.spans
             if span.name in ("allreduce-unit", "staging")]
    return list(times), diagnose(obs).findings_digest, spans


def run(ranks, streams=4, algorithm="ring", model="resnet50", **kwargs):
    """Iteration times, findings digest and unit spans of one cell."""
    obs = _observed()
    result = run_training(
        model, AIACCBackend(AIACCConfig(num_streams=streams,
                                        algorithm=algorithm)),
        ranks, measure_iterations=2, warmup_iterations=1, obs=obs,
        **kwargs)
    return _outcome(result.iteration_times_s, obs)


def run_crash():
    """A node crash mid-iteration with unit deadlines armed."""
    obs = _observed()
    result = run_fault_injected_training(
        "resnet50", FaultPlan([NodeCrash(at_s=0.4, node=1)]),
        config=AIACCConfig(num_streams=4), num_gpus=16, gpus_per_node=8,
        total_iterations=3, checkpoint_interval=1, unit_timeout_s=0.3,
        obs=obs)
    return _outcome(result.iteration_times_s, obs), obs.fault_counts()


CELLS = {
    "ring-8r": dict(ranks=8),
    "ring-32r": dict(ranks=32),
    "ring-256r": dict(ranks=256),
    "ring-32r-1-stream": dict(ranks=32, streams=1),
    "ring-32r-24-streams": dict(ranks=32, streams=24, model="vgg16"),
    "ring-32r-rdma": dict(ranks=32, transport=RDMA),
    # One CUDA stream per local GPU per unit, on a congested node.
    "hierarchical-32r-congested": dict(
        ranks=32, streams=8, algorithm="hierarchical",
        congested_links={0: 0.5}),
    "ina-64r-4to1-spine": dict(ranks=64, algorithm="ina",
                               core_oversubscription=4.0),
}


@pytest.mark.parametrize("cell", CELLS.values(), ids=CELLS)
def test_pool_callbacks_match_unit_processes(monkeypatch, cell):
    current = run(**cell)
    assert current[2], "no unit spans recorded"
    _use_unit_processes(monkeypatch)
    assert run(**cell) == current


def test_rdma_units_skip_staging():
    _times, _digest, spans = run(ranks=32, transport=RDMA)
    assert spans and all(span[0] == "allreduce-unit" for span in spans)
    _times, _digest, spans = run(ranks=32)
    assert any(span[0] == "staging" for span in spans)


def test_crash_with_unit_deadlines_matches_unit_processes(monkeypatch):
    aborts = []
    abort = AIACCBackend.abort

    def counting_abort(self, cause=None):
        aborts.append(abort(self, cause))
        return aborts[-1]

    monkeypatch.setattr(AIACCBackend, "abort", counting_abort)
    current, faults = run_crash()
    # The retry loop timed a unit out and abandoned it, and the
    # confirmed death aborted the live units: both cut spans short.
    assert faults["unit_timeout"] >= 1 and faults["confirm"] >= 1
    assert aborts and aborts[0] > 0
    assert any(span[-1].get("interrupted") for span in current[2])
    _use_unit_processes(monkeypatch)
    assert run_crash()[0] == current
