"""Differential test of the all-reduce unit: pool callbacks vs processes.

The oracle is kept verbatim below: the engine's ``_dispatch`` spawned
one ``unit_process`` per all-reduce unit (staging, then the unit), and
that spawned the stream pool's ``run_unit`` generator (acquire, run the
collective, release).  A unit now runs as a callback chain on the pool
(:meth:`~repro.core.streams.CommStreamPool.start_unit`), staging is a
timeout with a callback, and with a unit deadline the failure
detector's retry loop is the unit's only process.

Every delay is still ``now + delay`` and every grant still goes through
the pool's FIFO resource, so a unit starts its flows at the same
instant; only its position among the events of that instant changes.
So every iteration time, every diagnosis finding and every
``allreduce-unit`` and ``staging`` span (start, end, CUDA stream id and
meta) must be identical.
"""

import heapq
import typing as t

import pytest

from repro.core.engine import AIACCBackend
from repro.core.packing import AllReduceUnit
from repro.core.registration import GradientRegistry
from repro.core.runtime import AIACCConfig
from repro.core.streams import CommStreamPool
from repro.errors import ProcessInterrupt
from repro.frameworks.base import TrainContext
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
