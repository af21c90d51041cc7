"""The communication thread/stream pool (paper §V, Algorithm 1).

"Multi-streamed gradient communication is achieved by first creating a
thread pool with multiple CUDA stream contexts ... The MPI communication
process automatically dispatches an all-reduce unit to an available CUDA
stream."

The pool's *effective* concurrency is limited by GPU SM availability
while backward compute kernels are running (paper §VIII-A): the
:class:`~repro.sim.cuda.GPUDevice` contention model shrinks the pool
during backward and the full requested width becomes available once
compute finishes.
"""

from __future__ import annotations

import heapq
import typing as t

from repro.errors import ProcessInterrupt, ReproError
from repro.obs import Observability
from repro.sim.cuda import GPUDevice
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource


class CommStreamPool:
    """A pool of communication streams with compute-aware concurrency."""

    def __init__(self, sim: Simulator, gpu: GPUDevice, num_streams: int,
                 compute_occupancy: float,
                 setup_latency_s: float = 0.0,
                 obs: Observability | None = None,
                 rank: int = 0) -> None:
        if num_streams < 1:
            raise ReproError("num_streams must be >= 1")
        self.sim = sim
        self.gpu = gpu
        self.requested_streams = num_streams
        self.compute_occupancy = compute_occupancy
        #: Observability sink for per-stream unit spans and metrics.
        self.obs = obs or Observability.disabled()
        #: Rank this pool's spans are attributed to (the timed engine
        #: follows one representative worker, rank 0).
        self.rank = rank
        #: Membership epoch of the worker group this pool serves; the
        #: elastic runtime bumps it so unit spans from different
        #: topologies are distinguishable in exported traces.
        self.epoch = 0
        #: Free CUDA-stream indices, smallest-first so the same workload
        #: lands units on the same lanes run after run.
        self._free_ids = list(range(num_streams))
        heapq.heapify(self._free_ids)
        #: Cost of creating *one* stream/communicator context — the
        #: constructor argument, kept under an unambiguous name (the
        #: argument used to be silently redefined from per-stream to
        #: total under the same attribute name).
        self.per_stream_setup_latency_s = float(setup_latency_s)
        #: One-time cost of creating all ``num_streams`` contexts, paid
        #: sequentially at :meth:`setup` (stream construction is a
        #: host-side serial operation).
        self.total_setup_latency_s = float(setup_latency_s) * num_streams
        self._resource = Resource(
            sim,
            capacity=gpu.effective_streams(num_streams, compute_occupancy),
            name="comm-streams",
        )
        #: Units actually granted a stream (counted on grant, not on
        #: request: a queued request cancelled by an interrupt never
        #: dispatched anything and must not inflate this metric).
        self.dispatched_units = 0
        self._m_dispatched = self.obs.registry.counter(
            "aiacc_dispatched_units_total",
            "All-reduce units granted a CUDA stream")
        self._m_in_flight = self.obs.registry.gauge(
            "aiacc_streams_in_flight",
            "CUDA stream slots currently held by units")

    # -- lifecycle -----------------------------------------------------------

    def setup(self) -> Event:
        """Event firing once stream contexts are constructed."""
        return self.sim.timeout(self.total_setup_latency_s)

    def compute_finished(self) -> None:
        """Backward compute ended: all requested streams become usable."""
        self._resource.resize(self.requested_streams)

    def compute_started(self) -> None:
        """Backward compute (re)started: SM contention shrinks the pool.

        In-flight units keep their streams; the reduced width applies to
        new dispatches (matching how the hardware scheduler admits new
        kernels).
        """
        limited = self.gpu.effective_streams(
            self.requested_streams, self.compute_occupancy)
        self._resource.resize(limited)

    # -- dispatch -----------------------------------------------------------

    @property
    def effective_streams(self) -> int:
        """Streams currently admitted by the hardware scheduler."""
        return self._resource.capacity

    @property
    def in_flight(self) -> int:
        return self._resource.in_use

    def acquire(self, streams: int = 1) -> Event:
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

    def release(self, streams: int = 1) -> None:
        self._resource.release(streams)
        self._m_in_flight.set(self._resource.in_use, rank=self.rank)

    def run_unit(self, work: t.Callable[[], Event],
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
