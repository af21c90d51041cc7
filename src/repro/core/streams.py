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

A dispatched unit is a stream grant, one collective and a release, so
it runs as a chain of callbacks on the pool
(:meth:`CommStreamPool.start_unit`), not as a process: the FIFO grant
starts the collective, and the collective's completion returns the
streams.  :meth:`CommStreamPool.cancel` tears a unit down at any point.
"""

from __future__ import annotations

import heapq
import typing as t

from repro.errors import ProcessInterrupt, ReproError, require_count
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
        self.sim = sim
        self.gpu = gpu
        self.requested_streams = require_count("num_streams", num_streams,
                                               1, ReproError)
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
        #: Started units that have not finished, oldest first, each
        #: mapped to its cancel hook (see :meth:`cancel`).
        self._live: dict[Event, t.Callable[[object], None]] = {}
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

    def start_unit(self, work: t.Callable[[], Event], streams: int = 1,
                   label: str = "unit", **span_meta: object) -> Event:
        """Acquire stream(s), run ``work()`` on them, release them.

        A unit is a stream grant, one collective and a release; it runs
        on callbacks, not a process.  The request goes through the
        pool's FIFO :class:`~repro.sim.resources.Resource`; when the
        grant fires, the unit takes the smallest free stream ids and
        calls ``work()``; when the work's event fires, the ids go back,
        the slots are released and the returned event fires with the
        work's value (or fails with its exception).

        ``streams`` > 1 models collectives that occupy several CUDA
        streams at once — the hierarchical all-reduce runs ``g`` parallel
        inter-node rings, one stream each (paper §V-B).

        With observability attached, the unit's occupancy is recorded as
        one timeline span per held CUDA stream (``label`` + ``span_meta``
        under category ``network``), so the exported trace shows exactly
        which lanes carried which unit — including units cut short by
        :meth:`cancel`, which are flagged ``interrupted``.

        ``dispatched_units`` is incremented when the grant fires, not
        when the request is queued: a request withdrawn by
        :meth:`cancel` never dispatched and must not drift the
        post-recovery metrics.
        """
        sim = self.sim
        resource = self._resource
        unit = sim.event(name=label)
        request = resource.acquire(streams)
        held: list[int] = []
        granted_at: float | None = None

        def finish(interrupted: bool) -> None:
            del self._live[unit]
            timeline = self.obs.timeline
            start = t.cast(float, granted_at)
            meta = dict(span_meta, epoch=self.epoch) if self.epoch \
                else span_meta
            for stream_id in held:
                heapq.heappush(self._free_ids, stream_id)
                timeline.span(label, "network", self.rank, start, sim.now,
                              stream=stream_id, interrupted=interrupted,
                              **meta)
            self._release(streams)

        def done(event: Event) -> None:
            if unit.triggered:  # cancelled while running
                return
            finish(interrupted=False)
            if event._ok:
                unit.succeed(event._value)
            else:
                unit.fail(t.cast(BaseException, event._value))

        def grant(_request: Event) -> None:
            nonlocal granted_at
            self.dispatched_units += 1
            self._m_dispatched.inc(rank=self.rank)
            self._m_in_flight.set(resource.in_use, rank=self.rank)
            if unit.triggered:  # cancelled after the grant was scheduled
                return
            free = self._free_ids
            held.extend(heapq.heappop(free)
                        for _ in range(min(streams, len(free))))
            granted_at = sim.now
            work().add_callback(done)

        def cancel(cause: object) -> None:
            if granted_at is not None:
                finish(interrupted=True)
            else:
                del self._live[unit]
                if not resource.cancel(request):
                    # Granted, but the grant has not fired yet.
                    self._release(streams)
            unit.fail(ProcessInterrupt(cause))

        self._live[unit] = cancel
        request.add_callback(grant)
        return unit

    def cancel(self, unit: Event, cause: object = None) -> None:
        """Cancel a unit started by :meth:`start_unit`.

        A queued request is withdrawn (no grant is ever handed to a dead
        unit); a grant that was scheduled but has not fired is released
        at once, and when it fires it starts no work; a running unit
        returns its streams, recording its spans with
        ``interrupted=True``.  The unit's event fails with
        :class:`~repro.errors.ProcessInterrupt`.  Cancelling a unit that
        already finished is a no-op.
        """
        cancel = self._live.get(unit)
        if cancel is not None:
            cancel(cause)

    def cancel_all(self, cause: object = None) -> int:
        """Cancel every live unit, oldest first; returns how many."""
        live = list(self._live)
        for unit in live:
            self.cancel(unit, cause)
        return len(live)

    def _release(self, streams: int) -> None:
        self._resource.release(streams)
        self._m_in_flight.set(self._resource.in_use, rank=self.rank)
