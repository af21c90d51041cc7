"""The discrete-event simulation kernel.

:class:`Simulator` owns the virtual clock and the pending-event heap.  All
other simulation components (processes, resources, the network model, the
GPU model) schedule work through it.

Time is a ``float`` in **seconds**.  Ties are broken by insertion order so
simulations are fully deterministic.
"""

from __future__ import annotations

import heapq
import itertools
import typing as t

from repro.errors import SimulationError, require_real
from repro.sim.events import _PENDING, AllOf, AnyOf, Event, Timeout
from repro.sim.invariants import InvariantChecker, invariants_enabled_by_env

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import Process


class Simulator:
    """A deterministic discrete-event simulator.

    Ties between simultaneous events are broken by insertion order (a
    monotone counter), so two runs of the same seeded workload pop events
    in the same sequence.  With ``check_invariants`` enabled (or the
    ``REPRO_CHECK_INVARIANTS`` environment flag set) an
    :class:`~repro.sim.invariants.InvariantChecker` is attached as
    ``self.invariants``: resources register accounting ledgers with it,
    components report cross-worker decisions to it, and every popped
    event is folded into a run digest (:meth:`state_digest`) proving
    run-to-run replay determinism.

    Example
    -------
    >>> sim = Simulator()
    >>> def worker(sim):
    ...     yield sim.timeout(1.5)
    ...     return "done"
    >>> proc = sim.spawn(worker(sim))
    >>> sim.run()
    >>> proc.value
    'done'
    """

    def __init__(self, check_invariants: bool | None = None) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event, object]] = []
        self._counter = itertools.count()
        self._active_processes = 0
        #: Recycled one-shot :class:`Event` slots (see
        #: :meth:`pooled_event` / :meth:`release_event`), one free list
        #: per kernel.
        self._event_pool: list[Event] = []
        #: Deterministic work counters, like ``FluidNetwork.reallocations``:
        #: processes started through :meth:`spawn`, and heap entries pushed
        #: (every timeout, start, grant and wakeup goes through
        #: :meth:`_schedule_at`).
        self.processes_spawned = 0
        self.events_scheduled = 0
        self.invariants: InvariantChecker | None = None
        if check_invariants is None:
            check_invariants = invariants_enabled_by_env()
        if check_invariants:
            InvariantChecker().attach(self)

    # -- scheduling ---------------------------------------------------------

    def _schedule_at(self, when: float, event: Event, value: object) -> None:
        """Schedule ``event`` to trigger successfully at absolute time ``when``.

        ``event`` may also be any object with the slots a pop reads —
        ``name``, ``_scheduled``, ``_value`` and ``succeed(value)`` —
        such as the fluid network's wakeup timer.
        """
        # Written so that a NaN ``when`` fails too: every comparison
        # with NaN is false.
        if not when >= self.now:
            raise SimulationError(
                f"cannot schedule event at {when} (now={self.now})"
            )
        event._scheduled += 1
        self.events_scheduled += 1
        heapq.heappush(self._heap, (when, next(self._counter), event, value))

    # -- event factories ------------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create an untriggered event owned by this simulator."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """An event that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay, value=value)

    def at(self, when: float, value: object = None) -> Event:
        """An event that fires at absolute simulated time ``when``.

        A process that would sleep through several successive timeouts
        with nothing to do between them can accumulate their delays —
        ``when = when + delay``, the same additions the kernel makes
        for each timeout — and wake once, at the same instant.
        """
        event = Event(self, name="at")
        self._schedule_at(when, event, value)
        return event

    def all_of(self, events: t.Sequence[Event]) -> AllOf:
        """An event that fires when every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events: t.Sequence[Event]) -> AnyOf:
        """An event that fires when the first event in ``events`` fires."""
        return AnyOf(self, events)

    def pooled_event(self, name: str = "") -> Event:
        """An untriggered event from the kernel's recycling pool.

        Behaviourally identical to :meth:`event` — same name semantics,
        same replay-digest fold — but the object may be a recycled
        instance, saving one allocation per call.  Nothing in the
        package calls it today: the fluid network schedules its
        wakeups on one reusable timer instead.  Callers that hand the
        event to :meth:`release_event` after it fires MUST own every
        reference to it; never pool events yielded to processes.
        """
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event._pooled = False
            event._reset_for_reuse(name)
            return event
        return Event(self, name=name)

    def release_event(self, event: Event) -> None:
        """Return a fired pooled event for reuse, if it is safe to.

        Safe means: the event is not already pooled (double release is
        idempotent) and no pending heap entry still references it
        (``_scheduled > 0``).  The latter arises when an owner
        supersedes or abandons a scheduled event — triggers it directly,
        say — before its heap entry has popped.  Reusing that object
        would let the stale pop trigger the *recycled* event.  Such
        events are simply not pooled; they die naturally when their
        stale entry pops (already-triggered entries are skipped by the
        run loop) and get garbage-collected.
        """
        if event._pooled or event._scheduled > 0:
            return
        event._pooled = True
        self._event_pool.append(event)

    def spawn(self, generator: t.Generator, name: str = "") -> "Process":
        """Start a new simulated process running ``generator``."""
        from repro.sim.process import Process

        self.processes_spawned += 1
        return Process(self, generator, name=name)

    def interrupt(self, process: "Process", cause: object = None,
                  delay: float = 0.0) -> Event:
        """Deliver a :class:`ProcessInterrupt` through the event queue.

        Unlike :meth:`Process.interrupt` (which throws synchronously and
        errors on a finished process), delivery is scheduled like any
        other event: after ``delay`` simulated seconds the victim is
        interrupted *if it is still alive and interruptible* — otherwise
        the delivery silently expires.  This is the API fault injectors
        use: a simulated node crash must not blow up just because its
        victim happened to finish first.

        Returns the delivery event (value: ``cause``).
        """
        delivery = self.event(name=f"interrupt({process.name})")

        def _deliver(_ev: Event) -> None:
            if process.can_interrupt:
                process.interrupt(cause)

        delivery.add_callback(_deliver)
        self._schedule_at(self.now + delay, delivery, cause)
        return delivery

    # -- main loop -----------------------------------------------------------

    def step(self) -> None:
        """Process the single next scheduled event.

        A popped entry settles its event's heap balance (``_scheduled``)
        whether or not the event still needs triggering, so the balance
        counts exactly the entries still in the heap.
        """
        if not self._heap:
            raise SimulationError("step() called on an empty event queue")
        when, _, event, value = heapq.heappop(self._heap)
        self.now = when
        if self.invariants is not None:
            self.invariants.record_event(when, event.name)
        event._scheduled -= 1
        if event._value is _PENDING:
            event.succeed(value)

    def run(self, until: float | Event | None = None) -> None:
        """Run the simulation.

        The loops below inline :meth:`step` (pop, clock update, digest
        fold, trigger) with the heap, pop function and invariant
        checker hoisted into locals: at 128–256 ranks the kernel pops
        tens of thousands of events per simulated step, and the
        per-event method/property overhead of calling ``step()`` is a
        measurable fraction of total wall-clock.  A checker is attached
        only where the simulator is built, so reading
        ``self.invariants`` once per call sees every pop.  The inlined
        loops pop events in the identical order with identical clock
        updates, so :meth:`state_digest` is unaffected.

        Parameters
        ----------
        until:
            ``None``
                run until no scheduled events remain.
            ``float``
                run until the clock reaches this absolute time.
            :class:`Event`
                run until the event triggers.
        """
        heap = self._heap
        pop = heapq.heappop
        checker = self.invariants
        if isinstance(until, Event):
            stop = until
            while stop._value is _PENDING:
                if not heap:
                    raise SimulationError(
                        f"simulation ran out of events before {stop!r} triggered"
                    )
                when, _, event, value = pop(heap)
                self.now = when
                if checker is not None:
                    checker.record_event(when, event.name)
                event._scheduled -= 1
                if event._value is _PENDING:
                    event.succeed(value)
        elif until is None:
            while heap:
                when, _, event, value = pop(heap)
                self.now = when
                if checker is not None:
                    checker.record_event(when, event.name)
                event._scheduled -= 1
                if event._value is _PENDING:
                    event.succeed(value)
        else:
            horizon = float(require_real("until", until, SimulationError))
            if horizon < self.now:
                raise SimulationError(
                    f"run(until={horizon}) is in the past (now={self.now})"
                )
            while heap and heap[0][0] <= horizon:
                when, _, event, value = pop(heap)
                self.now = when
                if checker is not None:
                    checker.record_event(when, event.name)
                event._scheduled -= 1
                if event._value is _PENDING:
                    event.succeed(value)
            self.now = horizon

    @property
    def queue_length(self) -> int:
        """Number of scheduled (not yet fired) events."""
        return len(self._heap)

    def state_digest(self) -> str | None:
        """Digest of the event sequence popped so far, or ``None``.

        Only available when the invariant checker is attached.  Two runs
        of the same seeded workload must return byte-identical digests —
        the deterministic-replay invariant.
        """
        if self.invariants is None:
            return None
        return self.invariants.digest()
