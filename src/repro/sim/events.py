"""Core event primitives for the discrete-event simulator.

An :class:`Event` is a one-shot occurrence with an optional value.  Processes
(see :mod:`repro.sim.process`) yield events to suspend until the event is
*triggered*.  Events may also *fail*, in which case the exception is thrown
into every waiting process.

The design follows the SimPy model closely but is self-contained: only the
pieces needed by this library are implemented, and triggering semantics are
strict (an event can be triggered exactly once).
"""

from __future__ import annotations

import typing as t

from repro.errors import SimulationError

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator

Callback = t.Callable[["Event"], None]

#: Sentinel used for "not yet triggered" values.
_PENDING = object()

class _NameMemo(dict):
    """Bounded memo of formatted event labels, keyed by what they format.

    Simulated workloads reuse a small set of labels thousands of times
    per step — ``timeout(<delay:g>)`` for per-hop latencies, retry
    backoffs and layer compute times, ``<process>.start`` for the
    processes each iteration spawns — and formatting one per event shows
    up in kernel profiles.  The cached string is identical to the
    formatted one, so event names (and replay digests) are unchanged.
    Cleared when full so adversarial key sequences cannot grow it.
    """

    __slots__ = ("template",)

    MAX = 4096

    def __init__(self, template: str) -> None:
        super().__init__()
        self.template = template

    def __missing__(self, key: object) -> str:
        if len(self) >= self.MAX:
            self.clear()
        name = self[key] = self.template.format(key)
        return name


_TIMEOUT_NAMES = _NameMemo("timeout({:g})")
_START_NAMES = _NameMemo("{}.start")


class Event:
    """A one-shot occurrence in simulated time.

    Parameters
    ----------
    sim:
        The owning simulator.  Events scheduled on one simulator must never
        be mixed with another simulator instance.
    name:
        Optional human-readable label used in traces and error messages.
    """

    __slots__ = ("sim", "name", "callbacks", "_value", "_ok",
                 "_scheduled", "_pooled")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.callbacks: list[Callback] | None = []
        self._value: object = _PENDING
        self._ok: bool = True
        #: Heap-entry balance: incremented when the kernel schedules this
        #: event, decremented when the entry pops (triggering or not).
        #: Non-zero means at least one pending heap entry still references
        #: the object, so it must not be recycled (see
        #: :meth:`Simulator.release_event`).
        self._scheduled: int = 0
        #: Whether the event currently sits in the kernel's event pool.
        #: Guards against double-release (two owners' paths may both
        #: try to return the same object).
        self._pooled: bool = False

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """Whether the event has occurred (successfully or not)."""
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """Whether the event succeeded. Only meaningful once triggered."""
        return self._ok

    @property
    def value(self) -> object:
        """The event's value (or exception if it failed)."""
        if self._value is _PENDING:
            raise SimulationError(f"event {self!r} has not been triggered")
        return self._value

    # -- triggering --------------------------------------------------------

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``.

        Callbacks run inline, in registration order, before this returns.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._value = value
        self._ok = True
        callbacks = self.callbacks
        self.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure.

        Waiting processes will have ``exception`` thrown into them at their
        yield point.
        """
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._value is not _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._value = exception
        self._ok = False
        callbacks = self.callbacks
        self.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(self)
        return self

    # -- observer registration ----------------------------------------------

    def _reset_for_reuse(self, name: str = "") -> None:
        """Return a fired event to the untriggered state (object pooling).

        Strictly internal: only safe for events whose every reference is
        owned by the caller — never yielded to processes, and popped
        from the kernel heap before they are recycled.  The recycled
        event is observationally identical to a fresh one (including
        its name, which the replay digest folds), so replay digests are
        unchanged.  :meth:`Simulator.release_event` refuses events with
        a pending heap entry (``_scheduled > 0``), so a recycled event
        can never be resurrected into a double-trigger.
        """
        self._value = _PENDING
        self._ok = True
        self.callbacks = []
        self.name = name

    def add_callback(self, callback: Callback) -> None:
        """Invoke ``callback(event)`` when the event triggers.

        If the event has already been dispatched the callback fires
        immediately (synchronously).
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        label = self.name or self.__class__.__name__
        return f"<{label} {state} at t={self.sim.now:.6f}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: object = None,
                 name: str = "") -> None:
        if not delay >= 0:  # also refuses NaN
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")
        # The slots of Event.__init__, set here without the super() call:
        # timeouts are the kernel's most frequent allocation.
        self.sim = sim
        self.name = name or _TIMEOUT_NAMES[delay]
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._scheduled = 0
        self._pooled = False
        self.delay = delay
        sim._schedule_at(sim.now + delay, self, value)


class AllOf(Event):
    """Triggers when all child events have triggered successfully.

    The value is a list of the children's values in the order given.  If any
    child fails, this event fails with the same exception (first failure
    wins).
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: t.Sequence[Event]) -> None:
        super().__init__(sim, name=f"all_of({len(events)})")
        self.events = list(events)
        self._remaining = len(self.events)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self.events:
            child.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if not child.ok:
            self.fail(t.cast(BaseException, child.value))
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c.value for c in self.events])


class AnyOf(Event):
    """Triggers when the first child event triggers.

    The value is the ``(index, value)`` pair of the first child.  A failing
    first child fails this event.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: t.Sequence[Event]) -> None:
        super().__init__(sim, name=f"any_of({len(events)})")
        self.events = list(events)
        if not self.events:
            raise SimulationError("AnyOf requires at least one event")
        for index, child in enumerate(self.events):
            child.add_callback(self._make_child_callback(index))

    def _make_child_callback(self, index: int) -> Callback:
        def _on_child(child: Event) -> None:
            if self.triggered:
                return
            if child.ok:
                self.succeed((index, child.value))
            else:
                self.fail(t.cast(BaseException, child.value))

        return _on_child
