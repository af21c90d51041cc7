"""Generator-based simulated processes.

A process wraps a Python generator.  The generator yields :class:`Event`
objects (timeouts, resource acquisitions, other processes, ...) to suspend;
when the yielded event triggers, the process resumes with the event's value.
A failing event has its exception thrown into the generator, so ordinary
``try/except`` works inside simulated code.

A :class:`Process` is itself an :class:`Event` that triggers when the
generator returns (value = the ``return`` value) or raises.
"""

from __future__ import annotations

import typing as t

from repro.errors import ProcessInterrupt, SimulationError
from repro.sim.events import _START_NAMES, Event

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Process(Event):
    """A running simulated process.  Also an event: fires on termination."""

    __slots__ = ("generator", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: t.Generator,
                 name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you forget to call the process function?"
            )
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self._waiting_on: Event | None = None
        # Kick off the process at the current simulation instant, but through
        # the event queue so that spawn order does not matter.
        bootstrap = sim.event(name=_START_NAMES[self.name])
        self._waiting_on = bootstrap
        bootstrap.callbacks.append(self)
        sim._schedule_at(sim.now, bootstrap, None)

    # -- lifecycle ------------------------------------------------------------

    @property
    def alive(self) -> bool:
        """Whether the process generator is still running."""
        return not self.triggered

    @property
    def can_interrupt(self) -> bool:
        """Whether :meth:`interrupt` would succeed right now.

        False for finished processes and for the (rare) alive-but-stuck
        state left behind when an unwatched generator crashed and had its
        exception surfaced instead of recorded.  Deferred interrupt
        delivery (:meth:`Simulator.interrupt`) checks this so a crash
        racing its victim's exit is a no-op instead of an error.
        """
        return not self.triggered and self._waiting_on is not None

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`ProcessInterrupt` into the process at its yield point.

        Interrupting a terminated process is an error.  The event the process
        was waiting on remains pending; the process may re-wait on it.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self!r}")
        waiting = self._waiting_on
        if waiting is None:
            raise SimulationError(
                f"process {self!r} is not waiting; cannot interrupt during startup"
            )
        self._waiting_on = None
        self._step(ProcessInterrupt(cause), throw=True)

    # -- engine -----------------------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Callback fired when the event this process waits on triggers.

        Also the process's ``__call__``: a process registers *itself* as
        the callback of the event it yields, so no bound method is built
        per yield.
        """
        if self._waiting_on is not event:
            # The process was interrupted while waiting and has moved on;
            # ignore the stale wakeup.
            return
        self._waiting_on = None
        self._step(event._value, not event._ok)

    __call__ = _resume

    def _step(self, value: object, throw: bool) -> None:
        """Advance the generator one yield."""
        try:
            if throw:
                target = self.generator.throw(t.cast(BaseException, value))
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if self.callbacks is not None and not self.callbacks:
                # Nobody is watching this process: surface the crash rather
                # than swallowing it into an un-observed failed event.
                raise
            self.fail(exc)
            return

        if not isinstance(target, Event):
            crash = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes may "
                "only yield Event instances"
            )
            self.generator.close()
            self.fail(crash)
            return
        if target.sim is not self.sim:
            self.generator.close()
            self.fail(SimulationError(
                f"process {self.name!r} yielded an event from a different simulator"
            ))
            return
        self._waiting_on = target
        callbacks = target.callbacks
        if callbacks is None:  # already dispatched: resume at once
            self._resume(target)
        else:
            callbacks.append(self)
