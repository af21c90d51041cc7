"""The shared-resource primitive for simulated processes.

:class:`Resource` is a counting semaphore with FIFO queuing.  The
communication stream pool, the MPI daemon and the MPI per-pair channels
hold its slots.
"""

from __future__ import annotations

import typing as t
from collections import deque

from repro.errors import SimulationError, require_count
from repro.sim.events import Event

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Resource:
    """A counting semaphore with FIFO fairness.

    Usage inside a process::

        yield resource.acquire()
        try:
            ...
        finally:
            resource.release()
    """

    def __init__(self, sim: "Simulator", capacity: int, name: str = "") -> None:
        self.sim = sim
        self.capacity = require_count("capacity", capacity, 1, SimulationError)
        self.name = name or "resource"
        self._acquire_name = f"{self.name}.acquire"
        self.in_use = 0
        self._waiters: deque[tuple[Event, int]] = deque()
        # Double-entry grant/release ledger.  ``in_use`` must always equal
        # ``granted_slots - released_slots``; the invariant checker (when
        # attached to the simulator) verifies this after every mutation.
        self.granted_slots = 0
        self.released_slots = 0
        self.total_grants = 0
        self._checker = getattr(sim, "invariants", None)
        if self._checker is not None:
            self._checker.register_resource(self)

    @property
    def waiting_requests(self) -> int:
        """Number of queued (not yet granted) acquire requests."""
        return len(self._waiters)

    def _grant(self, count: int) -> None:
        """Record one all-or-nothing grant of ``count`` slots."""
        self.in_use += count
        self.granted_slots += count
        self.total_grants += 1

    def acquire(self, count: int = 1) -> Event:
        """Return an event firing once ``count`` slots are held atomically.

        Multi-slot requests are granted all-or-nothing in strict FIFO
        order (no bypass), so two half-satisfied requests can never
        deadlock each other.  Requests larger than the current capacity
        are granted when the pool is idle, holding the whole pool.
        """
        if type(count) is not int or count < 1:
            count = require_count(f"{self.name} count", count, 1,
                                  SimulationError)
        event = self.sim.event(name=self._acquire_name)
        if not self._waiters and self._fits(count):
            self._grant(count)
            self.sim._schedule_at(self.sim.now, event, None)
        else:
            self._waiters.append((event, count))
        if self._checker is not None:
            self._checker.check_resource(self)
        return event

    def release(self, count: int = 1) -> None:
        """Return ``count`` slots, waking waiters FIFO as capacity allows.

        Capacity-aware: after a shrinking :meth:`resize`, released slots
        are retired instead of handed to waiters until usage fits the new
        capacity.
        """
        if type(count) is not int or count < 1:
            count = require_count(f"{self.name} count", count, 1,
                                  SimulationError)
        if self.in_use < count:
            raise SimulationError(
                f"release({count}) exceeds held slots on {self.name!r}"
            )
        self.in_use -= count
        self.released_slots += count
        self._wake_waiters()
        if self._checker is not None:
            self._checker.check_resource(self)

    def cancel(self, event: Event) -> bool:
        """Withdraw a pending :meth:`acquire` request.

        An interrupted process must not leave its acquire event queued:
        the grant would otherwise go to a dead request and leak slots
        forever.  Returns ``True`` when the request was still waiting
        (nothing was ever held); ``False`` when it had already been
        granted — the caller holds the slots and must :meth:`release`
        them.  The usual interrupt-safe pattern::

            request = resource.acquire()
            try:
                yield request
            except ProcessInterrupt:
                if not resource.cancel(request):
                    resource.release()
                raise
        """
        for index, (pending, _count) in enumerate(self._waiters):
            if pending is event:
                del self._waiters[index]
                # Removing a large request at the head may unblock the
                # smaller requests queued behind it.
                self._wake_waiters()
                return True
        return False

    def _fits(self, count: int) -> bool:
        """Whether a request for ``count`` slots can be granted now.

        Oversized requests (count > capacity) are granted only on an idle
        pool, so they make progress instead of waiting forever.
        """
        if self.in_use + count <= self.capacity:
            return True
        return self.in_use == 0 and count > self.capacity

    def resize(self, capacity: int) -> None:
        """Change the capacity (elastic pools, compute-aware streams).

        Growing wakes waiters immediately; shrinking never interrupts
        holders — usage drains down to the new capacity as slots are
        released.
        """
        self.capacity = require_count("capacity", capacity, 1, SimulationError)
        self._wake_waiters()

    def _wake_waiters(self) -> None:
        while self._waiters:
            event, count = self._waiters[0]
            if not self._fits(count):
                break
            self._waiters.popleft()
            self._grant(count)
            self.sim._schedule_at(self.sim.now, event, None)
