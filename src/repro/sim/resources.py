"""Shared-resource primitives for simulated processes.

Two primitives cover the library's needs:

:class:`Resource`
    A counting semaphore with FIFO queuing (GPU SM slots, CPU cores,
    communication-thread-pool slots).
:class:`Store`
    An unbounded FIFO channel of Python objects (message queues between the
    training worker and the MPI daemon, MPI mailboxes).
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
    def available(self) -> int:
        """Number of free slots."""
        return self.capacity - self.in_use

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
        self._check_count(count)
        event = self.sim.event(name=self._acquire_name)
        if not self._waiters and self._fits(count):
            self._grant(count)
            self.sim._schedule_at(self.sim.now, event, None)
        else:
            self._waiters.append((event, count))
        if self._checker is not None:
            self._checker.check_resource(self)
        return event

    def try_acquire(self, count: int = 1) -> bool:
        """Take ``count`` slots immediately if available; never blocks."""
        self._check_count(count)
        if not self._waiters and self._fits(count):
            self._grant(count)
            if self._checker is not None:
                self._checker.check_resource(self)
            return True
        return False

    def release(self, count: int = 1) -> None:
        """Return ``count`` slots, waking waiters FIFO as capacity allows.

        Capacity-aware: after a shrinking :meth:`resize`, released slots
        are retired instead of handed to waiters until usage fits the new
        capacity.
        """
        self._check_count(count)
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

    @staticmethod
    def _check_count(count: int) -> None:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")

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


class Store:
    """An unbounded FIFO channel between simulated processes."""

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name or "store"
        self._get_name = f"{self.name}.get"
        self._items: deque[object] = deque()
        self._getters: deque[Event] = deque()
        self._checker = getattr(sim, "invariants", None)

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: object) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        if self._getters:
            event = self._getters.popleft()
            self.sim._schedule_at(self.sim.now, event, item)
        else:
            self._items.append(item)
        if self._checker is not None:
            self._checker.check_store(self)

    def get(self) -> Event:
        """Return an event whose value is the next item (FIFO order)."""
        event = self.sim.event(name=self._get_name)
        if self._items:
            self.sim._schedule_at(self.sim.now, event, self._items.popleft())
        else:
            self._getters.append(event)
        if self._checker is not None:
            self._checker.check_store(self)
        return event

    def cancel(self, event: Event) -> bool:
        """Withdraw a pending :meth:`get` request.

        Returns ``True`` when the getter was still queued; ``False``
        when an item was already dispatched to it (the caller owns that
        item).  Interrupted consumers use this so a later :meth:`put`
        does not hand an item to a dead process.
        """
        try:
            self._getters.remove(event)
        except ValueError:
            return False
        return True
