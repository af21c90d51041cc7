"""Model-based test of the callback :class:`ConnectionPool`.

A Hypothesis state machine submits items to a pool whose ``serve``
returns, per item, an event the machine fires or fails by hand, a
timeout the kernel fires, an event that has already fired, or raises.
Between the rules it closes the pool (after which nothing is submitted,
as in every backend) and steps the kernel.  A deque
reference model replays the pool's log of starts and completions and
checks after every step that:

1. at most ``size`` items are in service, less one per connection
   lost with a failed item;
2. items start in submission order, and an item waits only while every
   live connection is busy;
3. ``close`` fires only after the last item is done;
4. the first failure — a failed event or a raising ``serve`` — fails
   ``close`` with that exception.
"""

import collections

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.frameworks.base import ConnectionPool
from repro.sim import Simulator

#: How ``serve`` completes an item: by hand, by the kernel after a
#: delay, at once, or by raising.
KINDS = ("manual", "timeout", "fired", "raises")


class Lost(Exception):
    """The failure of one item."""


class Reference:
    """The FIFO pool as a deque, a free count and a set in service."""

    def __init__(self, size):
        self.size = size
        self.waiting = collections.deque()
        self.serving = set()
        self.free = size
        self.started = []
        self.failures = []

    def submit(self, item):
        self.waiting.append(item)

    def start(self, item):
        assert self.free and self.waiting, f"{item} started with no slot"
        assert self.waiting.popleft() == item, "started out of order"
        self.free -= 1
        self.serving.add(item)
        self.started.append(item)

    def end(self, item, failure):
        self.serving.remove(item)
        if failure is None:
            self.free += 1
        else:
            # The connection is lost with its item.
            self.failures.append(failure)


class PoolMachine(RuleBasedStateMachine):

    @initialize(size=st.integers(min_value=1, max_value=3))
    def setup(self, size):
        self.sim = Simulator(check_invariants=True)
        self.pool = ConnectionPool(self.sim, size, self.serve, name="model")
        self.reference = Reference(size)
        self.log = []
        self.kinds = {}
        self.manual = {}
        self.next_item = 0
        self.closed = None

    # -- the pool's serve ----------------------------------------------------

    def serve(self, item):
        self.log.append(("start", item, None))
        kind, value = self.kinds[item]
        if kind == "raises":
            failure = Lost(item)
            self.log.append(("end", item, failure))
            raise failure
        if kind == "manual":
            event = self.manual[item] = self.sim.event()
        elif kind == "timeout":
            event = self.sim.timeout(value)
        else:
            event = self.sim.event()
            event.succeed()
        event.add_callback(self.ended(item))
        return event

    def ended(self, item):
        def record(event):
            self.log.append(("end", item, None if event.ok else event.value))
        return record

    def replay(self):
        for what, item, failure in self.log:
            if what == "start":
                self.reference.start(item)
            else:
                self.reference.end(item, failure)
        self.log.clear()

    # -- rules ---------------------------------------------------------------

    @precondition(lambda self: self.closed is None)
    @rule(kind=st.sampled_from(KINDS),
          delay=st.sampled_from((0.0, 0.5, 1.0)))
    def submit(self, kind, delay):
        item = self.next_item
        self.next_item += 1
        self.kinds[item] = (kind, delay)
        self.reference.submit(item)
        self.pool.submit(item)
        self.replay()

    @rule(index=st.integers(min_value=0), ok=st.booleans())
    def finish(self, index, ok):
        pending = [item for item, event in self.manual.items()
                   if not event.triggered]
        if not pending:
            return
        event = self.manual[pending[index % len(pending)]]
        if ok:
            event.succeed()
        else:
            event.fail(Lost(pending[index % len(pending)]))
        self.replay()

    @rule()
    def close(self):
        self.closed = self.pool.close()
        self.replay()

    @rule()
    def step(self):
        if self.sim.queue_length:
            self.sim.step()
        self.replay()

    # -- invariants ----------------------------------------------------------

    @invariant()
    def at_most_size_in_service(self):
        reference = self.reference
        assert len(reference.serving) + len(reference.failures) \
            <= reference.size

    @invariant()
    def starts_in_submission_order_without_idling(self):
        reference = self.reference
        assert reference.started == sorted(reference.started)
        assert not (reference.waiting and reference.free), \
            "an item waits while a connection is free"

    @invariant()
    def close_fires_after_the_last_item_or_first_failure(self):
        closed, reference = self.closed, self.reference
        if closed is None:
            return
        if reference.failures:
            assert closed.triggered and not closed.ok
            assert closed.value is reference.failures[0]
        else:
            drained = not reference.waiting and not reference.serving
            assert closed.triggered == drained
            assert not closed.triggered or closed.ok

    def teardown(self):
        if not hasattr(self, "pool"):
            return
        self.close()
        while True:
            self.sim.run()
            self.replay()
            pending = [event for event in self.manual.values()
                       if not event.triggered]
            if not pending:
                break
            pending[0].succeed()
            self.replay()
        self.close_fires_after_the_last_item_or_first_failure()
        assert self.closed.triggered
        if not self.reference.failures:
            assert self.reference.started == list(range(self.next_item))


PoolMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None)
TestPoolModel = PoolMachine.TestCase
