"""Interrupt-delivery semantics (ISSUE satellite: interrupt coverage).

`ProcessInterrupt` delivered to a waiting / timed-out / resource-holding
process must propagate its cause, release (or withdraw) held resource
slots, and leave the simulator consistent.
"""

import pytest

from repro.errors import ProcessInterrupt, SimulationError
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource


class TestInterruptCause:
    def test_cause_propagates_to_yield_point(self):
        sim = Simulator()
        seen = []

        def victim(sim):
            try:
                yield sim.timeout(10.0)
            except ProcessInterrupt as exc:
                seen.append(exc.cause)
            return "survived"

        proc = sim.spawn(victim(sim))

        def attacker(sim):
            yield sim.timeout(1.0)
            proc.interrupt("node 3 died")

        sim.spawn(attacker(sim))
        sim.run(until=proc)
        assert seen == ["node 3 died"]
        assert proc.ok and proc.value == "survived"
        assert sim.now == pytest.approx(1.0)

    def test_uncaught_interrupt_fails_watched_process(self):
        sim = Simulator()

        def victim(sim):
            yield sim.timeout(10.0)

        proc = sim.spawn(victim(sim))
        proc.add_callback(lambda _ev: None)

        def attacker(sim):
            yield sim.timeout(1.0)
            proc.interrupt("gone")

        sim.spawn(attacker(sim))
        sim.run(until=proc)
        assert not proc.ok
        assert isinstance(proc.value, ProcessInterrupt)
        assert proc.value.cause == "gone"

    def test_interrupting_finished_process_is_error(self):
        sim = Simulator()

        def quick(sim):
            yield sim.timeout(0.1)

        proc = sim.spawn(quick(sim))
        sim.run()
        assert not proc.can_interrupt
        with pytest.raises(SimulationError):
            proc.interrupt("too late")

    def test_deferred_delivery_via_simulator_interrupt(self):
        sim = Simulator()
        seen = []

        def victim(sim):
            try:
                yield sim.timeout(10.0)
            except ProcessInterrupt as exc:
                seen.append(exc.cause)

        proc = sim.spawn(victim(sim))
        sim.interrupt(proc, cause="crash", delay=2.0)
        sim.run(until=proc)
        assert seen == ["crash"]
        assert sim.now == pytest.approx(2.0)

    def test_deferred_delivery_expires_if_victim_finished(self):
        sim = Simulator()

        def quick(sim):
            yield sim.timeout(0.5)
            return "done"

        proc = sim.spawn(quick(sim))
        # Delivery lands after the victim exits; it must be a no-op, not
        # a SimulationError out of the event loop.
        sim.interrupt(proc, cause="crash", delay=5.0)
        sim.run()
        assert proc.ok and proc.value == "done"

    def test_interrupted_process_can_rewait_on_same_event(self):
        sim = Simulator()
        slow = None

        def victim(sim):
            nonlocal slow
            slow = sim.timeout(10.0, value="finally")
            try:
                value = yield slow
            except ProcessInterrupt:
                value = yield slow  # the event stays pending; re-wait
            return value

        proc = sim.spawn(victim(sim))
        sim.interrupt(proc, delay=1.0)
        sim.run(until=proc)
        assert proc.value == "finally"
        assert sim.now == pytest.approx(10.0)


class TestResourceReleaseOnInterrupt:
    def test_holder_releases_slots_via_try_finally(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def holder(sim):
            yield res.acquire()
            try:
                yield sim.timeout(100.0)
            except ProcessInterrupt:
                pass
            finally:
                res.release()

        proc = sim.spawn(holder(sim))
        sim.interrupt(proc, delay=1.0)
        sim.run()
        assert res.in_use == 0
        assert res.capacity - res.in_use == 1

    def test_cancel_withdraws_queued_acquire(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def holder(sim):
            yield res.acquire()
            yield sim.timeout(5.0)
            res.release()

        def waiter(sim):
            request = res.acquire()
            try:
                yield request
            except ProcessInterrupt:
                assert res.cancel(request) is True
                return "withdrew"

        sim.spawn(holder(sim))
        wproc = sim.spawn(waiter(sim))
        sim.interrupt(wproc, delay=1.0)
        sim.run()
        # The withdrawn request must not consume the slot when the
        # holder releases it.
        assert res.in_use == 0
        assert wproc.value == "withdrew"

    def test_cancel_returns_false_after_grant(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def holder(sim):
            request = res.acquire()
            yield request
            assert res.cancel(request) is False  # already granted
            res.release()

        proc = sim.spawn(holder(sim))
        sim.run(until=proc)
        assert res.in_use == 0

    def test_cancel_of_head_waiter_wakes_the_next(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        granted = []

        res.acquire(1)             # 1 of 2 slots taken at once
        big = res.acquire(2)       # queued: needs both slots
        small = res.acquire(1)     # queued behind big (strict FIFO)
        small.add_callback(lambda _ev: granted.append("small"))
        sim.run()
        assert granted == []
        # Withdrawing the oversized head request must unblock the small
        # one immediately.
        assert res.cancel(big) is True
        sim.run()
        assert granted == ["small"]
        assert res.in_use == 2


class TestSimulatorConsistencyAfterInterrupt:
    def test_clock_and_queue_remain_usable(self):
        sim = Simulator()

        def victim(sim):
            try:
                yield sim.timeout(50.0)
            except ProcessInterrupt:
                pass
            yield sim.timeout(1.0)
            return sim.now

        proc = sim.spawn(victim(sim))
        sim.interrupt(proc, delay=2.0)
        sim.run(until=proc)
        assert proc.value == pytest.approx(3.0)
        # The abandoned 50s timeout still drains without error.
        sim.run()
        assert sim.queue_length == 0

    def test_interrupt_during_timed_out_wait(self):
        """Interrupt arriving exactly while a process re-arms a wait."""
        sim = Simulator()
        attempts = []

        def retrier(sim):
            for attempt in range(3):
                try:
                    yield sim.timeout(1.0)
                    attempts.append(attempt)
                except ProcessInterrupt:
                    attempts.append("interrupted")
            return attempts

        proc = sim.spawn(retrier(sim))
        sim.interrupt(proc, delay=1.5)
        sim.run(until=proc)
        assert attempts == [0, "interrupted", 2]
