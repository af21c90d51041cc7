"""Regression tests for the kernel's recycled-event pool.

The fluid network schedules one completion wakeup per rate reallocation
and recycles the objects through :meth:`Simulator.pooled_event` /
:meth:`Simulator.release_event`.  The dangerous corner is a released
event whose *stale heap entry* has not popped yet (superseded or
cancelled allocations): reusing such an object would let the stale pop
trigger the recycled event — a double-fire with somebody else's value.
These tests pin the guards that make reuse safe, including under
fault-injected flow cancellation.
"""

import pytest

from repro.sim import FluidNetwork, Link, Simulator


class TestPoolMechanics:
    def test_pooled_event_is_recycled_with_fresh_state(self):
        sim = Simulator()
        event = sim.pooled_event("first")
        sim._schedule_at(1.0, event, "payload")
        sim.run()
        assert event.value == "payload"
        sim.release_event(event)
        recycled = sim.pooled_event("second")
        assert recycled is event
        assert recycled.name == "second"
        assert not recycled.triggered
        assert recycled.callbacks == []

    def test_release_refused_while_heap_entry_pending(self):
        # The satellite-4 fix: a cancellation path may try to return a
        # wakeup whose heap entry has not popped; pooling it would let
        # the stale pop trigger the recycled object.
        sim = Simulator()
        event = sim.pooled_event("wakeup")
        sim._schedule_at(1.0, event, None)
        sim.release_event(event)
        assert sim.pooled_event("other") is not event  # not pooled
        sim.run()  # the stale entry pops and triggers it exactly once
        assert event.triggered
        sim.release_event(event)  # now safe
        assert sim.pooled_event("again") is event

    def test_release_refused_after_direct_trigger_until_entry_pops(self):
        # A scheduled event triggered directly still has its heap entry
        # pending; recycling it then would let the stale pop fire the
        # next owner early.  The kernel settles the balance on the pop.
        sim = Simulator()
        event = sim.pooled_event("wakeup")
        sim._schedule_at(1.0, event, "first")
        event.succeed("early")
        sim.release_event(event)
        assert sim.pooled_event("next") is not event
        sim.run()
        assert event._scheduled == 0
        sim.release_event(event)
        assert sim.pooled_event("again") is event

    def test_double_release_is_idempotent(self):
        sim = Simulator()
        event = sim.pooled_event("once")
        sim._schedule_at(0.5, event, None)
        sim.run()
        sim.release_event(event)
        sim.release_event(event)
        assert len(sim._event_pool) == 1

    def test_reused_event_fires_exactly_once(self):
        sim = Simulator()
        fired = []
        event = sim.pooled_event("gen1")
        event.add_callback(lambda ev: fired.append(("gen1", ev.value)))
        sim._schedule_at(1.0, event, 1)
        sim.run()
        sim.release_event(event)
        again = sim.pooled_event("gen2")
        assert again is event
        again.add_callback(lambda ev: fired.append(("gen2", ev.value)))
        sim._schedule_at(2.0, again, 2)
        sim.run()
        assert fired == [("gen1", 1), ("gen2", 2)]


class TestNetworkWakeupRecycling:
    def test_superseded_wakeups_die_then_recycle(self):
        # Every new allocation supersedes the previous wakeup; the stale
        # entries must pop harmlessly (token mismatch) and the objects
        # must land back in the pool exactly once each.
        sim = Simulator()
        net = FluidNetwork(sim)
        links = [Link(f"l{i}", 1e9) for i in range(4)]
        done = [net.start_flow([link], 1e6) for link in links]
        sim.run(until=sim.all_of(done))
        assert sim.queue_length == 0
        pool = sim._event_pool
        assert pool  # wakeups were recycled
        assert len({id(event) for event in pool}) == len(pool)

    def test_cancelled_flow_does_not_resurrect_stale_wakeup(self):
        # Fault-injected cancellation: the cancelled allocation's wakeup
        # is still in the heap when the survivors re-allocate.  The
        # survivors' completion must be exact and nothing may double
        # fire (a resurrected wakeup would advance progress at a stale
        # rate or trip the already-triggered guard).
        sim = Simulator()
        net = FluidNetwork(sim)
        link = Link("l", 1e9)
        victim = net.start_flow([link], 1e6)
        survivor = net.start_flow([link], 1e6)  # both share the 1 Gb/s link

        def interrupt():
            yield sim.timeout(0.004)
            assert net.cancel_flow(victim)
            assert not net.cancel_flow(victim)  # double cancel: no-op

        sim.spawn(interrupt())
        sim.run(until=survivor)
        # 4ms at half rate (2e6 bits sent) + remaining 6e6 bits at full.
        assert sim.now == pytest.approx(0.004 + 6e6 / 1e9)
        assert not victim.triggered  # hung collective: never fires
        sim.run()
        assert sim.queue_length == 0
        pool = sim._event_pool
        assert len({id(event) for event in pool}) == len(pool)

    def test_cancellation_replay_is_deterministic(self):
        def run_once():
            sim = Simulator(check_invariants=True)
            net = FluidNetwork(sim)
            links = [Link(f"l{i}", 1e9) for i in range(3)]
            flows = [net.start_flow([link], 5e5) for link in links]
            extra = net.start_flow(list(links), 2e5)

            def interrupt():
                yield sim.timeout(0.001)
                assert net.cancel_flow(flows[1])

            sim.spawn(interrupt())
            sim.run(until=sim.all_of([flows[0], flows[2], extra]))
            sim.run()
            return sim.state_digest(), sim.now

        assert run_once() == run_once()
