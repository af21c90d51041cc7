"""Regression tests for the kernel's recycled-event pool and the
fluid network's wakeup timer.

:meth:`Simulator.pooled_event` / :meth:`Simulator.release_event`
recycle one-shot events.  The dangerous corner is a released event
whose *stale heap entry* has not popped yet: reusing such an object
would let the stale pop trigger the recycled event — a double-fire with
somebody else's value.  The first class pins the guards that make reuse
safe.

The fluid network schedules one completion wakeup per rate
reallocation, all on one reusable timer; a newer allocation or a
fault-injected flow cancellation leaves stale entries in the heap.  The
second class pins that those pop as no-ops.
"""

import gc
import weakref

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


def record_wakeups(net):
    """Spy on the timer: ``(token, current)`` per popped entry."""
    pops = []
    on_wakeup = net._on_wakeup

    def spy(token):
        pops.append((token, token == net._wakeup_token))
        on_wakeup(token)

    net._on_wakeup = spy
    return pops


def record_advances(net):
    """Spy on progress advances: the clock at each call."""
    times = []
    advance = net._advance_progress

    def spy():
        times.append(net.sim.now)
        advance()

    net._advance_progress = spy
    return times


class TestNetworkWakeupRecycling:
    def test_superseded_wakeups_pop_harmlessly(self):
        # Every new allocation supersedes the previous wakeup; the stale
        # entries pop first (same instant, scheduled earlier) and do
        # nothing, and the last one completes every flow.  The timer
        # owns no heap entry once the run drains, and the network never
        # touches the kernel's event pool.
        sim = Simulator()
        net = FluidNetwork(sim)
        pops = record_wakeups(net)
        links = [Link(f"l{i}", 1e9) for i in range(4)]
        done = [net.start_flow([link], 1e6) for link in links]
        advances = record_advances(net)
        sim.run(until=sim.all_of(done))
        assert pops == [(1, False), (2, False), (3, False), (4, True)]
        assert advances == [8e6 / 1e9]  # the current wakeup only
        assert [event.value for event in done] == [8e6 / 1e9] * 4
        sim.run()
        assert sim.queue_length == 0
        assert net._timer._scheduled == 0
        assert sim._event_pool == []

    def test_drained_network_is_freed_by_reference_counting(self):
        # The timer points back at its network only while an entry is
        # pending, so a drained network is no reference cycle: it goes
        # as soon as the last reference does, without a collection.
        sim = Simulator()
        net = FluidNetwork(sim)
        net.start_flow([Link("l", 1e9)], 1e6)
        sim.run()
        assert net._timer._network is None
        gone = weakref.ref(net)
        gc.disable()
        try:
            del net
            assert gone() is None
        finally:
            gc.enable()

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
        assert net._timer._scheduled == 0
        assert sim._event_pool == []

    def test_cancelled_allocation_wakeup_never_advances(self):
        # Two stale entries pop while the survivor is still live (it
        # ends at 4 + 14 = 18 ms after the cancel): the victim-alone
        # wakeup at 8 ms, superseded when the survivor started, and the
        # victim's half-rate completion at 16 ms, superseded by the
        # cancel.  Neither may advance progress.
        sim = Simulator()
        net = FluidNetwork(sim)
        link = Link("l", 1e9)
        victim = net.start_flow([link], 1e6)
        survivor = net.start_flow([link], 2e6)
        pops = record_wakeups(net)
        advances = record_advances(net)

        def interrupt():
            yield sim.timeout(0.004)
            assert net.cancel_flow(victim)

        sim.spawn(interrupt())
        sim.run()
        assert pops == [(1, False), (2, False), (3, True)]
        assert advances == pytest.approx([0.004, 0.018])
        assert survivor.value == pytest.approx(0.018)
        assert net._timer._scheduled == 0

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
