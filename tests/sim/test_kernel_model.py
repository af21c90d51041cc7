"""Model-based test of the event kernel and its recycled-event pool.

A Hypothesis state machine drives random sequences of kernel
operations through :class:`KernelScenario`:

- spawning processes that wait on a fresh timeout, on a shared event
  or on another process;
- succeeding, failing and heap-scheduling shared events;
- deferred interrupts (:meth:`Simulator.interrupt` with a delay);
- :meth:`Simulator.pooled_event` / :meth:`Simulator.release_event`,
  including releases and direct triggers while the event's heap entry
  is still pending (the ``_scheduled`` balance);
- ``run(until=t)``.

After every step it checks that:

1. the clock never moves backwards;
2. no pooled event fires twice per generation, or with another
   generation's value, or while handed out to a later owner;
3. each waiter resumes at most once per registration, in registration
   order, and a timeout waiter resumes exactly at its deadline.

At the end the simulation is drained: every waiter of a triggered
event that was not interrupted first has resumed exactly once, and
replaying the same operation sequence on a fresh simulator gives the
same logs and the same :meth:`Simulator.state_digest`.
"""

import collections
import itertools

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import ProcessInterrupt
from repro.sim import Simulator

delays = st.sampled_from((0.0, 0.5, 1.0, 2.5))
indices = st.integers(min_value=0)


class Boom(Exception):
    """The failure a shared event carries to its waiters."""


class KernelScenario:
    """Kernel operations with their observable effects logged."""

    def __init__(self):
        self.sim = Simulator(check_invariants=True)
        self.pids = itertools.count()
        self.procs = []
        self.started = set()
        self.shared = []
        #: ``event key -> pids`` in callback-registration order.
        self.registrations = collections.defaultdict(list)
        #: ``event key -> (pid, outcome, time)`` in resume order.
        self.resumes = collections.defaultdict(list)
        #: ``pid -> event key`` it was waiting on when interrupted.
        self.interrupted = {}
        #: ``pid -> deadline`` of its timeout.
        self.deadlines = {}
        self.pooled = []  # (event, generation, due time or None)
        self.generations = itertools.count()
        #: ``generation -> [(time, value)]`` per pooled-event fire.
        self.pool_fires = collections.defaultdict(list)

    # -- processes -----------------------------------------------------------

    def _waiter(self, pid, key, make_target):
        self.started.add(pid)
        target = make_target(pid)
        self.registrations[key].append(pid)
        try:
            yield target
            outcome = "ok"
        except ProcessInterrupt:
            self.interrupted[pid] = key
            return
        except Boom:
            outcome = "failed"
        self.resumes[key].append((pid, outcome, self.sim.now))

    def _spawn(self, key_of, make_target):
        pid = next(self.pids)
        self.procs.append(self.sim.spawn(
            self._waiter(pid, key_of(pid), make_target), name=f"p{pid}"))

    def spawn_timeout_waiter(self, delay):
        def make_target(pid):
            self.deadlines[pid] = self.sim.now + delay
            return self.sim.timeout(delay)
        self._spawn(lambda pid: ("timeout", pid), make_target)

    def spawn_shared_waiter(self, index):
        if self.shared:
            index %= len(self.shared)
            self._spawn(lambda _pid: ("shared", index),
                        lambda _pid: self.shared[index])

    def spawn_joiner(self, index):
        if self.procs:
            index %= len(self.procs)
            self._spawn(lambda _pid: ("proc", index),
                        lambda _pid: self.procs[index])

    def interrupt(self, index, delay):
        victims = [proc for pid, proc in enumerate(self.procs)
                   if pid in self.started]
        if victims:
            self.sim.interrupt(victims[index % len(victims)], "fault",
                               delay=delay)

    # -- shared events -------------------------------------------------------

    def new_shared(self):
        self.shared.append(self.sim.event(name=f"s{len(self.shared)}"))

    def trigger_shared(self, index, ok):
        if not self.shared:
            return
        event = self.shared[index % len(self.shared)]
        if event.triggered:
            return
        if ok:
            event.succeed(index)
        else:
            event.fail(Boom(index))

    def schedule_shared(self, index, delay):
        if self.shared:
            event = self.shared[index % len(self.shared)]
            if not event.triggered:
                self.sim._schedule_at(self.sim.now + delay, event, index)

    # -- pooled events -------------------------------------------------------

    def pooled_schedule(self, delay, trigger_now, release_now):
        """Schedule a pooled event; its owner may trigger it directly
        and hand it back before the heap entry pops."""
        event = self.sim.pooled_event("pooled")
        generation = next(self.generations)
        fires = self.pool_fires[generation]
        event.add_callback(
            lambda ev: fires.append((self.sim.now, ev.value)))
        self.sim._schedule_at(self.sim.now + delay, event, generation)
        self.pooled.append((event, generation, self.sim.now + delay))
        if trigger_now:
            event.succeed(generation)
        if release_now:
            self.sim.release_event(event)

    def _owned(self, index):
        """A pooled event still owned by the generation that took it."""
        if not self.pooled:
            return None
        event, generation, _due = self.pooled[index % len(self.pooled)]
        newest = max(g for ev, g, _ in self.pooled if ev is event)
        if generation != newest or event._pooled:
            return None  # released (and maybe handed out again)
        return event, generation

    def pooled_release(self, index):
        owned = self._owned(index)
        if owned is not None:
            self.sim.release_event(owned[0])

    def pooled_trigger_early(self, index):
        owned = self._owned(index)
        if owned is not None and not owned[0].triggered:
            owned[0].succeed(owned[1])

    # -- clock ---------------------------------------------------------------

    def run_until(self, dt):
        self.sim.run(until=self.sim.now + dt)

    def drain(self):
        self.sim.run()

    def observations(self):
        def logged(log):
            return {key: entries for key, entries in log.items() if entries}
        return (logged(self.registrations), logged(self.resumes),
                self.interrupted, logged(self.pool_fires),
                self.sim.now, self.sim.state_digest())


def _is_ordered_subsequence(part, whole):
    remaining = iter(whole)
    return all(any(item == candidate for candidate in remaining)
               for item in part)


@settings(max_examples=60, stateful_step_count=40, deadline=None)
class KernelMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.scenario = KernelScenario()
        self.script = []
        self.last_now = 0.0

    def _do(self, name, *args):
        self.script.append((name, args))
        getattr(self.scenario, name)(*args)

    @rule(delay=delays)
    def spawn_timeout_waiter(self, delay):
        self._do("spawn_timeout_waiter", delay)

    @rule(index=indices)
    def spawn_shared_waiter(self, index):
        self._do("spawn_shared_waiter", index)

    @rule(index=indices)
    def spawn_joiner(self, index):
        self._do("spawn_joiner", index)

    @rule(index=indices, delay=delays)
    def interrupt(self, index, delay):
        self._do("interrupt", index, delay)

    @rule()
    def new_shared(self):
        self._do("new_shared")

    @rule(index=indices, ok=st.booleans())
    def trigger_shared(self, index, ok):
        self._do("trigger_shared", index, ok)

    @rule(index=indices, delay=delays)
    def schedule_shared(self, index, delay):
        self._do("schedule_shared", index, delay)

    @rule(delay=delays, trigger_now=st.booleans(),
          release_now=st.booleans())
    def pooled_schedule(self, delay, trigger_now, release_now):
        self._do("pooled_schedule", delay, trigger_now, release_now)

    @rule(index=indices)
    def pooled_release(self, index):
        self._do("pooled_release", index)

    @rule(index=indices)
    def pooled_trigger_early(self, index):
        self._do("pooled_trigger_early", index)

    @rule(dt=st.sampled_from((0.0, 0.25, 1.0, 3.0)))
    def run_until(self, dt):
        self._do("run_until", dt)

    # -- invariants ----------------------------------------------------------

    @invariant()
    def clock_is_monotone(self):
        now = self.scenario.sim.now
        assert now >= self.last_now
        self.last_now = now

    @invariant()
    def pooled_events_fire_once_with_their_own_value(self):
        scenario = self.scenario
        for event, generation, due in scenario.pooled:
            fires = scenario.pool_fires[generation]
            assert len(fires) <= 1, (generation, fires)
            for when, value in fires:
                assert value == generation
                assert when <= due
        for event in scenario.sim._event_pool:
            assert event._scheduled == 0 and event.triggered

    @invariant()
    def waiters_resume_once_in_registration_order(self):
        scenario = self.scenario
        for key, resumed in scenario.resumes.items():
            pids = [pid for pid, _outcome, _when in resumed]
            assert len(pids) == len(set(pids)), key
            assert _is_ordered_subsequence(pids,
                                           scenario.registrations[key]), key
            if key[0] == "timeout" and resumed:
                assert resumed == [(key[1], "ok",
                                    scenario.deadlines[key[1]])]
        for pid, key in scenario.interrupted.items():
            assert pid not in [p for p, _o, _w in
                               scenario.resumes.get(key, ())]

    def teardown(self):
        scenario = self.scenario
        scenario.drain()
        self.clock_is_monotone()
        self.pooled_events_fire_once_with_their_own_value()
        self.waiters_resume_once_in_registration_order()
        # A pooled event whose heap entry popped has fired exactly once.
        for _event, generation, _due in scenario.pooled:
            assert len(scenario.pool_fires[generation]) == 1
        triggered = {("shared", i) for i, event in enumerate(scenario.shared)
                     if event.triggered}
        triggered |= {("proc", i) for i, proc in enumerate(scenario.procs)
                      if proc.triggered}
        triggered |= {key for key in scenario.registrations
                      if key[0] == "timeout"}
        for key in triggered:
            expected = [pid for pid in scenario.registrations[key]
                        if scenario.interrupted.get(pid) != key]
            assert [pid for pid, _o, _w in scenario.resumes[key]] == \
                expected, key
        replay = KernelScenario()
        for name, args in self.script:
            getattr(replay, name)(*args)
        replay.drain()
        assert replay.observations() == scenario.observations()


TestKernelModel = KernelMachine.TestCase
