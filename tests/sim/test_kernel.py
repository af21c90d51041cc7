"""Tests for the discrete-event kernel, events and processes."""

import pytest

from repro.errors import ProcessInterrupt, SimulationError
from repro.sim import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    fired = []
    sim.timeout(2.5).add_callback(lambda ev: fired.append(sim.now))
    sim.run()
    assert fired == [2.5]
    assert sim.now == 2.5


def test_timeout_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_timeout_rejects_nan_delay():
    # A NaN delay used to fire first and set the clock to NaN.
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(float("nan"))
    assert sim.queue_length == 0


@pytest.mark.parametrize("when", (float("nan"), -1.0),
                         ids=("nan", "past"))
def test_schedule_rejects_nan_and_past_times(when):
    sim = Simulator()
    sim.run(until=sim.timeout(0.5))
    with pytest.raises(SimulationError):
        sim._schedule_at(when, sim.event(), None)
    with pytest.raises(SimulationError):
        sim.at(when)
    assert sim.queue_length == 0 and sim.now == 0.5


def test_at_fires_at_the_absolute_time_successive_timeouts_reach():
    delays = (0.1, 0.2, 0.3, 1e-17, 0.7)
    sim = Simulator()

    def sleeper():
        for delay in delays:
            yield sim.timeout(delay)
        return sim.now

    slept = sim.spawn(sleeper())
    sim.run()

    sim = Simulator()
    when = sim.now
    for delay in delays:
        when = when + delay
    woke = sim.at(when, value="woke")
    sim.run()
    assert woke.value == "woke"
    assert sim.now == slept.value
    assert sim.events_scheduled == 1


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    for delay in (3.0, 1.0, 2.0):
        sim.timeout(delay, value=delay).add_callback(
            lambda ev: order.append(ev.value))
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_ties_broken_by_insertion_order():
    sim = Simulator()
    order = []
    for label in "abc":
        sim.timeout(1.0, value=label).add_callback(
            lambda ev: order.append(ev.value))
    sim.run()
    assert order == ["a", "b", "c"]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_value_before_trigger_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        _ = sim.event().value


def test_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_run_until_time():
    sim = Simulator()
    fired = []
    sim.timeout(1.0).add_callback(lambda ev: fired.append(1))
    sim.timeout(5.0).add_callback(lambda ev: fired.append(5))
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0


def test_run_until_event():
    sim = Simulator()
    target = sim.timeout(3.0)
    sim.timeout(10.0)
    sim.run(until=target)
    assert sim.now == 3.0


def test_run_until_past_raises():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_step_on_empty_queue_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_all_of_collects_values():
    sim = Simulator()
    combined = sim.all_of([sim.timeout(1, value="a"), sim.timeout(2, value="b")])
    sim.run()
    assert combined.value == ["a", "b"]
    assert sim.now == 2


def test_all_of_empty_triggers_immediately():
    sim = Simulator()
    combined = sim.all_of([])
    assert combined.triggered
    assert combined.value == []


def test_any_of_returns_first():
    sim = Simulator()
    first = sim.any_of([sim.timeout(5, value="slow"), sim.timeout(1, value="fast")])
    sim.run(until=first)
    assert first.value == (1, "fast")


def test_any_of_requires_events():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.any_of([])


class TestProcesses:
    def test_return_value(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(1.0)
            return "done"

        proc = sim.spawn(worker())
        sim.run()
        assert proc.value == "done"
        assert not proc.alive

    def test_yield_receives_event_value(self):
        sim = Simulator()
        seen = []

        def worker():
            value = yield sim.timeout(1.0, value=42)
            seen.append(value)

        sim.spawn(worker())
        sim.run()
        assert seen == [42]

    def test_sequential_timeouts_accumulate(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)
            return sim.now

        proc = sim.spawn(worker())
        sim.run()
        assert proc.value == 3.0

    def test_process_joins_process(self):
        sim = Simulator()

        def child():
            yield sim.timeout(2.0)
            return "child-result"

        def parent():
            result = yield sim.spawn(child())
            return result

        proc = sim.spawn(parent())
        sim.run()
        assert proc.value == "child-result"

    def test_failed_event_raises_inside_process(self):
        sim = Simulator()

        def worker():
            event = sim.event()
            sim.timeout(1.0).add_callback(
                lambda ev: event.fail(RuntimeError("boom")))
            try:
                yield event
            except RuntimeError as exc:
                return f"caught {exc}"

        proc = sim.spawn(worker())
        sim.run()
        assert proc.value == "caught boom"

    def test_unhandled_crash_propagates_when_unobserved(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(1.0)
            raise ValueError("unobserved crash")

        sim.spawn(worker())
        with pytest.raises(ValueError):
            sim.run()

    def test_observed_crash_fails_the_process_event(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1.0)
            raise ValueError("observed crash")

        def parent():
            try:
                yield sim.spawn(child())
            except ValueError:
                return "handled"

        proc = sim.spawn(parent())
        sim.run()
        assert proc.value == "handled"

    def test_yielding_non_event_fails_process(self):
        sim = Simulator()

        def parent():
            def bad():
                yield 123

            try:
                yield sim.spawn(bad())
            except SimulationError:
                return "rejected"

        proc = sim.spawn(parent())
        sim.run()
        assert proc.value == "rejected"

    def test_interrupt_thrown_at_yield_point(self):
        sim = Simulator()

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except ProcessInterrupt as interrupt:
                return interrupt.cause

        proc = sim.spawn(sleeper())

        def interrupter():
            yield sim.timeout(1.0)
            proc.interrupt(cause="node-failure")

        sim.spawn(interrupter())
        sim.run(until=proc)
        assert proc.value == "node-failure"
        assert sim.now == 1.0

    def test_interrupt_finished_process_raises(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(0.1)

        proc = sim.spawn(quick())
        sim.run()
        with pytest.raises(SimulationError):
            proc.interrupt()

    def test_spawn_requires_generator(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.spawn(lambda: None)

    def test_spawn_order_does_not_skew_time(self):
        sim = Simulator()
        starts = []

        def worker(label):
            starts.append((label, sim.now))
            yield sim.timeout(1.0)

        sim.spawn(worker("a"))
        sim.spawn(worker("b"))
        sim.run()
        assert starts == [("a", 0.0), ("b", 0.0)]
