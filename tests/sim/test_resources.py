"""Tests for Resource."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.resources import Resource


class TestResource:
    def test_capacity_validation(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_acquire_release_cycle(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        log = []

        def worker(label, hold):
            yield resource.acquire()
            log.append((label, "in", sim.now))
            yield sim.timeout(hold)
            log.append((label, "out", sim.now))
            resource.release()

        sim.spawn(worker("a", 2.0))
        sim.spawn(worker("b", 1.0))
        sim.run()
        assert log == [
            ("a", "in", 0.0),
            ("a", "out", 2.0),
            ("b", "in", 2.0),
            ("b", "out", 3.0),
        ]

    def test_parallel_slots(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        done_times = []

        def worker():
            yield resource.acquire()
            yield sim.timeout(1.0)
            resource.release()
            done_times.append(sim.now)

        for _ in range(4):
            sim.spawn(worker())
        sim.run()
        assert done_times == [1.0, 1.0, 2.0, 2.0]

    def test_numpy_int_counts_are_taken_as_ints(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        resource.acquire(np.int64(2))
        assert resource.in_use == 2 and type(resource.in_use) is int
        resource.release(np.int64(2))
        assert resource.in_use == 0 and type(resource.in_use) is int

    def test_release_idle_raises(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            resource.release()

    def test_resize_wakes_waiters(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        entered = []

        def worker(label):
            yield resource.acquire()
            entered.append((label, sim.now))
            yield sim.timeout(10.0)
            resource.release()

        sim.spawn(worker("a"))
        sim.spawn(worker("b"))

        def grow():
            yield sim.timeout(1.0)
            resource.resize(2)

        sim.spawn(grow())
        sim.run()
        assert entered == [("a", 0.0), ("b", 1.0)]
