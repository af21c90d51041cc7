"""Property tests for the topology-aware collective planner.

Two families of properties:

* **numeric** — every planner algorithm's message-level face reduces the
  same values as the flat numeric ring, bit for bit.  Inputs are
  integer-valued float arrays, so every association order of the sum is
  exact and any divergence is a routing/chunking bug, not rounding.
* **timing** — synthesized schedules respect the obvious partial orders:
  cost is monotone in payload size, and never improves when the spine
  gets more oversubscribed (less core bandwidth).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import (
    PLANNER_ALGORITHMS,
    CollectivePlanner,
    ReduceOp,
    TimedCollectives,
    planned_numeric_allreduce,
    ring_allreduce,
)
from repro.errors import CollectiveError
from repro.sim import FluidNetwork, Simulator, alibaba_v100_cluster


def integer_arrays(n_workers, length, seed):
    rng = np.random.default_rng(seed)
    return [rng.integers(-8, 9, size=length).astype(np.float64)
            for _ in range(n_workers)]


def timed_allreduce_s(num_gpus, algorithm, size_bytes,
                      core_oversubscription=1.0):
    sim = Simulator()
    cluster = alibaba_v100_cluster(
        sim, num_gpus, core_oversubscription=core_oversubscription)
    timed = TimedCollectives(sim, FluidNetwork(sim), cluster)
    done = timed.allreduce(size_bytes, algorithm=algorithm)
    sim.run(until=done)
    return sim.now


class TestNumericBitExactness:
    """Planner numeric faces vs the flat ring, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([1, 2, 4, 8, 16]),
           length=st.integers(0, 70),
           seed=st.integers(0, 2**32 - 1))
    def test_halving_doubling_matches_ring(self, n, length, seed):
        arrays = integer_arrays(n, length, seed)
        expected = ring_allreduce(arrays, op=ReduceOp.SUM)
        results = planned_numeric_allreduce("halving-doubling", arrays,
                                            op=ReduceOp.SUM)
        for got, want in zip(results, expected):
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 9),
           length=st.integers(0, 70),
           seed=st.integers(0, 2**32 - 1))
    def test_multi_tree_matches_ring(self, n, length, seed):
        arrays = integer_arrays(n, length, seed)
        expected = ring_allreduce(arrays, op=ReduceOp.SUM)
        results = planned_numeric_allreduce("multi-tree", arrays,
                                            op=ReduceOp.SUM)
        for got, want in zip(results, expected):
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 9),
           length=st.integers(0, 70),
           seed=st.integers(0, 2**32 - 1))
    def test_ina_matches_ring(self, n, length, seed):
        arrays = integer_arrays(n, length, seed)
        expected = ring_allreduce(arrays, op=ReduceOp.SUM)
        results = planned_numeric_allreduce("ina", arrays, op=ReduceOp.SUM)
        for got, want in zip(results, expected):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("algorithm", PLANNER_ALGORITHMS)
    def test_avg_op(self, algorithm):
        arrays = integer_arrays(4, 32, seed=7)
        expected = np.mean(arrays, axis=0)
        for result in planned_numeric_allreduce(algorithm, arrays,
                                                op=ReduceOp.AVG):
            np.testing.assert_allclose(result, expected, rtol=1e-12)

    def test_halving_doubling_rejects_non_power_of_two(self):
        with pytest.raises(CollectiveError):
            planned_numeric_allreduce("halving-doubling",
                                      integer_arrays(3, 8, seed=0))


class TestScheduleProperties:
    """Partial orders every synthesized schedule must respect."""

    @settings(max_examples=15, deadline=None)
    @given(algorithm=st.sampled_from(PLANNER_ALGORITHMS),
           small_mb=st.floats(1.0, 60.0),
           extra_mb=st.floats(0.0, 60.0))
    def test_cost_monotone_in_size(self, algorithm, small_mb, extra_mb):
        small = small_mb * 1e6
        large = small + extra_mb * 1e6
        t_small = timed_allreduce_s(32, algorithm, small)
        t_large = timed_allreduce_s(32, algorithm, large)
        assert t_large >= t_small - 1e-12

    @settings(max_examples=15, deadline=None)
    @given(algorithm=st.sampled_from(PLANNER_ALGORITHMS),
           healthy_over=st.floats(1.0, 4.0),
           extra_over=st.floats(0.0, 4.0))
    def test_cost_non_increasing_in_spine_bandwidth(
            self, algorithm, healthy_over, extra_over):
        # More oversubscription = less spine bandwidth: never faster.
        t_fast_spine = timed_allreduce_s(
            32, algorithm, 64e6, core_oversubscription=healthy_over)
        t_slow_spine = timed_allreduce_s(
            32, algorithm, 64e6,
            core_oversubscription=healthy_over + extra_over)
        assert t_slow_spine >= t_fast_spine - 1e-9

    @pytest.mark.parametrize("algorithm", PLANNER_ALGORITHMS)
    def test_schedule_structure(self, algorithm):
        sim = Simulator()
        cluster = alibaba_v100_cluster(sim, 32, core_oversubscription=2.0)
        planner = CollectivePlanner(cluster)
        schedule = planner.plan(algorithm, 64e6)
        assert schedule.algorithm == algorithm
        assert schedule.phases
        for phase in schedule.phases:
            for flow in phase.flows:
                assert flow.size_bytes >= 0
                assert flow.links

    def test_zero_size_and_single_worker_schedules_empty(self):
        sim = Simulator()
        cluster = alibaba_v100_cluster(sim, 32)
        planner = CollectivePlanner(cluster)
        assert planner.plan("ina", 0.0).phases == ()
        single = alibaba_v100_cluster(Simulator(), 1, gpus_per_node=1)
        assert CollectivePlanner(single).plan("ina", 64e6).phases == ()

    def test_halving_doubling_requires_power_of_two_nodes(self):
        sim = Simulator()
        cluster = alibaba_v100_cluster(sim, 24)  # 3 nodes
        planner = CollectivePlanner(cluster)
        with pytest.raises(CollectiveError):
            planner.plan("halving-doubling", 64e6)
