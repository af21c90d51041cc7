"""Correctness of the numeric collectives (ring, hierarchical, bcast).

These tests exercise the message-level implementations with real numpy
payloads and compare against the mathematical reduction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import (
    ReduceOp,
    broadcast,
    hierarchical_allreduce,
    ring_allreduce,
)
from repro.errors import CollectiveError


def random_inputs(n_workers, length, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=length) for _ in range(n_workers)]


class TestRingAllReduce:
    @pytest.mark.parametrize("n_workers", [1, 2, 3, 4, 7, 8])
    def test_sum_matches_numpy(self, n_workers):
        arrays = random_inputs(n_workers, 40, seed=n_workers)
        expected = np.sum(arrays, axis=0)
        for result in ring_allreduce(arrays, op=ReduceOp.SUM):
            np.testing.assert_allclose(result, expected, rtol=1e-12)

    def test_min_bit_vector_synchronization(self):
        # Paper §V-A: min over readiness bits -> globally ready mask.
        vectors = [
            np.array([1, 1, 0, 1, 1], dtype=np.uint8),
            np.array([1, 0, 1, 1, 1], dtype=np.uint8),
            np.array([1, 1, 1, 0, 1], dtype=np.uint8),
        ]
        for result in ring_allreduce(vectors, op=ReduceOp.MIN):
            np.testing.assert_array_equal(result, [1, 0, 0, 0, 1])

    def test_max(self):
        arrays = random_inputs(4, 10, seed=1)
        expected = np.max(arrays, axis=0)
        for result in ring_allreduce(arrays, op=ReduceOp.MAX):
            np.testing.assert_allclose(result, expected)

    def test_avg(self):
        arrays = random_inputs(4, 10, seed=2)
        expected = np.mean(arrays, axis=0)
        for result in ring_allreduce(arrays, op=ReduceOp.AVG):
            np.testing.assert_allclose(result, expected)

    def test_short_array_fewer_elements_than_workers(self):
        arrays = random_inputs(8, 3, seed=3)
        expected = np.sum(arrays, axis=0)
        for result in ring_allreduce(arrays):
            np.testing.assert_allclose(result, expected)

    def test_inputs_not_modified(self):
        arrays = random_inputs(3, 10, seed=4)
        originals = [a.copy() for a in arrays]
        ring_allreduce(arrays)
        for array, original in zip(arrays, originals):
            np.testing.assert_array_equal(array, original)

    def test_empty_worker_list_rejected(self):
        with pytest.raises(CollectiveError):
            ring_allreduce([])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(CollectiveError):
            ring_allreduce([np.zeros(3), np.zeros(4)])

    @settings(max_examples=25, deadline=None)
    @given(
        n_workers=st.integers(1, 6),
        length=st.integers(0, 64),
        seed=st.integers(0, 2**16),
    )
    def test_property_sum_equals_numpy(self, n_workers, length, seed):
        arrays = random_inputs(n_workers, length, seed)
        expected = np.sum(arrays, axis=0) if length else np.empty(0)
        for result in ring_allreduce(arrays):
            np.testing.assert_allclose(result, expected, rtol=1e-10,
                                       atol=1e-12)


class TestHierarchicalAllReduce:
    @pytest.mark.parametrize("n_nodes,gpus", [(2, 2), (2, 4), (4, 2), (3, 3)])
    def test_sum_matches_numpy(self, n_nodes, gpus):
        n = n_nodes * gpus
        arrays = random_inputs(n, 50, seed=n)
        expected = np.sum(arrays, axis=0)
        for result in hierarchical_allreduce(arrays, gpus_per_node=gpus):
            np.testing.assert_allclose(result, expected, rtol=1e-12)

    def test_single_node_degenerates_to_ring(self):
        arrays = random_inputs(4, 20, seed=9)
        expected = np.sum(arrays, axis=0)
        for result in hierarchical_allreduce(arrays, gpus_per_node=4):
            np.testing.assert_allclose(result, expected)

    def test_one_gpu_per_node_degenerates_to_ring(self):
        arrays = random_inputs(4, 20, seed=10)
        expected = np.sum(arrays, axis=0)
        for result in hierarchical_allreduce(arrays, gpus_per_node=1):
            np.testing.assert_allclose(result, expected)

    def test_min_op(self):
        arrays = random_inputs(4, 16, seed=11)
        expected = np.min(arrays, axis=0)
        for result in hierarchical_allreduce(arrays, gpus_per_node=2,
                                             op=ReduceOp.MIN):
            np.testing.assert_allclose(result, expected)

    def test_mismatched_node_split_rejected(self):
        arrays = random_inputs(6, 10, seed=12)
        with pytest.raises(CollectiveError):
            hierarchical_allreduce(arrays, gpus_per_node=4)

    @settings(max_examples=15, deadline=None)
    @given(
        n_nodes=st.integers(2, 3),
        gpus=st.integers(2, 3),
        length=st.integers(1, 64),
        seed=st.integers(0, 2**16),
    )
    def test_property_matches_flat_ring(self, n_nodes, gpus, length, seed):
        arrays = random_inputs(n_nodes * gpus, length, seed)
        flat = ring_allreduce(arrays)
        hier = hierarchical_allreduce(arrays, gpus_per_node=gpus)
        for a, b in zip(flat, hier):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)


class TestBroadcast:
    @pytest.mark.parametrize("n_workers", [1, 2, 3, 8])
    def test_all_receive_root_data(self, n_workers):
        rng = np.random.default_rng(30)
        data = rng.normal(size=37)
        slots = [data] + [None] * (n_workers - 1)
        for result in broadcast(slots, root=0):
            np.testing.assert_array_equal(result, data)

    def test_nonzero_root(self):
        rng = np.random.default_rng(31)
        data = rng.normal(size=16)
        slots = [None, None, data, None]
        for result in broadcast(slots, root=2):
            np.testing.assert_array_equal(result, data)

    def test_missing_root_data_rejected(self):
        with pytest.raises(CollectiveError):
            broadcast([None, None], root=0)

    def test_bad_root_rejected(self):
        with pytest.raises(CollectiveError):
            broadcast([np.zeros(2)], root=5)
