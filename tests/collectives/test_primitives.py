"""Tests for reduce operators and chunking helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.collectives import (
    ReduceOp,
    apply_op,
    chunk_bounds,
    finalize_op,
)
from repro.errors import CollectiveError


class TestApplyOp:
    def test_sum(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0])
        np.testing.assert_array_equal(apply_op(ReduceOp.SUM, a, b), [4.0, 6.0])

    def test_min_on_bit_vector(self):
        # The readiness-synchronization semantics from paper §V-A: a
        # gradient is globally ready only when every worker reports 1.
        a = np.array([1, 0, 1, 1], dtype=np.uint8)
        b = np.array([1, 1, 0, 1], dtype=np.uint8)
        np.testing.assert_array_equal(
            apply_op(ReduceOp.MIN, a, b), [1, 0, 0, 1])

    def test_max(self):
        a = np.array([1.0, 5.0])
        b = np.array([3.0, 4.0])
        np.testing.assert_array_equal(apply_op(ReduceOp.MAX, a, b), [3.0, 5.0])

    def test_prod(self):
        a = np.array([2.0, 3.0])
        b = np.array([4.0, 5.0])
        np.testing.assert_array_equal(
            apply_op(ReduceOp.PROD, a, b), [8.0, 15.0])

    def test_avg_accumulates_as_sum(self):
        a = np.array([1.0])
        b = np.array([3.0])
        np.testing.assert_array_equal(apply_op(ReduceOp.AVG, a, b), [4.0])
        np.testing.assert_array_equal(
            finalize_op(ReduceOp.AVG, np.array([4.0]), 2), [2.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(CollectiveError):
            apply_op(ReduceOp.SUM, np.zeros(2), np.zeros(3))

    def test_finalize_noop_for_sum(self):
        data = np.array([4.0])
        np.testing.assert_array_equal(finalize_op(ReduceOp.SUM, data, 2), data)


class TestChunking:
    def test_even_split(self):
        assert chunk_bounds(6, 3) == [(0, 2), (2, 4), (4, 6)]

    def test_uneven_split_front_loaded(self):
        assert chunk_bounds(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_more_parts_than_elements(self):
        bounds = chunk_bounds(2, 4)
        assert bounds == [(0, 1), (1, 2), (2, 2), (2, 2)]

    def test_zero_total(self):
        assert chunk_bounds(0, 2) == [(0, 0), (0, 0)]

    def test_invalid_parts(self):
        with pytest.raises(CollectiveError):
            chunk_bounds(5, 0)

    def test_negative_total(self):
        with pytest.raises(CollectiveError):
            chunk_bounds(-1, 2)

    @given(total=st.integers(0, 500), parts=st.integers(1, 32))
    def test_bounds_partition_exactly(self, total, parts):
        bounds = chunk_bounds(total, parts)
        assert len(bounds) == parts
        assert bounds[0][0] == 0
        assert bounds[-1][1] == total
        for (lo1, hi1), (lo2, hi2) in zip(bounds, bounds[1:]):
            assert hi1 == lo2
            assert hi1 >= lo1 and hi2 >= lo2
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1
