"""Property-based tests for gradient packing (paper §V).

The packer may slice and merge arbitrarily, but over any random workload
it must preserve four properties:

1. **round-trip** — ``unpack(pack(grads))`` recovers every gradient's
   exact byte count, and never raises the contiguity error;
2. **density** — every emitted unit except possibly the last is full to
   the granularity (within the documented float epsilon), so the unit
   count is the information-theoretic minimum;
3. **order invariance** — packing is a function of the gradient *set*:
   any permutation of the input yields the identical unit sequence
   (workers must agree on communication order without coordination);
4. **conservation** — no bytes are created, dropped or duplicated, and
   no slice strays outside its gradient's extent.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packing import GradientPacker, unpack


@st.composite
def workloads(draw):
    granularity = draw(st.integers(1, 5_000))
    sizes = draw(st.lists(st.integers(1, 20_000), min_size=1, max_size=20))
    return float(granularity), [(grad_id, float(size))
                                for grad_id, size in enumerate(sizes)]


class TestPackingProperties:
    @settings(max_examples=200, deadline=None)
    @given(workload=workloads())
    def test_pack_unpack_round_trip(self, workload):
        granularity, gradients = workload
        units = GradientPacker(granularity).pack(gradients)
        totals = unpack(units)
        assert totals == dict(gradients)

    @settings(max_examples=200, deadline=None)
    @given(workload=workloads())
    def test_units_are_dense(self, workload):
        granularity, gradients = workload
        units = GradientPacker(granularity).pack(gradients)
        for unit in units[:-1]:
            assert unit.nbytes >= granularity * (1 - 1e-9)
            assert unit.nbytes <= granularity * (1 + 1e-9)
        total = sum(size for _, size in gradients)
        assert len(units) == math.ceil(total / granularity - 1e-9)

    @settings(max_examples=100, deadline=None)
    @given(workload=workloads(), seed=st.randoms(use_true_random=False))
    def test_input_order_is_irrelevant(self, workload, seed):
        granularity, gradients = workload
        shuffled = list(gradients)
        seed.shuffle(shuffled)
        baseline = GradientPacker(granularity).pack(gradients)
        permuted = GradientPacker(granularity).pack(shuffled)
        assert baseline == permuted

    @settings(max_examples=200, deadline=None)
    @given(workload=workloads())
    def test_bytes_conserved_and_slices_in_bounds(self, workload):
        granularity, gradients = workload
        sizes = dict(gradients)
        units = GradientPacker(granularity).pack(gradients)
        packed = 0.0
        for unit in units:
            assert unit.slices
            for piece in unit.slices:
                assert piece.nbytes > 0
                assert piece.offset >= 0
                assert piece.offset + piece.nbytes <= \
                    sizes[piece.grad_id] * (1 + 1e-9)
                packed += piece.nbytes
        assert packed == sum(sizes.values())

    @settings(max_examples=100, deadline=None)
    @given(workload=workloads())
    def test_unit_ids_sequential_and_slices_id_ordered(self, workload):
        granularity, gradients = workload
        units = GradientPacker(granularity).pack(gradients)
        assert [u.unit_id for u in units] == list(range(len(units)))
        emitted = [(s.grad_id, s.offset) for u in units for s in u.slices]
        assert emitted == sorted(emitted)

    @settings(max_examples=200, deadline=None)
    @given(granularity=st.floats(1.0, 5_000.0),
           sizes=st.lists(st.floats(1e-3, 20_000.0), min_size=1,
                          max_size=20))
    def test_unit_nbytes_is_the_left_to_right_slice_sum(self, granularity,
                                                        sizes):
        # ``nbytes`` is summed once per unit and cached; it must be the
        # very float the left-to-right slice sum gives, on every read.
        units = GradientPacker(granularity).pack(list(enumerate(sizes)))
        for unit in units:
            expected = sum(s.nbytes for s in unit.slices)
            assert unit.nbytes == expected
            assert unit.nbytes == expected
