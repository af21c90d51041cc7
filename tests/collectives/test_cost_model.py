"""Tests for the analytic α-β cost models."""

import math

import pytest

from repro.collectives.cost_model import (
    CostParams,
    broadcast_time_s,
    hierarchical_allreduce_time_s,
    ring_allreduce_time_s,
    ring_volume_bytes,
)
from repro.errors import CollectiveError
from repro.sim import Simulator, alibaba_v100_cluster


def params(world=32, nodes=4, stream=7.5e9, total=28.8e9, **fields):
    fields = {"nvlink_bps": 150e9 * 8, "inter_alpha_s": 25e-6, **fields}
    return CostParams(
        world_size=world, num_nodes=nodes,
        nic_stream_bps=stream, nic_total_bps=total, **fields,
    )


class TestParams:
    def test_of_maps_the_cluster(self):
        cluster = alibaba_v100_cluster(Simulator(), 32,
                                       core_oversubscription=2.0)
        spec = cluster.spec
        assert CostParams.of(cluster) == params(
            world=32, nodes=4, stream=cluster.stream_cap_bps(),
            total=cluster.nic_out[0].capacity_bps,
            nvlink_bps=spec.gpu.nvlink_bps,
            inter_alpha_s=spec.transport.per_message_overhead_s,
            intra_alpha_s=spec.intra_node_latency_s,
            inter_latency_s=spec.inter_node_latency_s,
            core_bps=cluster.core.capacity_bps)

    def test_of_non_blocking_fabric_has_no_core(self):
        cluster = alibaba_v100_cluster(Simulator(), 16)
        assert CostParams.of(cluster).core_bps is None

    @pytest.mark.parametrize("field,overrides", [
        ("nic_stream_bps", {"stream": 0.0}),
        ("nic_stream_bps", {"stream": math.nan}),
        ("nic_total_bps", {"total": math.inf}),
        ("nvlink_bps", {"nvlink_bps": -1.0}),
        ("core_bps", {"core_bps": 0.0}),
        ("inter_alpha_s", {"inter_alpha_s": math.inf}),
        ("inter_alpha_s", {"inter_alpha_s": -1e-6}),
        ("intra_alpha_s", {"intra_alpha_s": math.nan}),
        ("inter_latency_s", {"inter_latency_s": -1.0}),
    ])
    def test_bad_bandwidth_or_latency_is_a_typed_error(self, field,
                                                       overrides):
        # Each once surfaced as a ZeroDivisionError, a NaN or inf time,
        # or a silently accepted negative bandwidth.
        with pytest.raises(CollectiveError, match=field):
            params(**overrides)

    def test_zero_latency_is_accepted(self):
        p = params(inter_alpha_s=0.0, intra_alpha_s=0.0, inter_latency_s=0.0)
        assert ring_allreduce_time_s(100e6, p) == \
            ring_volume_bytes(100e6, 32) * 8 / 7.5e9


class TestRingVolume:
    def test_classic_formula(self):
        assert ring_volume_bytes(100, 4) == pytest.approx(150.0)

    def test_single_participant_free(self):
        assert ring_volume_bytes(100, 1) == 0.0

    def test_approaches_2s(self):
        assert ring_volume_bytes(100, 1000) == pytest.approx(200, rel=0.01)

    def test_invalid_participants(self):
        with pytest.raises(CollectiveError):
            ring_volume_bytes(100, 0)


class TestRingTime:
    def test_single_worker_free(self):
        assert ring_allreduce_time_s(1e6, params(world=1, nodes=1)) == 0.0

    def test_bandwidth_term_dominates_large_sizes(self):
        p = params()
        size = 100e6
        time = ring_allreduce_time_s(size, p)
        data_term = ring_volume_bytes(size, 32) * 8 / 7.5e9
        assert time == pytest.approx(data_term, rel=0.05)

    def test_multi_stream_scales_until_total(self):
        p = params()
        one = ring_allreduce_time_s(100e6, p, streams=1)
        three = ring_allreduce_time_s(100e6, p, streams=3)
        ten = ring_allreduce_time_s(100e6, p, streams=10)
        assert one / three == pytest.approx(3.0, rel=0.05)
        # 10 streams capped by the aggregate: 28.8/7.5 = 3.84x.
        assert one / ten == pytest.approx(3.84, rel=0.05)

    def test_single_node_uses_nvlink(self):
        p = params(world=8, nodes=1)
        time = ring_allreduce_time_s(100e6, p)
        assert time < 0.01

    def test_alpha_term_matters_for_tiny_messages(self):
        p = params()
        time = ring_allreduce_time_s(64, p)
        # Dominated by 2*(n-1) message latencies.
        assert time > 2 * 31 * 25e-6 * 0.9

    def test_world_not_divisible_rejected(self):
        with pytest.raises(CollectiveError):
            params(world=10, nodes=4)


class TestHierarchicalTime:
    def test_degenerates_on_single_node(self):
        p = params(world=8, nodes=1)
        assert hierarchical_allreduce_time_s(1e6, p) == \
            ring_allreduce_time_s(1e6, p)

    def test_uses_g_streams_inter_node(self):
        p = params()
        hier = hierarchical_allreduce_time_s(100e6, p)
        ring = ring_allreduce_time_s(100e6, p, streams=1)
        # 8 parallel shard rings beat a single-stream flat ring.
        assert hier < ring

    def test_positive_for_tiny_sizes(self):
        assert hierarchical_allreduce_time_s(64, params()) > 0


class TestBroadcastTime:
    def test_single_worker_free(self):
        assert broadcast_time_s(1e6, params(world=1, nodes=1)) == 0.0

    def test_multi_node_stream_limited(self):
        p = params()
        time = broadcast_time_s(100e6, p)
        assert time == pytest.approx(100e6 * 8 / 7.5e9, rel=0.01)

    def test_single_node_nvlink(self):
        p = params(world=8, nodes=1)
        assert broadcast_time_s(100e6, p) < 0.01
