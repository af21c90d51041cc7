"""Tests for timed collectives over the fluid network.

These verify the performance *mechanism* of the paper: one stream is capped
at the single-stream efficiency of the transport, while concurrent streams
approach the aggregate link capacity.
"""

import pytest

from repro.collectives import TimedCollectives, ring_volume_bytes
from repro.collectives.timed import ALGORITHMS
from repro.collectives.cost_model import CostParams, ring_allreduce_time_s
from repro.errors import CollectiveError
from repro.obs import Observability
from repro.sim import FluidNetwork, Simulator, alibaba_v100_cluster
from repro.sim.topology import Cluster, NodeSpec
from tests.sim.link_usage import link_utilisation


def make_context(num_gpus=16, **cluster_kwargs):
    sim = Simulator()
    net = FluidNetwork(sim)
    cluster = alibaba_v100_cluster(sim, num_gpus, **cluster_kwargs)
    return sim, net, TimedCollectives(sim, net, cluster), cluster


class TestRingTimed:
    def test_single_worker_is_free(self):
        sim, net, timed, _ = make_context(num_gpus=1)
        done = timed.allreduce(100e6)
        sim.run(until=done)
        assert sim.now == pytest.approx(0.0, abs=1e-9)

    def test_single_stream_capped_at_quarter_bandwidth(self):
        # 100 MB over 16 GPUs / 2 nodes; hop volume = 2*S*(n-1)/n.
        sim, net, timed, cluster = make_context(num_gpus=16)
        size = 100e6
        done = timed.allreduce(size)
        sim.run(until=done)
        hop_bits = ring_volume_bytes(size, 16) * 8
        cap = cluster.stream_cap_bps()  # 0.25 * 30 Gbps = 7.5 Gbps
        assert cap == pytest.approx(7.5e9)
        # NIC transfer dominates NVLink; duration >= hop_bits / cap.
        assert sim.now >= hop_bits / cap
        # ... and within 20% of it (latency terms are small at this size).
        assert sim.now == pytest.approx(hop_bits / cap, rel=0.2)

    def test_three_streams_cut_time_roughly_3x(self):
        size = 100e6

        def run_concurrent(k):
            sim, net, timed, _ = make_context(num_gpus=16)
            events = [timed.allreduce(size / k) for _ in range(k)]
            sim.run(until=sim.all_of(events))
            return sim.now

        one = run_concurrent(1)
        three = run_concurrent(3)
        # Same total bytes split over 3 concurrent streams: ~3x faster
        # (3 * 7.5 = 22.5 Gbps is still below the 28.8 Gbps aggregate).
        assert one / three == pytest.approx(3.0, rel=0.15)
        # A 5th stream exceeds the aggregate limit: speedup caps near
        # 28.8 / 7.5 = 3.84, short of the ideal 5.0.
        five = run_concurrent(5)
        assert one / five == pytest.approx(3.84, rel=0.15)
        assert one / five < 4.4

    def test_streams_saturate_at_aggregate_capacity(self):
        size = 120e6

        def run_concurrent(k):
            sim, net, timed, _ = make_context(num_gpus=16)
            events = [timed.allreduce(size / k) for _ in range(k)]
            sim.run(until=sim.all_of(events))
            return sim.now

        four = run_concurrent(4)
        twelve = run_concurrent(12)
        # 4 streams: 4*9=36 > 28.8 Gbps -> already saturated; 12 streams
        # can't go faster (only latency terms grow).
        assert twelve >= four * 0.85

    def test_duration_close_to_analytic_model(self):
        sim, net, timed, cluster = make_context(num_gpus=32)
        size = 64e6
        done = timed.allreduce(size)
        sim.run(until=done)
        analytic = ring_allreduce_time_s(size, CostParams.of(cluster))
        assert sim.now == pytest.approx(analytic, rel=1e-12)

    def test_single_node_uses_nvlink_only(self):
        sim, net, timed, cluster = make_context(num_gpus=8)
        size = 100e6
        done = timed.allreduce(size)
        sim.run(until=done)
        hop_bits = ring_volume_bytes(size, 8) * 8
        expected = hop_bits / cluster.spec.gpu.nvlink_bps
        assert sim.now == pytest.approx(expected, rel=0.3)
        # NVLink is ~40x faster than the NIC path.
        assert sim.now < 0.05

    def test_rejects_unknown_algorithm(self):
        sim, net, timed, _ = make_context()
        with pytest.raises(CollectiveError):
            timed.allreduce(1e6, algorithm="butterfly")

    def test_rejects_negative_size(self):
        sim, net, timed, _ = make_context()
        with pytest.raises(CollectiveError):
            timed.allreduce(-1)

    def test_event_value_is_duration(self):
        sim, net, timed, _ = make_context()
        done = timed.allreduce(10e6)
        sim.run(until=done)
        assert done.value == pytest.approx(sim.now)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_value_and_metric_are_the_exact_duration(self, algorithm):
        # The collective's own event is returned: its value, and the
        # duration metric recorded before any waiter runs, are the
        # clock difference bit for bit, as a wrapping event's were.
        sim = Simulator()
        net = FluidNetwork(sim)
        cluster = alibaba_v100_cluster(sim, 32)
        obs = Observability(enabled=True)
        timed = TimedCollectives(sim, net, cluster, obs=obs)
        sim.run(until=sim.timeout(0.25))
        start = sim.now
        done = timed.allreduce(10e6, algorithm=algorithm)
        seconds = obs.registry.get("allreduce_seconds")
        seen = []
        done.add_callback(lambda _ev: seen.append(
            [(state.count, state.sum) for state in seconds.samples.values()]))
        sim.run(until=done)
        assert done.value == sim.now - start
        assert seen == [[(1, sim.now - start)]]


class TestHierarchicalTimed:
    def test_uses_g_parallel_streams_inter_node(self):
        # With per-stream caps, the hierarchical inter-node phase uses g
        # streams and should beat a single-unit flat ring on large data.
        size = 200e6
        sim1, _, timed1, _ = make_context(num_gpus=16)
        d1 = timed1.allreduce(size, algorithm="ring")
        sim1.run(until=d1)
        ring_time = sim1.now

        sim2, _, timed2, _ = make_context(num_gpus=16)
        d2 = timed2.allreduce(size, algorithm="hierarchical")
        sim2.run(until=d2)
        hier_time = sim2.now
        assert hier_time < ring_time

    def test_single_node_degenerates_to_ring(self):
        sim, net, timed, _ = make_context(num_gpus=8)
        done = timed.allreduce(50e6, algorithm="hierarchical")
        sim.run(until=done)
        sim2, net2, timed2, _ = make_context(num_gpus=8)
        done2 = timed2.allreduce(50e6, algorithm="ring")
        sim2.run(until=done2)
        assert sim.now == pytest.approx(sim2.now)


#: The kinds that place their flows on every node's NIC hops and NVLink
#: fabric, as ``(id, call)``.
SYMMETRIC_COLLECTIVES = (
    ("ring", lambda timed: timed.allreduce(50e6)),
    ("hierarchical", lambda timed: timed.allreduce(50e6, "hierarchical")),
    ("reduce_scatter", lambda timed: timed.reduce_scatter(50e6)),
    ("allgather", lambda timed: timed.allgather(50e6)),
    ("alltoall", lambda timed: timed.alltoall(50e6)),
)


class TestFullLinkPlacement:
    @pytest.mark.parametrize("num_nodes", [4, 16])
    @pytest.mark.parametrize("start", [call for _, call in
                                       SYMMETRIC_COLLECTIVES],
                             ids=[name for name, _ in SYMMETRIC_COLLECTIVES])
    def test_every_nic_carries_node_zeros_load(self, num_nodes, start):
        # On a symmetric cluster every NIC and NVLink fabric carries
        # exactly what node 0's carries, after every event.
        sim = Simulator()
        net = FluidNetwork(sim)
        cluster = Cluster(sim, num_nodes, NodeSpec())
        done = start(TimedCollectives(sim, net, cluster))
        busy = set()

        def check():
            for links in (cluster.nic_out, cluster.nic_in, cluster.nvlink):
                expected = link_utilisation(net, links[0])
                if expected:
                    busy.add(links[0])
                for link in links[1:]:
                    assert link_utilisation(net, link) == expected, \
                        (sim.now, link.name)

        check()
        while not done.triggered:
            sim.step()
            check()
        assert busy == {cluster.nic_out[0], cluster.nic_in[0],
                        cluster.nvlink[0]}

    def test_congested_link_slows_full_ring(self):
        size = 50e6
        sim1 = Simulator()
        net1 = FluidNetwork(sim1)
        healthy = Cluster(sim1, 4, NodeSpec())
        d1 = TimedCollectives(sim1, net1, healthy).allreduce(size)
        sim1.run(until=d1)

        sim2 = Simulator()
        net2 = FluidNetwork(sim2)
        congested = Cluster(sim2, 4, NodeSpec(), congested_links={2: 0.3})
        d2 = TimedCollectives(sim2, net2, congested).allreduce(size)
        sim2.run(until=d2)
        assert sim2.now > sim1.now * 1.5


class TestControlPlane:
    def test_latency_grows_with_nodes(self):
        times = []
        for gpus in (16, 64, 256):
            sim, net, timed, _ = make_context(num_gpus=gpus)
            done = timed.control_roundtrip()
            sim.run(until=done)
            times.append(sim.now)
        assert times[0] < times[1] < times[2]

    def test_single_node_is_cheap(self):
        sim, net, timed, _ = make_context(num_gpus=8)
        done = timed.control_roundtrip()
        sim.run(until=done)
        assert sim.now < 1e-3


class TestTimedBroadcast:
    def test_multi_node_broadcast_time(self):
        sim, net, timed, cluster = make_context(num_gpus=16)
        size = 25e6  # ResNet-50 parameters, one fp32 copy
        done = timed.broadcast(size)
        sim.run(until=done)
        # One stream through the NIC at the 7.5 Gbps cap.
        assert sim.now == pytest.approx(size * 8 / 7.5e9, rel=0.2)
