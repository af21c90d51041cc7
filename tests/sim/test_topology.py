"""Tests for topology features (core oversubscription)."""

import math

import pytest

from repro.collectives import TimedCollectives
from repro.errors import TopologyError
from repro.sim import FluidNetwork, Simulator, alibaba_v100_cluster
from repro.sim.topology import Cluster, NodeSpec
from repro.training.trainer import run_training


class TestClusterBasics:
    def test_world_size_and_rank_math(self):
        sim = Simulator()
        cluster = alibaba_v100_cluster(sim, 32)
        assert cluster.world_size == 32
        assert cluster.num_nodes == 4
        assert cluster.node_of(17) == 2

    def test_rank_out_of_range(self):
        sim = Simulator()
        cluster = alibaba_v100_cluster(sim, 8)
        with pytest.raises(TopologyError):
            cluster.node_of(8)

    def test_partial_node_allowed_below_eight(self):
        sim = Simulator()
        cluster = alibaba_v100_cluster(sim, 4)
        assert cluster.world_size == 4
        assert cluster.num_nodes == 1

    def test_indivisible_gpu_count_rejected(self):
        sim = Simulator()
        with pytest.raises(TopologyError):
            alibaba_v100_cluster(sim, 12)

    def test_path_between_same_node_uses_nvlink(self):
        sim = Simulator()
        cluster = alibaba_v100_cluster(sim, 16)
        path = cluster.path_between(0, 3)
        assert path == [cluster.nvlink[0]]

    def test_path_between_nodes_uses_nics(self):
        sim = Simulator()
        cluster = alibaba_v100_cluster(sim, 16)
        path = cluster.path_between(0, 9)
        assert path == [cluster.nic_out[0], cluster.nic_in[1]]

    def test_topology_graph_shape(self):
        sim = Simulator()
        cluster = alibaba_v100_cluster(sim, 32)
        graph = cluster.topology_graph()
        assert len(graph.nodes) == 4
        assert len(graph.edges) == 6  # complete graph K4


class TestOversubscription:
    def test_core_link_created(self):
        sim = Simulator()
        cluster = Cluster(sim, 8, NodeSpec(), core_oversubscription=4.0)
        assert cluster.core is not None
        # Core capacity = m * NIC_effective / factor.
        expected = 8 * 0.96 * 30e9 / 4.0
        assert cluster.core.capacity_bps == pytest.approx(expected)

    def test_nonblocking_has_no_core(self):
        sim = Simulator()
        cluster = Cluster(sim, 8, NodeSpec())
        assert cluster.core is None

    def test_core_in_inter_node_paths(self):
        sim = Simulator()
        cluster = Cluster(sim, 4, NodeSpec(), core_oversubscription=2.0)
        path = cluster.path_between(0, 9)
        assert cluster.core in path

    def test_oversubscription_slows_concurrent_allreduces(self):
        def run(factor):
            sim = Simulator()
            net = FluidNetwork(sim)
            cluster = Cluster(sim, 8, NodeSpec(),
                              core_oversubscription=factor)
            timed = TimedCollectives(sim, net, cluster)
            events = [timed.allreduce(20e6) for _ in range(8)]
            sim.run(until=sim.all_of(events))
            return sim.now

        assert run(4.0) > 2.5 * run(1.0)

    @pytest.mark.parametrize("ratio", [0.5, math.nan, math.inf])
    def test_invalid_factor_rejected(self, ratio):
        sim = Simulator()
        with pytest.raises(TopologyError, match="core_oversubscription"):
            Cluster(sim, 4, NodeSpec(), core_oversubscription=ratio)

    @pytest.mark.parametrize("ratio", [math.nan, math.inf])
    def test_non_finite_factor_rejected_through_run_training(self, ratio):
        with pytest.raises(TopologyError, match="core_oversubscription"):
            run_training("resnet50", "aiacc", 16, measure_iterations=1,
                         warmup_iterations=0, core_oversubscription=ratio)
