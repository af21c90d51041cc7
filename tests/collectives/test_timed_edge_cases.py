"""Regression tests: timed-collective edge cases and heterogeneous NICs.

Four bug classes pinned here:

* the flat ring's exposed per-chunk overhead was computed from the
  *default* node's per-stream cap even though the pipeline advances at
  the pace of the slowest hop — wrong whenever NIC caps differ;
* degenerate cluster shapes (``gpus_per_node == 1``, single node,
  ``world_size == num_nodes``) where the closed-form cost model used to
  charge phantom NVLink terms;
* zero-byte and single-participant collectives, which must complete at
  zero cost instead of launching empty flows that still pay α terms;
* stalls: a phase chain whose fan-out never drains, or whose cluster
  has a crashed node, must hang like a real NCCL collective — no later
  phase launches and the collective's event never fires;
* non-finite sizes: a NaN size once ran a planner all-reduce to
  completion (every flow failed the planner's ``size_bytes > 0``
  filter), and would add a phase-list memo entry per call, since NaN
  never equals itself as a key.
"""

import math

import pytest

from repro.collectives import ALGORITHMS, PLANNER_ALGORITHMS, TimedCollectives
from repro.collectives.planner import CollectivePlanner
from repro.collectives.cost_model import (
    CostParams,
    hierarchical_allreduce_time_s,
    ring_allreduce_time_s,
)
from repro.sim import FluidNetwork, Simulator, alibaba_v100_cluster
from repro.sim.network import FlowBundle
from repro.errors import CollectiveError
from repro.sim.topology import Cluster, NodeSpec


def make_context(num_gpus, congested_links=None, gpus_per_node=8):
    sim = Simulator()
    net = FluidNetwork(sim)
    if congested_links:
        cluster = Cluster(sim, num_gpus // gpus_per_node,
                          NodeSpec(gpus_per_node=gpus_per_node),
                          congested_links=congested_links)
    else:
        cluster = alibaba_v100_cluster(sim, num_gpus,
                                       gpus_per_node=gpus_per_node)
    return sim, TimedCollectives(sim, net, cluster), cluster


class TestHeterogeneousNicCaps:
    """Exposed overhead must be paced by the slowest hop, not node 0's."""

    def test_slowest_cap_helper_scans_all_hops(self):
        _sim, timed, cluster = make_context(
            32, congested_links={2: 0.5})
        assert timed._wire_plan().slowest_base == cluster.stream_cap_bps(2)
        assert cluster.stream_cap_bps(2) < cluster.stream_cap_bps(0)

    @pytest.mark.parametrize("algorithm", ["ring", "hierarchical"])
    def test_ring_invariant_under_congested_node_relabeling(
            self, algorithm):
        # A ring is rotationally symmetric: congesting node 0 and
        # congesting node 1 are the same deployment with nodes renamed,
        # so completion times must match exactly.  The old code read the
        # per-chunk cap from node 0 only, so the two runs disagreed
        # whenever node 0 happened (not) to be the congested one.
        times = []
        for node in (0, 1):
            sim, timed, _cluster = make_context(
                32, congested_links={node: 0.25})
            done = timed.allreduce(4e6, algorithm=algorithm)
            sim.run(until=done)
            times.append(sim.now)
        assert times[0] == pytest.approx(times[1], rel=1e-12)

    def test_congested_hop_slows_the_ring(self):
        sim, timed, _cluster = make_context(32)
        done = timed.allreduce(4e6)
        sim.run(until=done)
        healthy = sim.now
        sim, timed, _cluster = make_context(32, congested_links={1: 0.25})
        done = timed.allreduce(4e6)
        sim.run(until=done)
        assert sim.now > healthy


class TestDegenerateShapeDifferential:
    """Closed forms vs simulation at the corner shapes.

    The closed forms charge the executor's terms one for one, so they
    agree to float rounding here too (``test_differential_cost.BAND``).
    """

    PAYLOADS = [16e6, 100e6]

    @pytest.mark.parametrize("payload", PAYLOADS)
    @pytest.mark.parametrize("num_nodes", [2, 4, 8])
    def test_world_size_equals_num_nodes(self, num_nodes, payload):
        # One GPU per node: no NVLink phase exists on either side.
        sim, timed, cluster = make_context(num_nodes, gpus_per_node=1)
        done = timed.allreduce(payload, algorithm="ring")
        sim.run(until=done)
        analytic = ring_allreduce_time_s(payload, CostParams.of(cluster))
        assert sim.now == pytest.approx(analytic, rel=1e-12)

    @pytest.mark.parametrize("payload", PAYLOADS)
    def test_hierarchical_degrades_to_ring_at_g1(self, payload):
        sim, timed, cluster = make_context(4, gpus_per_node=1)
        done = timed.allreduce(payload, algorithm="hierarchical")
        sim.run(until=done)
        analytic = hierarchical_allreduce_time_s(
            payload, CostParams.of(cluster))
        assert sim.now == pytest.approx(analytic, rel=1e-12)

    @pytest.mark.parametrize("payload", PAYLOADS)
    @pytest.mark.parametrize("num_gpus", [4, 8])
    def test_single_node(self, num_gpus, payload):
        sim, timed, cluster = make_context(num_gpus)
        done = timed.allreduce(payload, algorithm="ring")
        sim.run(until=done)
        analytic = ring_allreduce_time_s(payload, CostParams.of(cluster))
        assert sim.now == pytest.approx(analytic, rel=1e-12)

    def test_zero_bytes_is_free_in_both_models(self):
        sim, timed, cluster = make_context(32)
        params = CostParams.of(cluster)
        assert ring_allreduce_time_s(0.0, params) == 0.0
        assert hierarchical_allreduce_time_s(0.0, params) == 0.0
        done = timed.allreduce(0.0)
        sim.run(until=done)
        assert sim.now == 0.0

    def test_single_worker_is_free_in_both_models(self):
        sim, timed, cluster = make_context(1, gpus_per_node=1)
        params = CostParams.of(cluster)
        assert ring_allreduce_time_s(64e6, params) == 0.0
        done = timed.allreduce(64e6)
        sim.run(until=done)
        assert sim.now == 0.0


class TestZeroAndSingleParticipant:
    """Degenerate collectives complete instantly, without flows."""

    ALGORITHMS = ["ring", "hierarchical", "halving-doubling",
                  "multi-tree", "ina"]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_zero_byte_allreduce_every_algorithm(self, algorithm):
        sim, timed, _cluster = make_context(32)
        done = timed.allreduce(0.0, algorithm=algorithm)
        sim.run(until=done)
        assert sim.now == 0.0
        assert done.value == 0.0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_single_worker_allreduce_every_algorithm(self, algorithm):
        sim, timed, _cluster = make_context(1, gpus_per_node=1)
        done = timed.allreduce(128e6, algorithm=algorithm)
        sim.run(until=done)
        assert sim.now == 0.0

    def test_zero_byte_allreduce_still_counted_in_telemetry(self):
        from repro.obs import Observability

        obs = Observability(enabled=True)
        sim = Simulator()
        cluster = alibaba_v100_cluster(sim, 32)
        timed = TimedCollectives(sim, FluidNetwork(sim), cluster, obs=obs)
        done = timed.allreduce(0.0)
        sim.run(until=done)
        counter = obs.registry.counter("allreduce_total", "")
        assert counter.value(algorithm="ring") == 1

    def test_zero_byte_broadcast_and_friends(self):
        sim, timed, _cluster = make_context(32)
        for op in (timed.broadcast, timed.alltoall,
                   timed.reduce_scatter, timed.allgather):
            done = op(0.0)
            sim.run(until=done)
        assert sim.now == 0.0

    def test_single_worker_broadcast_and_friends(self):
        sim, timed, _cluster = make_context(1, gpus_per_node=1)
        for op in (timed.broadcast, timed.alltoall,
                   timed.reduce_scatter, timed.allgather):
            done = op(64e6)
            sim.run(until=done)
        assert sim.now == 0.0

    def test_nonzero_collectives_cost_time(self):
        # Guard the guard: real payloads on a real cluster still pay.
        for op_name in ("broadcast", "alltoall", "reduce_scatter",
                        "allgather"):
            sim, timed, _cluster = make_context(32)
            done = getattr(timed, op_name)(64e6)
            sim.run(until=done)
            assert sim.now > 0.0, op_name

    def test_negative_size_rejected(self):
        from repro.errors import CollectiveError

        _sim, timed, _cluster = make_context(32)
        with pytest.raises(CollectiveError):
            timed.allreduce(-1.0)


class TestChainStall:
    """A hierarchical all-reduce is a three-phase chain; stalls hang it."""

    def context(self):
        sim = Simulator()
        net = FluidNetwork(sim)
        cluster = Cluster(sim, 4, NodeSpec(gpus_per_node=2))
        launched = []
        start_flows = net.start_flows

        def recording(requests, **kwargs):
            # A bundle request launches one member per link set.
            launched.append([tuple(members) for links, *_rest in requests
                             for members in (links if isinstance(
                                 links, FlowBundle) else [links])])
            return start_flows(requests, **kwargs)

        net.start_flows = recording
        return sim, net, cluster, TimedCollectives(sim, net, cluster), \
            launched

    @staticmethod
    def hops(cluster):
        m = cluster.num_nodes
        return [(cluster.nic_out[i], cluster.nic_in[(i + 1) % m])
                for i in range(m)]

    def test_cancelled_phase_two_flow_stalls_the_chain(self):
        sim, net, cluster, timed, launched = self.context()
        done = timed.allreduce(8e6, "hierarchical")
        assert launched == [[(link,) for link in cluster.nvlink]]
        while len(launched) < 2:
            sim.step()
        hops = self.hops(cluster)
        assert launched[1] == hops
        (flow,) = [flow for flow in net.flows
                   if hops[0] in flow.member_link_sets()]
        assert net.cancel_flow(flow.done)
        sim.run()
        # No phase-3 NVLink flow launched, and the event never fired.
        assert len(launched) == 2
        assert not net.flows
        assert not done.triggered

    def test_healthy_chain_runs_three_phases(self):
        sim, _net, cluster, timed, launched = self.context()
        done = timed.allreduce(8e6, "hierarchical")
        sim.run(until=done)
        nvlink = [(link,) for link in cluster.nvlink]
        assert launched == [nvlink, self.hops(cluster), nvlink]

    def test_crashed_node_stalls_before_any_flow(self):
        sim, net, cluster, timed, launched = self.context()
        cluster.fail_node(2)
        done = timed.allreduce(8e6, "hierarchical")
        assert done.name == "allreduce.hierarchical.stalled"
        sim.run()
        assert launched == [] and not net.flows
        assert not done.triggered


BAD_SIZES = (math.nan, math.inf, -1.0)

#: Every sized entry point: each all-reduce algorithm, the other
#: collectives and the control-plane ring pass.
ENTRY_POINTS = {
    **{f"allreduce-{algorithm}":
       (lambda algorithm: lambda timed, size: timed.allreduce(
           size, algorithm=algorithm))(algorithm)
       for algorithm in ALGORITHMS},
    "broadcast": lambda timed, size: timed.broadcast(size),
    "alltoall": lambda timed, size: timed.alltoall(size),
    "reduce_scatter": lambda timed, size: timed.reduce_scatter(size),
    "allgather": lambda timed, size: timed.allgather(size),
    "control_roundtrip": lambda timed, size: timed.control_roundtrip(size),
}


class TestNonFiniteSizes:
    """Negative and non-finite sizes fail before anything is built."""

    @pytest.mark.parametrize("size", BAD_SIZES, ids=repr)
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_timed_entry_points_reject(self, entry, size):
        sim, timed, _cluster = make_context(32)
        with pytest.raises(CollectiveError, match="size_bytes"):
            ENTRY_POINTS[entry](timed, size)
        assert timed._plans == {} and timed.phase_plans_built == 0
        assert not timed.network.flows and sim.events_scheduled == 0

    @pytest.mark.parametrize("size", BAD_SIZES, ids=repr)
    @pytest.mark.parametrize("algorithm", PLANNER_ALGORITHMS)
    def test_planner_rejects(self, algorithm, size):
        _sim, _timed, cluster = make_context(32)
        with pytest.raises(CollectiveError, match="size_bytes"):
            CollectivePlanner(cluster).plan(algorithm, size)

    def test_rejected_before_the_stall_check(self):
        # A dead node stalls a valid collective, but a bad size is an
        # input error whatever the cluster's state.
        _sim, timed, cluster = make_context(32)
        cluster.fail_node(1)
        with pytest.raises(CollectiveError):
            timed.allreduce(math.nan, algorithm="ina")
        assert not timed.allreduce(8e6, algorithm="ina").triggered
