"""Cross-layer validation: message-level, flow-level and analytic models.

The library models each collective at three fidelities:

1. **message-level** — the numeric ring exchanging real chunks through a
   cluster-backed communicator whose messages are flows on the network;
2. **flow-level** — :class:`TimedCollectives` placing aggregate hop flows;
3. **analytic** — the α-β cost model.

For symmetric clusters all three must agree on all-reduce duration:
the flow level and the analytic model to float rounding, the message
level within latency-term tolerances.  This is the strongest internal
consistency check the simulator has.
"""

import numpy as np
import pytest

from repro.collectives import (
    TimedCollectives,
    ring_allreduce_worker,
    ring_volume_bytes,
)
from repro.collectives.cost_model import CostParams, ring_allreduce_time_s
from repro.collectives.runner import run_workers
from repro.sim import Communicator, FluidNetwork, Simulator
from repro.sim.topology import Cluster, NodeSpec


def message_level_duration(num_nodes, gpus_per_node, elements):
    """Numeric ring all-reduce over a cluster-backed communicator."""
    sim = Simulator()
    net = FluidNetwork(sim)
    cluster = Cluster(sim, num_nodes,
                      NodeSpec(gpus_per_node=gpus_per_node))
    world = cluster.world_size
    comm = Communicator(sim, size=world, cluster=cluster, network=net)
    rng = np.random.default_rng(0)
    arrays = [rng.normal(size=elements).astype(np.float32)
              for _ in range(world)]
    processes = [
        sim.spawn(ring_allreduce_worker(sim, comm, rank, arrays[rank]))
        for rank in range(world)
    ]
    results = run_workers(sim, processes)
    # Sanity: the reduction is still correct through the timed transport.
    expected = np.sum(arrays, axis=0)
    np.testing.assert_allclose(results[0], expected, rtol=1e-4, atol=1e-4)
    return sim.now


def flow_level_duration(num_nodes, gpus_per_node, size_bytes):
    sim = Simulator()
    net = FluidNetwork(sim)
    cluster = Cluster(sim, num_nodes,
                      NodeSpec(gpus_per_node=gpus_per_node))
    timed = TimedCollectives(sim, net, cluster)
    done = timed.allreduce(size_bytes)
    sim.run(until=done)
    return sim.now


class TestThreeWayAgreement:
    @pytest.mark.parametrize("num_nodes,gpus_per_node", [(2, 2), (4, 2),
                                                         (2, 4)])
    def test_message_level_matches_flow_level(self, num_nodes,
                                              gpus_per_node):
        elements = 2_000_000  # 8 MB fp32
        size_bytes = elements * 4
        message = message_level_duration(num_nodes, gpus_per_node,
                                         elements)
        flow = flow_level_duration(num_nodes, gpus_per_node, size_bytes)
        # The message-level ring pays per-step serialization that the
        # fluid model folds into its α terms; agreement within 35% over
        # a 4x range of topologies validates both.
        assert message == pytest.approx(flow, rel=0.35)

    @pytest.mark.parametrize("size_mb", [1, 8, 64])
    def test_flow_level_matches_analytic(self, size_mb):
        num_nodes, gpus_per_node = 4, 8
        size_bytes = size_mb * 1e6
        sim_time = flow_level_duration(num_nodes, gpus_per_node,
                                       size_bytes)
        params = CostParams.of(Cluster(
            Simulator(), num_nodes, NodeSpec(gpus_per_node=gpus_per_node)))
        analytic = ring_allreduce_time_s(size_bytes, params)
        # The closed form charges the flow level's terms one for one.
        assert sim_time == pytest.approx(analytic, rel=1e-12)

    def test_message_level_bandwidth_sane(self):
        # The measured duration must never beat the per-stream cap.
        elements = 2_000_000
        duration = message_level_duration(2, 2, elements)
        hop_bits = ring_volume_bytes(elements * 4, 4) * 8
        cap = NodeSpec().transport.stream_cap_bps(30e9)
        assert duration >= hop_bits / cap * 0.5  # chunks pipeline 2 links
