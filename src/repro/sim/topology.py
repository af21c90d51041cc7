"""Cluster topology: nodes, GPUs, NICs and the links between them.

The evaluation platform of the paper (Section VII-A) is the Alibaba
``ecs.gn6e-c12g1.24xlarge`` instance: 8× NVLink-enabled 32 GB V100 GPUs per
node, nodes connected by a 30 Gbps VPC TCP/IP network (RDMA in §VIII-D).

A :class:`Cluster` owns the simulator-facing :class:`~repro.sim.network.Link`
objects.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import TopologyError, require_count, require_real
from repro.sim.cuda import GPUDevice, GPUSpec, V100
from repro.sim.kernel import Simulator
from repro.sim.network import Link
from repro.sim.tcp import TCP
from repro.sim.transport import TransportModel

if t.TYPE_CHECKING:
    from repro.autotune.graph_distance import TopologyRecord


@dataclasses.dataclass(frozen=True)
class NodeSpec:
    """Hardware description of one computing node."""

    gpus_per_node: int = 8
    gpu: GPUSpec = V100
    #: Raw NIC bandwidth in bits/second (30 Gbps on the evaluation platform).
    nic_bandwidth_bps: float = 30e9
    transport: TransportModel = TCP
    #: One-way latency between GPUs of the same node over NVLink/PCIe.
    intra_node_latency_s: float = 5e-6
    #: One-way latency between nodes over the datacenter network.
    inter_node_latency_s: float = 100e-6

    def __post_init__(self) -> None:
        require_count("gpus_per_node", self.gpus_per_node, 1, TopologyError)
        require_real("nic_bandwidth_bps", self.nic_bandwidth_bps,
                     TopologyError, positive=True)


class Cluster:
    """A set of identical nodes joined by a non-blocking datacenter fabric.

    Parameters
    ----------
    sim:
        Owning simulator; all links belong to it.
    num_nodes:
        Number of computing nodes.
    node_spec:
        Per-node hardware description.
    congested_links:
        Optional mapping ``node_index -> capacity_fraction`` modelling bursty
        cross-traffic from other cloud tenants: that node's NIC capacity is
        multiplied by the fraction.  Used by the tree-all-reduce experiments.
    core_oversubscription:
        Oversubscription ratio of the datacenter core.  1.0 (default)
        models a non-blocking fabric; ``k > 1`` inserts a shared core
        link of capacity ``num_nodes x NIC / k`` that every inter-node
        flow traverses — the classic leaf-spine oversubscription that
        makes congestion-aware algorithm choice matter.
    """

    def __init__(self, sim: Simulator, num_nodes: int,
                 node_spec: NodeSpec | None = None,
                 congested_links: t.Mapping[int, float] | None = None,
                 core_oversubscription: float = 1.0) -> None:
        self.sim = sim
        self.num_nodes = require_count("num_nodes", num_nodes, 1,
                                       TopologyError)
        self.spec = node_spec or NodeSpec()
        self.congestion = dict(congested_links or {})
        if require_real("core_oversubscription", core_oversubscription,
                        TopologyError) < 1:
            raise TopologyError(
                f"core_oversubscription must be a finite ratio >= 1, "
                f"got {core_oversubscription!r}")
        self.core_oversubscription = core_oversubscription
        for node, fraction in self.congestion.items():
            if not 0 <= node < num_nodes:
                raise TopologyError(f"congested node {node} out of range")
            if require_real("congestion fraction", fraction, TopologyError,
                            positive=True) > 1:
                raise TopologyError("congestion fraction must be in (0, 1]")

        transport = self.spec.transport
        self.nic_out: list[Link] = []
        self.nic_in: list[Link] = []
        for node in range(num_nodes):
            scale = self.congestion.get(node, 1.0)
            raw = self.spec.nic_bandwidth_bps * scale
            capacity = transport.effective_capacity_bps(raw)
            latency = self.spec.inter_node_latency_s / 2
            self.nic_out.append(Link(f"node{node}.nic.out", capacity, latency))
            self.nic_in.append(Link(f"node{node}.nic.in", capacity, latency))
        #: Shared datacenter core (None for a non-blocking fabric).
        self.core: Link | None = None
        if core_oversubscription > 1.0 and num_nodes > 1:
            core_capacity = (num_nodes
                             * transport.effective_capacity_bps(
                                 self.spec.nic_bandwidth_bps)
                             / core_oversubscription)
            self.core = Link("core", core_capacity, latency_s=0.0)
        #: Per-node NVLink fabric, modelled as one shared intra-node link.
        self.nvlink: list[Link] = [
            Link(f"node{node}.nvlink", self.spec.gpu.nvlink_bps,
                 self.spec.intra_node_latency_s)
            for node in range(num_nodes)
        ]
        self.gpu_device = GPUDevice(self.spec.gpu)
        #: Nodes declared dead by a fault injector.  Collectives consult
        #: this set: any collective whose participant set intersects it
        #: stalls forever (like a real NCCL ring with a dead member) and
        #: must be caught by the engine's failure detector.
        self.failed_nodes: set[int] = set()

    # -- failure bookkeeping ---------------------------------------------------

    def fail_node(self, node: int) -> None:
        """Mark ``node`` as crashed.  Idempotent."""
        self._check_node(node)
        self.failed_nodes.add(node)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise TopologyError(f"node {node} out of range")

    # -- rank arithmetic -----------------------------------------------------

    @property
    def world_size(self) -> int:
        """Total number of GPU workers."""
        return self.num_nodes * self.spec.gpus_per_node

    def node_of(self, rank: int) -> int:
        """Node index hosting worker ``rank``."""
        self._check_rank(rank)
        return rank // self.spec.gpus_per_node


    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise TopologyError(
                f"rank {rank} out of range for world size {self.world_size}"
            )

    # -- link selection --------------------------------------------------------

    def stream_cap_bps(self, node: int = 0) -> float:
        """Per-stream rate cap on ``node``'s NIC."""
        scale = self.congestion.get(node, 1.0)
        raw = self.spec.nic_bandwidth_bps * scale
        return self.spec.transport.stream_cap_bps(raw)

    def path_between(self, src_rank: int, dst_rank: int) -> list[Link]:
        """Links traversed by a message from ``src_rank`` to ``dst_rank``."""
        src_node = self.node_of(src_rank)
        dst_node = self.node_of(dst_rank)
        if src_rank == dst_rank:
            return []
        if src_node == dst_node:
            return [self.nvlink[src_node]]
        path = [self.nic_out[src_node], self.nic_in[dst_node]]
        if self.core is not None:
            path.insert(1, self.core)
        return path

    # -- similarity support (autotuner cache) -----------------------------------

    def topology_graph(self) -> TopologyRecord:
        """Complete graph of nodes with bandwidth edge attributes.

        Used by the auto-tuner's settings cache, which matches previously
        seen deployments via graph edit distance (paper Section VI).
        """
        from repro.autotune.graph_distance import TopologyRecord

        return TopologyRecord(
            nodes=tuple((node, {"gpus": self.spec.gpus_per_node,
                                "gpu": self.spec.gpu.name})
                        for node in range(self.num_nodes)),
            edges=tuple(
                (a, b, {"bandwidth": self.spec.nic_bandwidth_bps
                        * min(self.congestion.get(a, 1.0),
                              self.congestion.get(b, 1.0))})
                for a in range(self.num_nodes)
                for b in range(a + 1, self.num_nodes)))


def alibaba_v100_cluster(sim: Simulator, num_gpus: int,
                         transport: TransportModel = TCP,
                         nic_bandwidth_bps: float = 30e9,
                         gpus_per_node: int = 8,
                         gpu: GPUSpec = V100,
                         core_oversubscription: float = 1.0) -> Cluster:
    """Build the paper's evaluation cluster for ``num_gpus`` workers.

    GPUs are packed 8 per node (``ecs.gn6e-c12g1.24xlarge``); ``num_gpus``
    below 8 yields a single partially filled node.
    ``core_oversubscription > 1`` inserts the shared leaf-spine core
    link (see :class:`Cluster`).
    """
    num_gpus = require_count("num_gpus", num_gpus, 1, TopologyError)
    if num_gpus < gpus_per_node:
        gpus_per_node = num_gpus
    if num_gpus % gpus_per_node != 0:
        raise TopologyError(
            f"num_gpus={num_gpus} is not a multiple of "
            f"gpus_per_node={gpus_per_node}"
        )
    spec = NodeSpec(gpus_per_node=gpus_per_node,
                    nic_bandwidth_bps=nic_bandwidth_bps,
                    transport=transport, gpu=gpu)
    return Cluster(sim, num_gpus // gpus_per_node, spec,
                   core_oversubscription=core_oversubscription)
