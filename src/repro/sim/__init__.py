"""Discrete-event simulation substrate.

This package replaces the paper's physical testbed (Alibaba GPU cloud,
V100 nodes, 30 Gbps VPC TCP / RDMA) with a deterministic simulator:

- :mod:`repro.sim.kernel` — event loop and virtual clock;
- :mod:`repro.sim.process` — generator-based processes;
- :mod:`repro.sim.resources` — the FIFO counting semaphore;
- :mod:`repro.sim.network` — fluid flow model with max-min fair sharing
  and per-stream rate caps (the mechanism behind the paper's headline
  observation that one TCP stream reaches ≤30% of link bandwidth);
- :mod:`repro.sim.tcp` / :mod:`repro.sim.rdma` — calibrated transports;
- :mod:`repro.sim.topology` — clusters of V100 nodes;
- :mod:`repro.sim.cuda` — GPU compute timing and CUDA-stream contention;
- :mod:`repro.sim.mpi` — per-worker communication daemons;
- :mod:`repro.sim.invariants` — opt-in invariant checking and
  deterministic-replay digests.
"""

from repro.sim.cuda import A100, GPUDevice, GPUSpec, V100
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.invariants import (
    InvariantChecker,
    invariants_enabled_by_env,
)
from repro.sim.faults import (
    BandwidthDegradation,
    FaultInjector,
    FaultPlan,
    LinkFlap,
    NodeCrash,
    Straggler,
)
from repro.sim.kernel import Simulator
from repro.sim.mpi import Communicator
from repro.sim.network import Flow, FluidNetwork, Link
from repro.sim.process import Process
from repro.sim.rdma import RDMA, rdma_transport
from repro.sim.resources import Resource
from repro.sim.tcp import TCP, tcp_transport
from repro.sim.topology import Cluster, NodeSpec, alibaba_v100_cluster
from repro.sim.transport import TransportModel

__all__ = [
    "A100",
    "AllOf",
    "AnyOf",
    "BandwidthDegradation",
    "Cluster",
    "Communicator",
    "Event",
    "FaultInjector",
    "FaultPlan",
    "Flow",
    "FluidNetwork",
    "GPUDevice",
    "GPUSpec",
    "InvariantChecker",
    "Link",
    "LinkFlap",
    "NodeCrash",
    "NodeSpec",
    "Process",
    "RDMA",
    "Resource",
    "Simulator",
    "Straggler",
    "TCP",
    "Timeout",
    "TransportModel",
    "V100",
    "alibaba_v100_cluster",
    "invariants_enabled_by_env",
    "rdma_transport",
    "tcp_transport",
]
