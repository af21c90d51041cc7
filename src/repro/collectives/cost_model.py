"""Analytic α–β cost models for the collective algorithms.

Each closed form charges, term for term, what the timed executor
charges for the same schedule on a symmetric cluster.  The differential
tests (``tests/collectives/test_differential_cost.py``) hold the
simulation to every form; the multi-tenant cluster's SLO baseline and
shrink tuner (:mod:`repro.cluster.runtime`) score with the ring form.

Notation: ``S`` bytes reduced over ``n`` workers on ``m`` nodes with ``g``
GPUs per node; β terms are bandwidth (bits/s), α terms per-message latency.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import CollectiveError, require_count, require_real

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.topology import Cluster

#: Device-wide synchronization between the macro phases of the
#: hierarchical and planner schedules, charged by the closed forms, the
#: timed executor and the planner alike.  Under backward-pass SM
#: occupancy it costs about a millisecond, which makes the auto-tuner
#: prefer the flat ring on healthy networks (paper §VIII-D).
PHASE_SYNC_S = 2e-3

#: Store-and-forward latency of the in-network aggregation point (FPGA
#: pipeline fill, single-digit microseconds per the SmartNIC paper).
INA_SWITCH_LATENCY_S = 10e-6


@dataclasses.dataclass(frozen=True)
class CostParams:
    """Bandwidth/latency description of one deployment."""

    world_size: int
    num_nodes: int
    #: Bandwidth available to one stream crossing the NIC (bits/s).
    nic_stream_bps: float
    #: Aggregate usable NIC bandwidth (bits/s).
    nic_total_bps: float
    #: Per-GPU NVLink bandwidth (bits/s).
    nvlink_bps: float
    #: Per-message overhead on the inter-node path (s).
    inter_alpha_s: float
    #: One-way intra-node latency (s): each NVLink hop's wire latency
    #: and the per-step cost of an intra-node ring.
    intra_alpha_s: float = 5e-6
    #: One-way inter-node wire latency (s): each NIC hop's tail latency
    #: and the per-round cost of an inter-node exchange.
    inter_latency_s: float = 100e-6
    #: Capacity of the shared (oversubscribed) datacenter core link, or
    #: ``None`` for a non-blocking fabric.
    core_bps: float | None = None

    def __post_init__(self) -> None:
        require_count("world_size", self.world_size, 1, CollectiveError)
        require_count("num_nodes", self.num_nodes, 1, CollectiveError)
        if self.world_size % self.num_nodes != 0:
            raise CollectiveError("world_size must divide across nodes evenly")
        for name in ("nic_stream_bps", "nic_total_bps", "nvlink_bps",
                     "core_bps"):
            if getattr(self, name) is not None:
                require_real(name, getattr(self, name), CollectiveError,
                             positive=True)
        for name in ("inter_alpha_s", "intra_alpha_s", "inter_latency_s"):
            require_real(name, getattr(self, name), CollectiveError)

    @classmethod
    def of(cls, cluster: Cluster) -> CostParams:
        """The deployment ``cluster`` describes, as its node 0 sees it."""
        spec = cluster.spec
        return cls(
            world_size=cluster.world_size,
            num_nodes=cluster.num_nodes,
            nic_stream_bps=cluster.stream_cap_bps(),
            nic_total_bps=cluster.nic_out[0].capacity_bps,
            nvlink_bps=spec.gpu.nvlink_bps,
            inter_alpha_s=spec.transport.per_message_overhead_s,
            intra_alpha_s=spec.intra_node_latency_s,
            inter_latency_s=spec.inter_node_latency_s,
            core_bps=None if cluster.core is None
            else cluster.core.capacity_bps)

    @property
    def gpus_per_node(self) -> int:
        return self.world_size // self.num_nodes


def ring_volume_bytes(size_bytes: float, participants: int) -> float:
    """Bytes crossing each ring hop for an all-reduce of ``size_bytes``."""
    if require_count("participants", participants, 1, CollectiveError) == 1:
        return 0.0
    return 2.0 * size_bytes * (participants - 1) / participants


def ring_allreduce_time_s(size_bytes: float, params: CostParams,
                          streams: int = 1) -> float:
    """Time for a flat topology-aware ring all-reduce of ``size_bytes``.

    The slowest hop drains ``2 S (n-1)/n`` bytes; then ``2 (n-1)`` steps
    pay the overhead their ``S/n`` chunks do not hide, and the pipeline
    fills over ``m`` NIC and ``n - m`` NVLink hops.  ``streams`` > 1
    models AIACC's multi-streamed hop of ``streams`` capped connections.
    """
    n = params.world_size
    m = params.num_nodes
    if n == 1 or size_bytes <= 0:
        return 0.0
    if m == 1:
        return _single_node_time_s(size_bytes, params)
    hop_bits = ring_volume_bytes(size_bytes, n) * 8.0
    drain = hop_bits / _hop_bps(params, streams) + params.inter_latency_s
    if params.gpus_per_node > 1:
        drain = max(drain, hop_bits / params.nvlink_bps
                    + params.intra_alpha_s)
    return drain + 2 * (n - 1) * _exposed_s(size_bytes / n, params) \
        + m * params.inter_latency_s + (n - m) * params.intra_alpha_s


def hierarchical_allreduce_time_s(size_bytes: float,
                                  params: CostParams) -> float:
    """Time for the hierarchical (intra-ring + inter-ring) all-reduce.

    The intra-node reduce-scatter and all-gather wrap one inter-node
    phase of ``g`` parallel rings (one per local rank), each carrying a
    ``1/g`` shard, so it naturally uses ``g`` streams.
    """
    n = params.world_size
    m = params.num_nodes
    g = params.gpus_per_node
    if n == 1 or size_bytes <= 0:
        return 0.0
    if m == 1 or g == 1:
        return ring_allreduce_time_s(size_bytes, params)
    hop_bits = ring_volume_bytes(size_bytes / g, m) * g * 8.0
    rings = hop_bits / _hop_bps(params, g) + params.inter_latency_s \
        + 2 * (m - 1) * (params.inter_latency_s
                         + _exposed_s(size_bytes / (g * m), params))
    return _intra_wrap_time_s(size_bytes, params) + rings


def broadcast_time_s(size_bytes: float, params: CostParams) -> float:
    """Pipelined ring broadcast of ``size_bytes`` to all workers.

    Every hop streams the whole payload at once."""
    if params.world_size == 1 or size_bytes <= 0:
        return 0.0
    if params.num_nodes == 1:
        return size_bytes * 8.0 / params.nvlink_bps + params.intra_alpha_s
    return size_bytes * 8.0 / _hop_bps(params, 1) + params.inter_latency_s


# -- multi-phase closed forms -----------------------------------------------
#
# These mirror, phase for phase, the hierarchical schedule of
# :class:`repro.collectives.timed.TimedCollectives` and the schedules
# synthesized by :class:`repro.collectives.planner.CollectivePlanner`.
# Shared structure: an optional intra-node reduce-scatter / all-gather
# pair, with a device sync at each macro boundary, around an
# algorithm-specific inter-node stage.


def _intra_wrap_time_s(size_bytes: float, params: CostParams) -> float:
    """Intra-node RS + AG phases plus their two macro-boundary syncs;
    each phase pays ``g - 1`` steps and its NVLink hop's latency."""
    g = params.gpus_per_node
    if g == 1:
        return 0.0
    intra_bytes = 2.0 * size_bytes * (g - 1) / g
    return intra_bytes * 8.0 / params.nvlink_bps \
        + 2 * g * params.intra_alpha_s + 2 * PHASE_SYNC_S


def _hop_bps(params: CostParams, streams: int) -> float:
    """Rate of one node's inter-node hop of ``streams`` capped streams
    while every node sends one such hop through the core."""
    bandwidth = min(params.nic_stream_bps * streams, params.nic_total_bps)
    if params.core_bps is not None:
        bandwidth = min(bandwidth, params.core_bps / params.num_nodes)
    return bandwidth


def _exchange_s(per_stream_bytes: float, streams: int,
                params: CostParams) -> float:
    """One planner exchange round of ``streams`` streams per node: wire
    time, the hop's latency, the round's latency and exposed overhead."""
    return per_stream_bytes * streams * 8.0 / _hop_bps(params, streams) \
        + 2 * params.inter_latency_s + _exposed_s(per_stream_bytes, params)


def _exposed_s(per_stream_bytes: float, params: CostParams) -> float:
    """Per-message overhead not hidden behind a stream's wire time."""
    return max(0.0, params.inter_alpha_s
               - per_stream_bytes * 8.0 / params.nic_stream_bps)


def _single_node_time_s(size_bytes: float, params: CostParams) -> float:
    """Every all-reduce degenerates to the NVLink ring on one node:
    ``2 (n-1)`` intra-node steps plus the NVLink hop's latency."""
    n = params.world_size
    return ring_volume_bytes(size_bytes, n) * 8.0 / params.nvlink_bps \
        + (2 * n - 1) * params.intra_alpha_s


def halving_doubling_time_s(size_bytes: float,
                            params: CostParams) -> float:
    """Recursive halving/doubling all-reduce across nodes.

    ``2 log2(m)`` exchange rounds; round ``k`` of the reduce-scatter
    moves ``(S/g) / 2^(k+1)`` bytes per stream, the all-gather mirrors
    the sizes.  Bandwidth-optimal like the ring, but latency scales with
    ``log m`` instead of ``m``.
    """
    m = params.num_nodes
    g = params.gpus_per_node
    if params.world_size == 1 or size_bytes <= 0:
        return 0.0
    if m == 1:
        return _single_node_time_s(size_bytes, params)
    if m & (m - 1):
        raise CollectiveError(
            f"halving-doubling requires a power-of-two node count, got {m}"
        )
    total = _intra_wrap_time_s(size_bytes, params)
    for k in range(m.bit_length() - 1):
        # The AG round mirrors the RS round.
        total += 2 * _exchange_s((size_bytes / g) / (1 << (k + 1)), g,
                                 params)
    return total


def multi_tree_time_s(size_bytes: float, params: CostParams) -> float:
    """Blink-style packed star trees: two inter-node rounds total.

    Each node concurrently serves ``m - 1`` chunk trees of
    ``S / (g m)`` bytes per stream, so the NIC carries ``g (m - 1)``
    streams at once in each of the two phases.
    """
    m = params.num_nodes
    g = params.gpus_per_node
    if params.world_size == 1 or size_bytes <= 0:
        return 0.0
    if m == 1:
        return _single_node_time_s(size_bytes, params)
    return _intra_wrap_time_s(size_bytes, params) \
        + 2 * _exchange_s(size_bytes / (g * m), g * (m - 1), params)


def ina_time_s(size_bytes: float, params: CostParams) -> float:
    """In-network aggregation: one uplink copy, one multicast copy.

    Up phase: every node ships its reduced shard set (``S`` bytes as
    ``g`` streams) to the aggregation point, which reduces at line rate
    on every port (the planner's default aggregator).  Down phase: the
    result crosses the spine once (multicast trunk) and fans out over
    every node's NIC-in concurrently.
    """
    m = params.num_nodes
    g = params.gpus_per_node
    if params.world_size == 1 or size_bytes <= 0:
        return 0.0
    if m == 1:
        return _single_node_time_s(size_bytes, params)
    per_stream = size_bytes / g

    up_time = size_bytes * 8.0 / _hop_bps(params, g) \
        + 1.5 * params.inter_latency_s + _exposed_s(per_stream, params) \
        + INA_SWITCH_LATENCY_S

    # The NIC-in hop pays half the inter-node latency; the trunk crosses
    # only the spine, whose link adds none.
    down_bw = min(params.nic_stream_bps * g, params.nic_total_bps)
    down_time = size_bytes * 8.0 / down_bw + 0.5 * params.inter_latency_s
    if params.core_bps is not None:
        down_time = max(down_time, size_bytes * 8.0 / params.core_bps)
    down_time += params.inter_latency_s + _exposed_s(per_stream, params)

    return _intra_wrap_time_s(size_bytes, params) + up_time + down_time
