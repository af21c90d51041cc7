"""Transport-protocol models.

A :class:`TransportModel` captures how efficiently a protocol uses a raw
physical link:

``single_stream_efficiency``
    The fraction of raw link bandwidth one stream/connection can reach.
    Section III of the paper measured this at **≤ 30% for TCP** on the
    Alibaba 30 Gbps VPC and **5–10% for RDMA** — the observation that
    motivates multi-streamed communication.
``aggregate_efficiency``
    The fraction reachable by many concurrent streams (protocol framing,
    congestion control and virtualisation overhead keep it below 1.0).
``per_message_overhead_s``
    Fixed per-message cost (syscall/driver/NIC doorbell); the α term of
    the α–β cost model.
``setup_latency_s``
    One-time cost of opening an additional stream (connection handshake,
    CUDA stream + communicator construction).
"""

from __future__ import annotations

import dataclasses

from repro.errors import NetworkError, require_real


@dataclasses.dataclass(frozen=True)
class TransportModel:
    """Efficiency profile of a network transport protocol."""

    name: str
    single_stream_efficiency: float
    aggregate_efficiency: float
    per_message_overhead_s: float
    setup_latency_s: float
    #: Whether the NIC reads GPU memory directly (GPU-direct RDMA).  On
    #: plain TCP the communication bucket lives in CPU memory (paper
    #: §V-A.2), so each all-reduce unit pays a PCIe staging copy.
    gpu_direct: bool = False

    def __post_init__(self) -> None:
        require_real("per_message_overhead_s", self.per_message_overhead_s,
                     NetworkError)
        require_real("setup_latency_s", self.setup_latency_s, NetworkError)
        if require_real("aggregate_efficiency", self.aggregate_efficiency,
                        NetworkError, positive=True) > 1:
            raise NetworkError("aggregate_efficiency must be in (0, 1]")
        if require_real("single_stream_efficiency",
                        self.single_stream_efficiency, NetworkError,
                        positive=True) > self.aggregate_efficiency:
            raise NetworkError(
                "a single stream cannot beat the aggregate efficiency"
            )

    def stream_cap_bps(self, raw_bandwidth_bps: float) -> float:
        """Per-stream rate cap on a link of ``raw_bandwidth_bps``."""
        return raw_bandwidth_bps * self.single_stream_efficiency

    def effective_capacity_bps(self, raw_bandwidth_bps: float) -> float:
        """Usable aggregate capacity of a link of ``raw_bandwidth_bps``."""
        return raw_bandwidth_bps * self.aggregate_efficiency


