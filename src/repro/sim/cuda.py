"""GPU compute and CUDA-stream model.

The paper exploits two GPU properties:

1. Kernels placed on *different CUDA streams* may run concurrently on
   different streaming multiprocessors (SMs) — so communication kernels can
   run alongside backward-pass compute kernels.
2. SMs are a finite resource: "computation-intensive models limit the
   number of CUDA streams that can be executed concurrently for gradient
   communications" (Section VIII-A).

:class:`GPUSpec` describes a device (the evaluation platform uses V100s);
:class:`GPUDevice` turns FLOP counts into simulated compute time and models
SM contention between compute and communication streams.
"""

from __future__ import annotations

import dataclasses
import math

from repro.errors import SimulationError, require_count, require_real


@dataclasses.dataclass(frozen=True)
class GPUSpec:
    """Static description of a GPU model."""

    name: str
    #: Peak single-precision throughput in FLOP/s.
    peak_fp32_flops: float
    #: Number of streaming multiprocessors.
    sm_count: int
    #: Per-GPU NVLink bandwidth (bits/second, effective).
    nvlink_bps: float
    #: Fraction of peak FLOP/s sustained by real training kernels.
    compute_efficiency: float = 0.55
    #: SMs consumed by one communication (copy/reduce) stream.
    sms_per_comm_stream: int = 2
    #: Host-device copy bandwidth (bits/s); PCIe 3.0 x16 effective.
    pcie_bps: float = 13e9 * 8

    def __post_init__(self) -> None:
        require_real("peak_fp32_flops", self.peak_fp32_flops,
                     SimulationError, positive=True)
        require_count("sm_count", self.sm_count, 1, SimulationError)
        if require_real("compute_efficiency", self.compute_efficiency,
                        SimulationError, positive=True) > 1:
            raise SimulationError("compute_efficiency must be in (0, 1]")


#: NVIDIA Tesla V100 (32 GB, NVLink), the paper's evaluation GPU.
#: 15.7 TFLOP/s fp32 peak, 80 SMs, 150 GB/s effective NVLink per GPU.
V100 = GPUSpec(
    name="V100-SXM2-32GB",
    peak_fp32_flops=15.7e12,
    sm_count=80,
    nvlink_bps=150e9 * 8,
)

#: NVIDIA A100 — used by "future high-end GPUs" what-if experiments.
A100 = GPUSpec(
    name="A100-SXM4-80GB",
    peak_fp32_flops=19.5e12,
    sm_count=108,
    nvlink_bps=300e9 * 8,
)


class GPUDevice:
    """Timing/contention model for a single GPU.

    The device does not execute kernels through the event queue itself;
    training engines ask it for durations and stream budgets and advance
    simulated time accordingly.
    """

    def __init__(self, spec: GPUSpec) -> None:
        self.spec = spec

    def compute_time_s(self, flops: float) -> float:
        """Wall-clock seconds to execute ``flops`` of training compute."""
        return require_real("flops", flops, SimulationError) / (
            self.spec.peak_fp32_flops * self.spec.compute_efficiency)

    def max_concurrent_comm_streams(self, compute_occupancy: float) -> int:
        """How many communication streams can actually run concurrently.

        Parameters
        ----------
        compute_occupancy:
            Fraction of SMs kept busy by the model's compute kernels while
            communication overlaps (0 = idle GPU, 1 = fully busy).  Large,
            computation-intensive models have high occupancy and therefore
            leave fewer SMs for communication kernels — reproducing the
            paper's observation that such models limit stream concurrency.
        """
        if require_real("compute_occupancy", compute_occupancy,
                        SimulationError) > 1:
            raise SimulationError(
                f"compute_occupancy must be in [0, 1], got {compute_occupancy}"
            )
        free_sms = self.spec.sm_count * (1.0 - compute_occupancy)
        # Epsilon guards the floor against float residue (0.1 * 80 is
        # 7.999... in binary).
        streams = math.floor(free_sms / self.spec.sms_per_comm_stream
                             + 1e-9)
        # The hardware scheduler always time-slices at least one comm
        # stream even on a saturated device.
        return max(1, streams)

    def effective_streams(self, requested: int, compute_occupancy: float) -> int:
        """Streams that run concurrently given a request of ``requested``."""
        return min(require_count("requested streams", requested, 1,
                                 SimulationError),
                   self.max_concurrent_comm_streams(compute_occupancy))
