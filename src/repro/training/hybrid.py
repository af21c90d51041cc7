"""Hybrid data + model parallelism (paper §VIII-D, Fig. 13).

"Fig. 13 shows the performance for applying AIACC-Training to ResNet-50
using a hybrid data and model parallelism ... AIACC-Training consistently
improves the MXNet DDL implementation, improving the throughput by 2.8x
when using 64 GPUs."

Model parallelism splits each layer across ``model_parallel_degree`` GPUs
inside a node (over NVLink).  Consequences for the simulation:

* each GPU holds ``1/k`` of the parameters → its gradient all-reduce
  volume shrinks by ``k`` (slices reduce with same-slice peers);
* each GPU executes ``1/k`` of the FLOPs per sample;
* every layer boundary exchanges activations inside the node, adding an
  NVLink communication term proportional to batch size.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import TrainingError, require_count
from repro.frameworks.base import DDLBackend
from repro.models.base import ModelSpec
from repro.models.zoo import get_model
from repro.training.trainer import ThroughputResult, run_training
from repro.sim.cuda import V100


@dataclasses.dataclass(frozen=True)
class HybridPlan:
    """How one model is split across data- and model-parallel dimensions."""

    model: ModelSpec
    model_parallel_degree: int
    #: Activation bytes crossing the intra-node fabric per sample per
    #: direction (both the forward scatter and backward gather).
    activation_bytes_per_sample: float

    def __post_init__(self) -> None:
        require_count("model_parallel_degree", self.model_parallel_degree, 1,
                      TrainingError)

    def per_gpu_spec(self) -> ModelSpec:
        """The per-GPU shard: 1/k of parameters and FLOPs."""
        k = self.model_parallel_degree
        if k == 1:
            return self.model
        return self.model.scaled_to(
            max(1, self.model.num_parameters // k),
            self.model.forward_flops / k,
        )

    def activation_exchange_time_s(self, batch: int,
                                   nvlink_bps: float) -> float:
        """NVLink time for one iteration's activation scatter+gather."""
        if self.model_parallel_degree == 1:
            return 0.0
        total_bytes = 2.0 * self.activation_bytes_per_sample * batch
        return total_bytes * 8.0 / nvlink_bps


def make_hybrid_plan(model: str | ModelSpec,
                     model_parallel_degree: int) -> HybridPlan:
    """Build a hybrid plan with a standard activation-volume estimate.

    Activations per sample are estimated at 4 bytes x 8 x #parameters^0.75
    — a fit that yields ~25 MB/sample for ResNet-50 at 224x224, matching
    profiler numbers for fp32 training.
    """
    spec = get_model(model) if isinstance(model, str) else model
    activation_bytes = 4.0 * 8.0 * spec.num_parameters ** 0.75
    return HybridPlan(
        model=spec,
        model_parallel_degree=model_parallel_degree,
        activation_bytes_per_sample=activation_bytes,
    )


def run_hybrid_training(model: str | ModelSpec, backend: str | DDLBackend,
                        num_gpus: int, model_parallel_degree: int = 2,
                        **train_kwargs: object) -> ThroughputResult:
    """Simulate hybrid-parallel training; returns group-level throughput.

    ``num_gpus`` counts physical GPUs; every ``model_parallel_degree``
    consecutive GPUs of a node form one model-parallel group that behaves
    like a single data-parallel worker with sharded parameters.
    """
    plan = make_hybrid_plan(model, model_parallel_degree)
    k = plan.model_parallel_degree
    if num_gpus % k != 0:
        raise TrainingError(
            f"num_gpus={num_gpus} not divisible by "
            f"model_parallel_degree={k}"
        )
    batch = plan.model.default_batch_size
    shard_spec = plan.per_gpu_spec()
    exchange = plan.activation_exchange_time_s(batch, V100.nvlink_bps)
    result = run_training(
        shard_spec, backend, num_gpus,
        batch_per_gpu=batch,
        extra_forward_time_s=exchange,
        **t.cast(dict, train_kwargs),
    )
    # A group of k GPUs jointly processes `batch` samples, so the
    # per-physical-GPU sample share is batch / k.
    return dataclasses.replace(
        result, batch_per_gpu=max(1, batch // k))
