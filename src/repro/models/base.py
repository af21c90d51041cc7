"""Workload model descriptions: parameters, layers, gradient schedules.

Gradient communication behaviour depends only on *when* gradients appear
(backward-pass schedule), *how big* they are (tensor bytes), and *how many*
there are — not on the numeric content of training.  A :class:`ModelSpec`
captures exactly those properties for each DNN the paper evaluates
(Table I), plus the GPU occupancy used by the CUDA-stream contention model.

Parameter counts and FLOPs are normalised to the paper's Table I numbers
(see :func:`ModelSpec.scaled_to`), so Table I is reproduced exactly even
where our generated layer tables differ slightly from the authors'
implementations.
"""

from __future__ import annotations

import dataclasses
import functools
import typing as t

from repro.errors import ReproError, require_count, require_real


class ModelSpecError(ReproError):
    """Invalid model description."""


@dataclasses.dataclass(frozen=True)
class ParameterSpec:
    """One trainable tensor (weight or bias) producing one gradient."""

    name: str
    num_elements: int
    dtype_bytes: int = 4

    def __post_init__(self) -> None:
        require_count("num_elements", self.num_elements, 1, ModelSpecError)
        if self.dtype_bytes not in (1, 2, 4, 8):
            raise ModelSpecError(
                f"parameter {self.name!r} has unsupported dtype width "
                f"{self.dtype_bytes}"
            )

    @property
    def nbytes(self) -> int:
        return self.num_elements * self.dtype_bytes


@dataclasses.dataclass(frozen=True)
class LayerSpec:
    """One network layer: its parameters and per-sample forward FLOPs."""

    name: str
    parameters: tuple[ParameterSpec, ...]
    forward_flops: float

    def __post_init__(self) -> None:
        require_real("forward_flops", self.forward_flops, ModelSpecError)

    @property
    def num_parameters(self) -> int:
        return sum(p.num_elements for p in self.parameters)

    @property
    def nbytes(self) -> int:
        return sum(p.nbytes for p in self.parameters)


@dataclasses.dataclass(frozen=True)
class GradientEvent:
    """A point in the backward pass where some gradients become ready.

    ``time_fraction`` is the fraction of total backward time elapsed when
    the gradients of ``layer_index`` are produced (layers emit in reverse
    order: the output layer's gradients appear first).
    """

    time_fraction: float
    layer_index: int
    parameters: tuple[ParameterSpec, ...]


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    """A complete DNN workload description."""

    name: str
    layers: tuple[LayerSpec, ...]
    #: Fraction of GPU SMs busy while compute kernels run; drives the
    #: CUDA-stream contention model (paper §VIII-A: computation-intensive
    #: models limit concurrent communication streams).
    compute_occupancy: float
    #: "CV", "NLP" or "CTR" — controls dataset and unit naming.
    category: str = "CV"
    #: What one sample is called in throughput reports.
    sample_unit: str = "images"
    #: Default per-GPU minibatch (the large-batch setting of §VII-D).
    default_batch_size: int = 64
    #: Dataset the paper trains this model on.
    dataset: str = "imagenet"
    #: FLOPs value printed in the paper's Table I, when it differs from the
    #: timing-model forward FLOPs (the paper counts multiply-adds as one
    #: FLOP for the ResNets but as two elsewhere).
    table_flops: float | None = None

    def __post_init__(self) -> None:
        if not self.layers:
            raise ModelSpecError(f"model {self.name!r} has no layers")
        if require_real("compute_occupancy", self.compute_occupancy,
                        ModelSpecError, positive=True) > 1:
            raise ModelSpecError(
                f"model {self.name!r} compute_occupancy out of (0, 1]"
            )
        names = [p.name for layer in self.layers for p in layer.parameters]
        if len(names) != len(set(names)):
            raise ModelSpecError(
                f"model {self.name!r} has duplicate parameter names"
            )

    # -- aggregate properties ---------------------------------------------

    @property
    def num_parameters(self) -> int:
        """Total trainable elements (the '#Param.s' column of Table I)."""
        return sum(layer.num_parameters for layer in self.layers)

    @property
    def num_gradients(self) -> int:
        """Number of gradient tensors produced per backward pass."""
        return sum(len(layer.parameters) for layer in self.layers)

    @property
    def gradient_bytes(self) -> int:
        """Bytes of gradients exchanged per iteration (fp32)."""
        return sum(layer.nbytes for layer in self.layers)

    @functools.cached_property
    def forward_flops(self) -> float:
        """Per-sample forward FLOPs used by the timing model.

        A sum over the layers that every step reads several times; the
        layers are immutable, so it is computed once per spec.
        """
        return sum(layer.forward_flops for layer in self.layers)

    @property
    def reported_flops(self) -> float:
        """The '#FLOPs' value as printed in the paper's Table I."""
        return self.table_flops if self.table_flops is not None \
            else self.forward_flops

    @property
    def backward_flops(self) -> float:
        """Per-sample backward FLOPs (standard 2x forward estimate)."""
        return 2.0 * self.forward_flops


    def parameters(self) -> list[ParameterSpec]:
        """All parameters in registration (forward) order."""
        return [p for layer in self.layers for p in layer.parameters]

    # -- backward schedule --------------------------------------------------

    def backward_schedule(self) -> list[GradientEvent]:
        """When each layer's gradients appear during the backward pass.

        Backward propagation visits layers in reverse order; each layer's
        share of backward time is proportional to its FLOPs.  A layer's
        gradients become ready when its backward computation *finishes*.
        """
        total = self.backward_flops
        events: list[GradientEvent] = []
        elapsed = 0.0
        for index in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[index]
            elapsed += 2.0 * layer.forward_flops
            if layer.parameters:
                fraction = elapsed / total if total > 0 else 1.0
                events.append(GradientEvent(
                    time_fraction=min(fraction, 1.0),
                    layer_index=index,
                    parameters=layer.parameters,
                ))
        return events

    # -- normalisation ----------------------------------------------------------

    def scaled_to(self, target_parameters: int,
                  target_forward_flops: float) -> "ModelSpec":
        """Uniformly rescale parameter counts and FLOPs to match targets.

        Used to pin generated layer tables to the paper's Table I totals.
        Relative layer sizes — which determine communication behaviour —
        are preserved.
        """
        require_count("target_parameters", target_parameters, 1,
                      ModelSpecError)
        require_real("target_forward_flops", target_forward_flops,
                     ModelSpecError, positive=True)
        param_scale = target_parameters / self.num_parameters
        flop_scale = target_forward_flops / self.forward_flops
        layers = tuple(
            LayerSpec(
                name=layer.name,
                parameters=tuple(
                    ParameterSpec(
                        p.name,
                        max(1, round(p.num_elements * param_scale)),
                        p.dtype_bytes)
                    for p in layer.parameters),
                forward_flops=layer.forward_flops * flop_scale)
            for layer in self.layers)
        return dataclasses.replace(self, layers=layers)
