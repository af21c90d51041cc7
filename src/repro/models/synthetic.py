"""Synthetic workload generator.

Random-but-realistic :class:`~repro.models.base.ModelSpec` instances for
property-based testing and tuner robustness studies: layer sizes follow a
log-normal distribution (like real DNNs, where a few tensors dominate),
FLOPs correlate with parameter counts through a configurable reuse
factor, and the gradient production schedule inherits the usual
reverse-layer order.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError, require_count, require_real
from repro.models.base import LayerSpec, ModelSpec, ParameterSpec


def random_model_spec(
    seed: int,
    num_layers: int = 24,
    total_parameters: int = 50_000_000,
    total_forward_flops: float = 20e9,
    size_spread: float = 1.5,
    compute_occupancy: float | None = None,
    name: str | None = None,
) -> ModelSpec:
    """Generate a random workload with the given totals.

    Parameters
    ----------
    size_spread:
        Sigma of the log-normal layer-size distribution; 0 gives equal
        layers, 2+ gives VGG-like domination by a few huge tensors.
    """
    num_layers = require_count("num_layers", num_layers, 1, ReproError)
    # At least one parameter per layer.
    require_count("total_parameters", total_parameters, num_layers, ReproError)
    require_real("total_forward_flops", total_forward_flops, ReproError,
                 positive=True)
    require_real("size_spread", size_spread, ReproError)
    rng = np.random.default_rng(seed)

    weights = rng.lognormal(mean=0.0, sigma=size_spread, size=num_layers)
    sizes = np.maximum(
        1, (weights / weights.sum() * total_parameters).astype(np.int64))
    flop_weights = rng.lognormal(mean=0.0, sigma=size_spread / 2,
                                 size=num_layers)
    flops = flop_weights / flop_weights.sum() * total_forward_flops

    layers = []
    for index in range(num_layers):
        params = [ParameterSpec(f"layer{index:03d}.weight",
                                int(sizes[index]))]
        if rng.random() < 0.5 and sizes[index] > 64:
            bias = max(1, int(sizes[index] ** 0.5))
            params.append(ParameterSpec(f"layer{index:03d}.bias", bias))
        layers.append(LayerSpec(f"layer{index:03d}", tuple(params),
                                float(flops[index])))

    occupancy = compute_occupancy if compute_occupancy is not None \
        else float(rng.uniform(0.3, 0.9))
    return ModelSpec(
        name=name or f"synthetic-{seed}",
        layers=tuple(layers),
        compute_occupancy=occupancy,
        category="CV",
        sample_unit="samples",
        default_batch_size=32,
        dataset="imagenet",
    )
