"""Model registry and the paper's Table I.

``get_model(name)`` returns a :class:`ModelSpec` for any workload the
paper evaluates; ``table1()`` reproduces Table I ("DNN model
characteristics") from the registered specs.  Each model is built once
per process: every call gets its own ``ModelSpec`` around the same
immutable layer tree (frozen dataclasses holding only tuples).
"""

from __future__ import annotations

import dataclasses
import functools
import typing as t

from repro.errors import ReproError
from repro.models.base import ModelSpec
from repro.models.ctr import build_ctr
from repro.models.insightface import build_insightface
from repro.models.resnet import build_resnet50, build_resnet101
from repro.models.transformer import (
    build_bert_large,
    build_gpt2_xl,
    build_transformer,
)
from repro.models.vgg import build_vgg16

_BUILDERS: dict[str, t.Callable[[], ModelSpec]] = {
    "vgg16": build_vgg16,
    "resnet50": build_resnet50,
    "resnet101": build_resnet101,
    "transformer": build_transformer,
    "bert-large": build_bert_large,
    "gpt2-xl": build_gpt2_xl,
    "ctr": build_ctr,
    "insightface-r50": build_insightface,
}

#: Models that appear in the paper's Table I, in its print order.
TABLE1_MODELS = ("vgg16", "resnet50", "resnet101", "transformer",
                 "bert-large")


def available_models() -> list[str]:
    """Names of all registered workload models."""
    return sorted(_BUILDERS)


def get_model(name: str) -> ModelSpec:
    """The named workload model: a new spec over its shared layers.

    The layer tree is built on the first call in a process and shared
    by later ones; ``dataclasses.replace`` gives each caller its own
    (re-validated) ``ModelSpec`` instance.
    """
    if name not in _BUILDERS:
        raise ReproError(
            f"unknown model {name!r}; available: {available_models()}")
    return dataclasses.replace(_built(name))


@functools.cache
def _built(name: str) -> ModelSpec:
    return _BUILDERS[name]()


def table1() -> list[dict[str, object]]:
    """Reproduce Table I: model name, #parameters and #FLOPs."""
    rows = []
    for name in TABLE1_MODELS:
        spec = get_model(name)
        rows.append({
            "model": spec.name,
            "parameters": spec.num_parameters,
            "flops": spec.reported_flops,
            "gradients": spec.num_gradients,
            "gradient_bytes": spec.gradient_bytes,
        })
    return rows
