"""DNN workload models: layer tables, gradient schedules and datasets.

The specs reproduce the communication-relevant shape of every model the
paper evaluates (Table I plus GPT-2 XL and the production CTR system):
per-layer gradient tensor sizes, backward production order/timing, FLOPs
and GPU occupancy.
"""

from repro.models.base import (
    GradientEvent,
    LayerSpec,
    ModelSpec,
    ModelSpecError,
    ParameterSpec,
)
from repro.models.ctr import build_ctr
from repro.models.insightface import build_insightface
from repro.models.datasets import (
    CTR_PRODUCTION,
    IMAGENET,
    WIKITEXT_EN,
    DatasetSpec,
)
from repro.models.resnet import build_resnet50, build_resnet101
from repro.models.synthetic import random_model_spec
from repro.models.transformer import (
    build_bert_large,
    build_gpt2_xl,
    build_transformer,
)
from repro.models.vgg import build_vgg16
from repro.models.zoo import TABLE1_MODELS, available_models, get_model, table1

__all__ = [
    "CTR_PRODUCTION",
    "DatasetSpec",
    "GradientEvent",
    "IMAGENET",
    "LayerSpec",
    "ModelSpec",
    "ModelSpecError",
    "ParameterSpec",
    "TABLE1_MODELS",
    "WIKITEXT_EN",
    "available_models",
    "build_bert_large",
    "build_ctr",
    "build_insightface",
    "build_gpt2_xl",
    "build_resnet50",
    "build_resnet101",
    "build_transformer",
    "build_vgg16",
    "get_model",
    "random_model_spec",
    "table1",
]
