"""Distributed-training communication backends.

``make_backend(name)`` builds a fresh backend instance:

========================  ====================================================
name                      framework modelled
========================  ====================================================
``aiacc``                 AIACC-Training (this paper)
``horovod``               Horovod v0.23 (master negotiation, fusion buffer)
``pytorch-ddp``           PyTorch v1.10 DistributedDataParallel (buckets)
``byteps``                BytePS v0.2 (co-located parameter servers)
``mxnet-kvstore``         MXNet distributed KVStore (whole-key PS)
========================  ====================================================

``byteps`` and ``mxnet-kvstore`` are two configurations of one
parameter-server model (:mod:`repro.frameworks.parameter_server`).

Backends are single-experiment objects: create a new one per run.
"""

from __future__ import annotations

import typing as t

from repro.errors import ReproError
from repro.frameworks.base import (
    DDLBackend,
    IterationStats,
    ReadyGradient,
    TrainContext,
    UPDATE_TIME_S,
)
from repro.frameworks.horovod import HorovodBackend
from repro.frameworks.parameter_server import (
    BytePSBackend,
    MXNetKVStoreBackend,
)
from repro.frameworks.pytorch_ddp import PyTorchDDPBackend


def _make_aiacc(**kwargs: t.Any) -> DDLBackend:
    from repro.core.engine import AIACCBackend
    from repro.core.runtime import AIACCConfig

    if "config" in kwargs:
        return AIACCBackend(kwargs["config"])
    if kwargs:
        return AIACCBackend(AIACCConfig(**kwargs))
    return AIACCBackend()


_FACTORIES: dict[str, t.Callable[..., DDLBackend]] = {
    "aiacc": _make_aiacc,
    "horovod": HorovodBackend,
    "pytorch-ddp": PyTorchDDPBackend,
    "byteps": BytePSBackend,
    "mxnet-kvstore": MXNetKVStoreBackend,
}


def available_backends() -> list[str]:
    """Names of all registered communication backends."""
    return sorted(_FACTORIES)


def make_backend(name: str, **kwargs: t.Any) -> DDLBackend:
    """Instantiate a fresh backend by name with backend-specific options."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ReproError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from None
    return factory(**kwargs)


__all__ = [
    "BytePSBackend",
    "DDLBackend",
    "HorovodBackend",
    "IterationStats",
    "MXNetKVStoreBackend",
    "PyTorchDDPBackend",
    "ReadyGradient",
    "TrainContext",
    "UPDATE_TIME_S",
    "available_backends",
    "make_backend",
]
