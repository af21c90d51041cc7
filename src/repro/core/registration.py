"""Gradient registration and the synchronization vector (paper §V-A.1).

"When loading a DNN model, the training worker registers the parameters to
participate in all-reduced gradient aggregation.  This will generate an
n-element gradient synchronization vector ... During gradient
registration, parameters are sorted and assigned a unique index."

Sorting parameter names gives every worker an identical id assignment
without any coordination — the foundation of the decentralized scheme:
workers "implicitly agree on gradient communication order" (§V-B).
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.errors import RegistrationError
from repro.models.base import ModelSpec, ParameterSpec


class GradientRegistry:
    """Sorted parameter registry with a readiness bit vector."""

    def __init__(self) -> None:
        self._specs: dict[str, ParameterSpec] = {}
        self._index: dict[str, int] | None = None
        self._ordered: list[str] = []
        self._vector: np.ndarray | None = None

    # -- registration -----------------------------------------------------

    def register(self, parameter: ParameterSpec) -> None:
        """Register one parameter; must happen before :meth:`freeze`."""
        if self._index is not None:
            raise RegistrationError(
                "cannot register parameters after the registry is frozen"
            )
        if parameter.name in self._specs:
            raise RegistrationError(
                f"parameter {parameter.name!r} registered twice"
            )
        self._specs[parameter.name] = parameter

    def register_model(self, model: ModelSpec) -> None:
        """Register every parameter of ``model``."""
        for parameter in model.parameters():
            self.register(parameter)

    def freeze(self) -> None:
        """Sort parameters, assign ids, allocate the sync vector."""
        if self._index is not None:
            raise RegistrationError("registry already frozen")
        if not self._specs:
            raise RegistrationError("no parameters registered")
        self._ordered = sorted(self._specs)
        self._index = {name: i for i, name in enumerate(self._ordered)}
        self._vector = np.zeros(len(self._ordered), dtype=np.uint8)

    # -- queries -------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._index is not None

    def __len__(self) -> int:
        return len(self._specs)

    def grad_id(self, name: str) -> int:
        """Unique index of a registered parameter."""
        self._require_frozen()
        try:
            return t.cast(dict, self._index)[name]
        except KeyError:
            raise RegistrationError(f"unknown parameter {name!r}") from None


    def ordered_specs(self) -> list[ParameterSpec]:
        """All parameters in gradient-id order."""
        self._require_frozen()
        return [self._specs[name] for name in self._ordered]

    # -- synchronization vector ---------------------------------------------

    @property
    def sync_vector(self) -> np.ndarray:
        """The local readiness bit vector (1 = gradient computed)."""
        self._require_frozen()
        return t.cast(np.ndarray, self._vector)

    def mark_ready(self, name: str) -> int:
        """Set the bit for ``name``; returns its gradient id."""
        grad_id = self.grad_id(name)
        t.cast(np.ndarray, self._vector)[grad_id] = 1
        return grad_id

    def reset_vector(self) -> None:
        """Zero the vector — "before each backward stage, elements ... are
        set to zeros" (§V-A.1)."""
        self._require_frozen()
        t.cast(np.ndarray, self._vector)[:] = 0

    def _require_frozen(self) -> None:
        if self._index is None:
            raise RegistrationError(
                "registry must be frozen before use; call freeze()"
            )
