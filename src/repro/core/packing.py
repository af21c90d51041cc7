"""Gradient packing: forming all-reduce units (paper §V Gradient packing).

"Because the tensor size of gradients can vary, and the optimal
communication granularity depends on the communication network, the
AIACC-Training runtime may choose to split the tensor into multiple units
or merge multiple tensors across multiple synchronized gradients to form
a suitable all-reduce unit."

Packing is deterministic across workers: synchronized gradients are
processed in gradient-id order, so "all workers also implicitly agree on
gradient communication order" without any extra coordination.

Unlike Horovod's fusion buffer, units may contain *slices* of a tensor —
a 410 MB VGG fc6 gradient becomes ~26 units of 16 MB that can ride 26
concurrent streams instead of crawling through one.
"""

from __future__ import annotations

import dataclasses
import functools
import typing as t

import numpy as np

from repro.errors import PackingError, require_real
from repro.models.base import ParameterSpec

#: Minimum slice size, as a fraction of the packing granularity.  Byte
#: counts are floats, so closing a unit at *exact* granularity lets
#: accumulated rounding error leave a ~1e-10-byte residue of "room" that
#: would be emitted as a degenerate :class:`TensorSlice` (and, worse, the
#: residue can be below the float epsilon of ``current_bytes`` so adding
#: it is a no-op and packing stalls).  Units are therefore closed once
#: within ``granularity * SLICE_EPSILON_FRACTION`` of full, and residues
#: below that epsilon are absorbed into the preceding slice.
SLICE_EPSILON_FRACTION = 1e-9


@dataclasses.dataclass(frozen=True)
class TensorSlice:
    """A contiguous byte range of one gradient tensor."""

    grad_id: int
    offset: float
    nbytes: float

    def __post_init__(self) -> None:
        require_real("slice offset", self.offset, PackingError)
        require_real("slice nbytes", self.nbytes, PackingError, positive=True)


@dataclasses.dataclass(frozen=True)
class AllReduceUnit:
    """One unit of communication: a bundle of tensor slices."""

    unit_id: int
    slices: tuple[TensorSlice, ...]

    @functools.cached_property
    def nbytes(self) -> float:
        return sum(s.nbytes for s in self.slices)


class GradientPacker:
    """Splits/merges synchronized gradients into all-reduce units."""

    def __init__(self, granularity_bytes: float) -> None:
        self.granularity_bytes = float(require_real(
            "granularity_bytes", granularity_bytes, PackingError,
            positive=True))
        self._next_unit_id = 0

    def pack(self, gradients: t.Sequence[tuple[int, float]]
             ) -> list[AllReduceUnit]:
        """Pack ``(grad_id, nbytes)`` pairs into all-reduce units.

        Gradients are processed in id order; tensors larger than the
        granularity are sliced, smaller ones merged.  Every unit except
        possibly the last is ``granularity_bytes`` within a relative
        tolerance of :data:`SLICE_EPSILON_FRACTION`: byte counts are
        floats, and demanding *exact* fullness would emit degenerate
        sub-epsilon residue slices (or stall outright when the residue
        falls below the accumulator's float epsilon).
        """
        if not gradients:
            return []
        seen: set[int] = set()
        for grad_id, nbytes in gradients:
            if grad_id in seen:
                raise PackingError(f"gradient {grad_id} packed twice")
            if nbytes <= 0:
                raise PackingError(f"gradient {grad_id} has no bytes")
            seen.add(grad_id)

        epsilon = self.granularity_bytes * SLICE_EPSILON_FRACTION
        units: list[AllReduceUnit] = []
        current: list[TensorSlice] = []
        current_bytes = 0.0
        for grad_id, nbytes in sorted(gradients):
            offset = 0.0
            remaining = float(nbytes)
            while remaining > 0:
                room = self.granularity_bytes - current_bytes
                take = min(remaining, room)
                if remaining - take <= epsilon:
                    # Never leave a sub-epsilon tail of this gradient for
                    # the next unit: absorb it into this slice instead of
                    # emitting a degenerate residue slice later.
                    take = remaining
                current.append(TensorSlice(grad_id, offset, take))
                current_bytes += take
                offset += take
                remaining -= take
                if self.granularity_bytes - current_bytes <= epsilon:
                    units.append(self._emit(current))
                    current = []
                    current_bytes = 0.0
        if current:
            units.append(self._emit(current))
        return units

    def _emit(self, slices: list[TensorSlice]) -> AllReduceUnit:
        unit = AllReduceUnit(self._next_unit_id, tuple(slices))
        self._next_unit_id += 1
        return unit


def unpack(units: t.Sequence[AllReduceUnit]) -> dict[int, float]:
    """Regroup unit slices back into whole tensors (§V-B "unpack").

    Returns ``{grad_id: total_bytes}`` and validates slice contiguity —
    the inverse of :meth:`GradientPacker.pack`.
    """
    pieces: dict[int, list[TensorSlice]] = {}
    for unit in units:
        for piece in unit.slices:
            pieces.setdefault(piece.grad_id, []).append(piece)
    totals: dict[int, float] = {}
    for grad_id, slices in pieces.items():
        slices.sort(key=lambda s: s.offset)
        position = 0.0
        for piece in slices:
            if abs(piece.offset - position) > 1e-6:
                raise PackingError(
                    f"gradient {grad_id} has a gap/overlap at byte "
                    f"{position:g} (slice starts at {piece.offset:g})"
                )
            position += piece.nbytes
        totals[grad_id] = position
    return totals


class PlanPoint(t.NamedTuple):
    """One backward schedule point of a :class:`BackwardPlan`."""

    #: Gradient ids of the point's parameters (sync-vector indices).
    grad_ids: np.ndarray
    #: The units of each batch that closes at this point, in dispatch
    #: order.
    batches: tuple[tuple[AllReduceUnit, ...], ...]


class BackwardPlan(t.NamedTuple):
    """An iteration's packing, fixed by the backward schedule."""

    #: One entry per backward step, the tail step included.
    points: tuple[PlanPoint, ...]
    #: Units of the batch still open when the pass ends; empty when the
    #: last gradient closed a batch.
    tail: tuple[AllReduceUnit, ...]


def plan_backward(
        steps: t.Iterable[tuple[float, t.Sequence[ParameterSpec]]],
        grad_id: t.Callable[[str], int],
        wire_bytes: t.Callable[[ParameterSpec], float],
        granularity_bytes: float) -> BackwardPlan:
    """Pack one backward pass ahead of time (paper §V, Fig. 6).

    ``steps`` are ``(delay_s, parameters)`` schedule points as
    :meth:`~repro.frameworks.base.TrainContext.backward_steps` returns
    them.  Gradients join the open batch in schedule order; the batch
    closes once its accumulated wire bytes reach ``granularity_bytes``.
    Which batches close where, and how each is sliced, depends on the
    order, the sizes and the granularity only — never on simulated
    time — so one plan serves every iteration.  One packer numbers the
    units in dispatch order, and each batch is unpacked once here, so a
    malformed plan raises :class:`PackingError` before any iteration.
    """
    packer = GradientPacker(granularity_bytes)

    def close(batch: list[tuple[int, float]]) -> tuple[AllReduceUnit, ...]:
        units = tuple(packer.pack(batch))
        unpack(units)
        return units

    points: list[PlanPoint] = []
    batch: list[tuple[int, float]] = []
    batch_bytes = 0.0
    for _delay, parameters in steps:
        ids: list[int] = []
        closed: list[tuple[AllReduceUnit, ...]] = []
        for parameter in parameters:
            gid = grad_id(parameter.name)
            size = wire_bytes(parameter)
            ids.append(gid)
            batch.append((gid, size))
            batch_bytes += size
            if batch_bytes >= granularity_bytes:
                closed.append(close(batch))
                batch = []
                batch_bytes = 0.0
        points.append(PlanPoint(np.array(ids, dtype=np.intp), tuple(closed)))
    return BackwardPlan(tuple(points), close(batch) if batch else ())
