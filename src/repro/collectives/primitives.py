"""Shared collective-communication primitives and helpers.

Defines the reduction operators and the chunking arithmetic used by the
ring/hierarchical algorithms.  The *min* operator is what AIACC-Training's
decentralized gradient synchronization applies to the readiness bit vector
(paper Section V-A): a gradient is globally ready only if *every* worker
has produced it, i.e. ``min`` over the 0/1 bits is 1.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import CollectiveError, require_count


class ReduceOp(enum.Enum):
    """Reduction operators supported by the collectives."""

    SUM = "sum"
    MIN = "min"
    MAX = "max"
    PROD = "prod"
    AVG = "avg"


def apply_op(op: ReduceOp, accumulator: np.ndarray,
             incoming: np.ndarray) -> np.ndarray:
    """Combine ``incoming`` into ``accumulator`` element-wise.

    ``AVG`` accumulates as a sum; callers divide by world size at the end
    (see :func:`finalize_op`), matching how NCCL implements averaging.
    """
    if accumulator.shape != incoming.shape:
        raise CollectiveError(
            f"shape mismatch in reduction: {accumulator.shape} vs "
            f"{incoming.shape}"
        )
    if op in (ReduceOp.SUM, ReduceOp.AVG):
        return accumulator + incoming
    if op is ReduceOp.MIN:
        return np.minimum(accumulator, incoming)
    if op is ReduceOp.MAX:
        return np.maximum(accumulator, incoming)
    if op is ReduceOp.PROD:
        return accumulator * incoming
    raise CollectiveError(f"unsupported reduce op: {op}")


def finalize_op(op: ReduceOp, reduced: np.ndarray,
                world_size: int) -> np.ndarray:
    """Apply the terminal step of the reduction (division for ``AVG``)."""
    if op is ReduceOp.AVG:
        return reduced / float(world_size)
    return reduced


def chunk_bounds(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``total`` elements into ``parts`` contiguous (start, end) ranges.

    The first ``total % parts`` ranges receive one extra element, so ranges
    differ in length by at most one and empty ranges only occur when
    ``parts > total``.
    """
    parts = require_count("parts", parts, 1, CollectiveError)
    total = require_count("total", total, 0, CollectiveError)
    base, extra = divmod(total, parts)
    bounds = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds
