"""Numeric ring all-reduce (Fig. 1 of the paper).

The ring algorithm runs in two phases over ``n`` workers:

*reduce-scatter* — the data is split into ``n`` chunks; in step ``s`` worker
``r`` sends chunk ``(r - s) mod n`` to its successor and reduces the chunk
``(r - s - 1) mod n`` received from its predecessor.  After ``n - 1`` steps
worker ``r`` holds the fully reduced chunk ``(r + 1) mod n``.

*all-gather* — the reduced chunks circulate for another ``n - 1`` steps so
every worker ends with the complete reduced array.

This implementation exchanges real :mod:`numpy` arrays through the simulated
MPI layer, so its results are bit-for-bit verifiable against the
mathematical reduction — the property-based tests rely on this.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.errors import CollectiveError, ProcessInterrupt
from repro.collectives.primitives import (
    ReduceOp,
    apply_op,
    chunk_bounds,
    finalize_op,
)
from repro.collectives.runner import run_collective
from repro.sim.kernel import Simulator
from repro.sim.mpi import Communicator

#: Tag space: phase * _TAG_STRIDE + step, so concurrent collectives on
#: distinct tag bases never cross-match.
_TAG_STRIDE = 4096


def ring_allreduce_worker(
    sim: Simulator,
    comm: Communicator,
    rank: int,
    data: np.ndarray,
    op: ReduceOp = ReduceOp.SUM,
    tag_base: int = 0,
) -> t.Generator:
    """Simulated-process generator performing one ring all-reduce.

    Returns (via ``StopIteration``) the reduced array; the input array is
    not modified.
    """
    n = comm.size
    if data.ndim != 1:
        raise CollectiveError("ring all-reduce expects a flat array")
    if n == 1:
        return finalize_op(op, data.copy(), 1)
        yield  # pragma: no cover - makes this a generator

    # Dtype is preserved (gradients are float32/float16; the readiness
    # vector is uint8).  AVG callers should pass floating-point data.
    work = data.copy()
    bounds = chunk_bounds(len(work), n)
    predecessor, successor = comm.ring_neighbors(rank)
    itemsize = work.itemsize

    def _recv(tag: int) -> t.Generator:
        # Interrupt-safe receive: an interrupted (e.g. timed-out) worker
        # must withdraw its pending getter, or a later send on the same
        # tag hands its payload to this dead request and the retry round
        # silently loses a message.
        request = comm.recv(rank, predecessor, tag=tag)
        try:
            incoming = yield request
        except ProcessInterrupt:
            comm.cancel_recv(request)
            raise
        return incoming

    # Chunk-count cap: a ring larger than the element count produces
    # empty chunks (``chunk_bounds`` guarantees they only occur when
    # ``n > len(work)``), and shipping them through the MPI layer costs
    # two events per step per rank for a no-op reduction.  Every rank
    # computes the same ``bounds``, so sender and receiver of an empty
    # chunk skip it in lock-step agreement — the message count per phase
    # is capped at ``min(n - 1, len(work))`` per rank while the reduced
    # result stays bit-identical.

    # Phase 1: reduce-scatter.
    for step in range(n - 1):
        send_idx = (rank - step) % n
        recv_idx = (rank - step - 1) % n
        lo, hi = bounds[send_idx]
        if hi > lo:
            comm.send(rank, successor, work[lo:hi].copy(),
                      nbytes=(hi - lo) * itemsize,
                      tag=tag_base + step)
        lo, hi = bounds[recv_idx]
        if hi > lo:
            incoming = yield from _recv(tag_base + step)
            work[lo:hi] = apply_op(op, work[lo:hi], incoming)

    # Phase 2: all-gather.
    for step in range(n - 1):
        send_idx = (rank - step + 1) % n
        recv_idx = (rank - step) % n
        lo, hi = bounds[send_idx]
        if hi > lo:
            comm.send(rank, successor, work[lo:hi].copy(),
                      nbytes=(hi - lo) * itemsize,
                      tag=tag_base + _TAG_STRIDE + step)
        lo, hi = bounds[recv_idx]
        if hi > lo:
            incoming = yield from _recv(tag_base + _TAG_STRIDE + step)
            work[lo:hi] = incoming

    return finalize_op(op, work, n)


def ring_allreduce(
    arrays: t.Sequence[np.ndarray],
    op: ReduceOp = ReduceOp.SUM,
) -> list[np.ndarray]:
    """Run a complete ring all-reduce across ``len(arrays)`` workers.

    Convenience entry point: builds a simulator and an ideal communicator,
    runs one worker process per input array, and returns each worker's
    reduced result.  Intended for tests and the numeric training mode.
    """
    if not arrays:
        raise CollectiveError("ring_allreduce requires at least one array")
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise CollectiveError(f"workers disagree on shape: {shapes}")

    return run_collective(
        lambda sim, comm, rank: ring_allreduce_worker(
            sim, comm, rank, arrays[rank], op=op),
        len(arrays), "allreduce")
