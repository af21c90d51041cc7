"""Numeric all-to-all, gather, scatter and reduce-to-root.

Rounds out the primitive set the paper builds upon ("AIACC-Training
builds upon low-level collective communication primitives (all-scatter,
all-gather, etc.)", §IX).  No training path calls them; the tests
check each against its mathematical result.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.errors import CollectiveError
from repro.collectives.primitives import ReduceOp, apply_op, finalize_op
from repro.collectives.runner import run_collective
from repro.sim.kernel import Simulator
from repro.sim.mpi import Communicator

_TAG_A2A = 9 << 20
_TAG_GATHER = 10 << 20
_TAG_SCATTER = 11 << 20
_TAG_REDUCE = 12 << 20


def alltoall_worker(sim: Simulator, comm: Communicator, rank: int,
                    chunks: t.Sequence[np.ndarray]) -> t.Generator:
    """Exchange chunk ``j`` with worker ``j``; returns received chunks.

    ``chunks[j]`` is this worker's message for worker ``j``.  The
    schedule staggers partners (round r pairs ``rank`` with
    ``(rank + r) % n``) so no receiver is hit by all senders at once.
    """
    n = comm.size
    if len(chunks) != n:
        raise CollectiveError(
            f"worker {rank} provided {len(chunks)} chunks for {n} workers"
        )
    received: list[np.ndarray | None] = [None] * n
    received[rank] = chunks[rank].copy()
    for round_idx in range(1, n):
        send_to = (rank + round_idx) % n
        recv_from = (rank - round_idx) % n
        comm.send(rank, send_to, chunks[send_to].copy(),
                  nbytes=chunks[send_to].nbytes,
                  tag=_TAG_A2A + round_idx)
        received[recv_from] = yield comm.recv(rank, recv_from,
                                              tag=_TAG_A2A + round_idx)
    return t.cast(list, received)


def gather_worker(sim: Simulator, comm: Communicator, rank: int,
                  data: np.ndarray, root: int = 0) -> t.Generator:
    """Collect every worker's array at ``root`` (others return None)."""
    if rank == root:
        gathered: list[np.ndarray | None] = [None] * comm.size
        gathered[root] = data.copy()
        for source in range(comm.size):
            if source == root:
                continue
            gathered[source] = yield comm.recv(rank, source,
                                               tag=_TAG_GATHER + source)
        return t.cast(list, gathered)
    comm.send(rank, root, data.copy(), nbytes=data.nbytes,
              tag=_TAG_GATHER + rank)
    return None
    yield  # pragma: no cover


def scatter_worker(sim: Simulator, comm: Communicator, rank: int,
                   chunks: t.Sequence[np.ndarray] | None,
                   root: int = 0) -> t.Generator:
    """Distribute ``chunks[j]`` from ``root`` to worker ``j``."""
    if rank == root:
        if chunks is None or len(chunks) != comm.size:
            raise CollectiveError("root must provide one chunk per worker")
        for target in range(comm.size):
            if target == root:
                continue
            comm.send(rank, target, chunks[target].copy(),
                      nbytes=chunks[target].nbytes,
                      tag=_TAG_SCATTER + target)
        return chunks[root].copy()
        yield  # pragma: no cover
    part = yield comm.recv(rank, root, tag=_TAG_SCATTER + rank)
    return part


def reduce_worker(sim: Simulator, comm: Communicator, rank: int,
                  data: np.ndarray, root: int = 0,
                  op: ReduceOp = ReduceOp.SUM) -> t.Generator:
    """Reduce all workers' arrays at ``root`` (others return None)."""
    if rank == root:
        accumulator = data.copy()
        for source in range(comm.size):
            if source == root:
                continue
            incoming = yield comm.recv(rank, source,
                                       tag=_TAG_REDUCE + source)
            accumulator = apply_op(op, accumulator, incoming)
        return finalize_op(op, accumulator, comm.size)
    comm.send(rank, root, data.copy(), nbytes=data.nbytes,
              tag=_TAG_REDUCE + rank)
    return None
    yield  # pragma: no cover


def alltoall(per_worker_chunks: t.Sequence[t.Sequence[np.ndarray]]
             ) -> list[list[np.ndarray]]:
    """Run an all-to-all; returns what each worker received, by source."""
    if not per_worker_chunks:
        raise CollectiveError("alltoall requires at least one worker")
    size = len(per_worker_chunks)
    return run_collective(lambda sim, comm, rank: alltoall_worker(
        sim, comm, rank, per_worker_chunks[rank]), size, "coll")


def gather(arrays: t.Sequence[np.ndarray], root: int = 0) -> list:
    """Run a gather; result[root] is the list of all arrays."""
    if not arrays:
        raise CollectiveError("gather requires at least one array")
    return run_collective(lambda sim, comm, rank: gather_worker(
        sim, comm, rank, arrays[rank], root=root), len(arrays), "coll")


def scatter(chunks: t.Sequence[np.ndarray], root: int = 0,
            size: int | None = None) -> list[np.ndarray]:
    """Run a scatter of ``chunks`` from ``root``; returns per-worker parts."""
    world = size or len(chunks)
    if len(chunks) != world:
        raise CollectiveError("need exactly one chunk per worker")
    return run_collective(lambda sim, comm, rank: scatter_worker(
        sim, comm, rank, chunks if rank == root else None, root=root),
        world, "coll")


def reduce(arrays: t.Sequence[np.ndarray], root: int = 0,
           op: ReduceOp = ReduceOp.SUM) -> list:
    """Run a reduce-to-root; result[root] is the reduction."""
    if not arrays:
        raise CollectiveError("reduce requires at least one array")
    return run_collective(lambda sim, comm, rank: reduce_worker(
        sim, comm, rank, arrays[rank], root=root, op=op), len(arrays),
        "coll")
