"""Numeric broadcast (ring pipeline).

Used by AIACC-Training's elastic deployment to propagate the model
parameters to newly joined workers (paper Section IV) and by the examples.
The root splits the data into chunks and pipelines them around the ring,
which is bandwidth-optimal for large tensors.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.errors import CollectiveError
from repro.collectives.primitives import chunk_bounds
from repro.collectives.runner import run_collective
from repro.sim.kernel import Simulator
from repro.sim.mpi import Communicator

_TAG_BCAST = 5 << 20


def broadcast_worker(
    sim: Simulator,
    comm: Communicator,
    rank: int,
    data: np.ndarray | None,
    root: int = 0,
    num_chunks: int | None = None,
) -> t.Generator:
    """Simulated-process generator for a pipelined ring broadcast.

    Non-root workers pass ``data=None`` and receive the root's array.  The
    shape travels with the first chunk, so receivers need no prior
    knowledge.
    """
    n = comm.size
    if rank == root and data is None:
        raise CollectiveError("root must provide data")
    if n == 1:
        return t.cast(np.ndarray, data).copy()
        yield  # pragma: no cover

    chunks = num_chunks or min(8, n)
    successor = (rank + 1) % n
    # Ring distance from root determines what this worker forwards.
    is_tail = (rank - root) % n == n - 1

    if rank == root:
        array = t.cast(np.ndarray, data)
        bounds = chunk_bounds(len(array), chunks)
        header = (array.shape, array.dtype, bounds)
        comm.send(rank, successor, header, nbytes=64, tag=_TAG_BCAST)
        for index, (lo, hi) in enumerate(bounds):
            comm.send(rank, successor, array[lo:hi].copy(),
                      nbytes=(hi - lo) * array.itemsize,
                      tag=_TAG_BCAST + 1 + index)
        return array.copy()

    predecessor = (rank - 1) % n
    header = yield comm.recv(rank, predecessor, tag=_TAG_BCAST)
    shape, dtype, bounds = header
    if not is_tail:
        comm.send(rank, successor, header, nbytes=64, tag=_TAG_BCAST)
    result = np.empty(shape, dtype=dtype)
    for index, (lo, hi) in enumerate(bounds):
        chunk = yield comm.recv(rank, predecessor, tag=_TAG_BCAST + 1 + index)
        result[lo:hi] = chunk
        if not is_tail:
            comm.send(rank, successor, chunk,
                      nbytes=(hi - lo) * result.itemsize,
                      tag=_TAG_BCAST + 1 + index)
    return result


def broadcast(arrays: t.Sequence[np.ndarray | None],
              root: int = 0) -> list[np.ndarray]:
    """Broadcast ``arrays[root]`` to all workers; returns each worker's copy."""
    if not arrays:
        raise CollectiveError("broadcast requires at least one worker slot")
    if not 0 <= root < len(arrays):
        raise CollectiveError(f"root {root} out of range")
    return run_collective(
        lambda sim, comm, rank: broadcast_worker(
            sim, comm, rank, arrays[rank], root=root),
        len(arrays), "bcast")
