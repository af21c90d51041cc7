"""Numeric hierarchical ("tree") all-reduce.

AIACC-Training's second algorithm (paper Section V-B): "first performs a
ring all-reduce operation among GPUs of the same computing node and then
uses ring all-reduce to communicate across computing nodes".  Concretely:

1. *intra-node reduce-scatter* — GPUs of a node reduce-scatter over NVLink,
   leaving each local GPU with a reduced shard of the node's data;
2. *inter-node ring all-reduce* — each GPU ring-all-reduces its shard with
   the same-local-rank GPUs of the other nodes (``g`` parallel rings across
   the NICs);
3. *intra-node all-gather* — shards are re-assembled inside each node.

It is selected by the auto-tuner "when some of the physical network links
become congested due to burst communications from other shared cloud
users".
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.errors import CollectiveError
from repro.collectives.primitives import (
    ReduceOp,
    apply_op,
    chunk_bounds,
    finalize_op,
)
from repro.collectives.ring import ring_allreduce_worker
from repro.collectives.runner import run_collective
from repro.sim.kernel import Simulator
from repro.sim.mpi import Communicator

_TAG_INTRA_RS = 1 << 20
_TAG_INTRA_AG = 2 << 20
_TAG_INTER = 3 << 20


def hierarchical_allreduce_worker(
    sim: Simulator,
    comm: Communicator,
    rank: int,
    data: np.ndarray,
    gpus_per_node: int,
    op: ReduceOp = ReduceOp.SUM,
) -> t.Generator:
    """Simulated-process generator for one hierarchical all-reduce worker."""
    n = comm.size
    g = gpus_per_node
    if n % g != 0:
        raise CollectiveError(
            f"world size {n} is not a multiple of gpus_per_node {g}"
        )
    num_nodes = n // g
    if g == 1 or num_nodes == 1:
        # Degenerates to a flat ring.
        result = yield sim.spawn(
            ring_allreduce_worker(sim, comm, rank, data, op=op))
        return result

    work = data.copy()
    node = rank // g
    local = rank % g
    bounds = chunk_bounds(len(work), g)
    itemsize = work.itemsize
    local_pred = node * g + (local - 1) % g
    local_succ = node * g + (local + 1) % g

    # Phase 1: intra-node reduce-scatter over the local ring.
    for step in range(g - 1):
        send_idx = (local - step) % g
        recv_idx = (local - step - 1) % g
        lo, hi = bounds[send_idx]
        comm.send(rank, local_succ, work[lo:hi].copy(),
                  nbytes=(hi - lo) * itemsize, tag=_TAG_INTRA_RS + step)
        incoming = yield comm.recv(rank, local_pred, tag=_TAG_INTRA_RS + step)
        lo, hi = bounds[recv_idx]
        work[lo:hi] = apply_op(op, work[lo:hi], incoming)

    # Worker holds the node-reduced shard (local + 1) % g.
    shard_idx = (local + 1) % g
    lo, hi = bounds[shard_idx]
    shard = work[lo:hi].copy()

    # Phase 2: inter-node ring all-reduce of the shard among same-local-rank
    # peers.  Ranks in this sub-ring: local, g + local, 2g + local, ...
    sub_bounds = chunk_bounds(len(shard), num_nodes)
    inter_pred = ((node - 1) % num_nodes) * g + local
    inter_succ = ((node + 1) % num_nodes) * g + local
    for step in range(num_nodes - 1):
        send_idx = (node - step) % num_nodes
        recv_idx = (node - step - 1) % num_nodes
        slo, shi = sub_bounds[send_idx]
        comm.send(rank, inter_succ, shard[slo:shi].copy(),
                  nbytes=(shi - slo) * itemsize, tag=_TAG_INTER + step)
        incoming = yield comm.recv(rank, inter_pred, tag=_TAG_INTER + step)
        slo, shi = sub_bounds[recv_idx]
        shard[slo:shi] = apply_op(op, shard[slo:shi], incoming)
    for step in range(num_nodes - 1):
        send_idx = (node - step + 1) % num_nodes
        recv_idx = (node - step) % num_nodes
        slo, shi = sub_bounds[send_idx]
        comm.send(rank, inter_succ, shard[slo:shi].copy(),
                  nbytes=(shi - slo) * itemsize,
                  tag=_TAG_INTER + num_nodes + step)
        incoming = yield comm.recv(rank, inter_pred,
                                   tag=_TAG_INTER + num_nodes + step)
        slo, shi = sub_bounds[recv_idx]
        shard[slo:shi] = incoming
    work[lo:hi] = shard

    # Phase 3: intra-node all-gather of the globally reduced shards.
    for step in range(g - 1):
        send_idx = (local - step + 1) % g
        recv_idx = (local - step) % g
        slo, shi = bounds[send_idx]
        comm.send(rank, local_succ, work[slo:shi].copy(),
                  nbytes=(shi - slo) * itemsize, tag=_TAG_INTRA_AG + step)
        incoming = yield comm.recv(rank, local_pred, tag=_TAG_INTRA_AG + step)
        slo, shi = bounds[recv_idx]
        work[slo:shi] = incoming

    return finalize_op(op, work, n)


def hierarchical_allreduce(
    arrays: t.Sequence[np.ndarray],
    gpus_per_node: int,
    op: ReduceOp = ReduceOp.SUM,
) -> list[np.ndarray]:
    """Run a hierarchical all-reduce across ``len(arrays)`` workers."""
    if not arrays:
        raise CollectiveError("hierarchical_allreduce requires arrays")
    return run_collective(
        lambda sim, comm, rank: hierarchical_allreduce_worker(
            sim, comm, rank, arrays[rank], gpus_per_node, op=op),
        len(arrays), "hier")
