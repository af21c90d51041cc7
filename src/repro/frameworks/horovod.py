"""Horovod baseline (Sergeev et al., v0.23 behaviour).

Control plane: a **single coordinator** (rank 0).  Every *cycle* (default
5 ms) workers report their locally ready tensors to the coordinator, which
intersects the lists and broadcasts the negotiated set.  The coordinator
processes one message per worker per cycle plus one list entry per ready
tensor per worker — the serial master-node work that the paper identifies
as the scalability bottleneck beyond ~128 GPUs (Section III).

Data plane: negotiated tensors are packed into a **fusion buffer**
(default 64 MB) and all-reduced by NCCL on **one** communication stream,
serially.  A single stream reaches at most the transport's single-stream
efficiency (~30% of a TCP link), which is the other bottleneck AIACC
attacks.
"""

from __future__ import annotations

import functools
import typing as t

from repro.errors import TrainingError, require_real
from repro.frameworks.base import (
    ConnectionPool,
    DDLBackend,
    IterationStats,
    ReadyGradient,
    TrainContext,
    UPDATE_TIME_S,
)
from repro.sim.events import Event
from repro.sim.process import Process


class HorovodBackend(DDLBackend):
    """Master-coordinated, single-stream all-reduce (Horovod semantics)."""

    name = "horovod"

    def __init__(self, cycle_time_s: float = 5e-3,
                 fusion_buffer_bytes: float = 64e6,
                 master_service_per_worker_s: float = 5e-6,
                 master_service_per_entry_s: float = 1.0e-6,
                 algorithm: str = "ring") -> None:
        self.cycle_time_s = require_real("cycle_time_s", cycle_time_s,
                                         TrainingError, positive=True)
        self.fusion_buffer_bytes = require_real(
            "fusion_buffer_bytes", fusion_buffer_bytes, TrainingError,
            positive=True)
        self.master_service_per_worker_s = require_real(
            "master_service_per_worker_s", master_service_per_worker_s,
            TrainingError)
        self.master_service_per_entry_s = require_real(
            "master_service_per_entry_s", master_service_per_entry_s,
            TrainingError)
        self.algorithm = algorithm

    # -- control-plane cost model ----------------------------------------------

    def negotiation_delay_s(self, ctx: TrainContext, num_tensors: int) -> float:
        """Latency of one coordinator negotiation round.

        One request per worker is serviced serially at the master, each
        carrying ``num_tensors`` readiness entries, followed by the
        response broadcast.
        """
        n = ctx.cluster.world_size
        rtt = 2 * ctx.cluster.spec.inter_node_latency_s
        serial = n * (self.master_service_per_worker_s
                      + num_tensors * self.master_service_per_entry_s)
        return rtt + serial

    def pack_fusion_buffers(self, ctx: TrainContext,
                            gradients: t.Sequence[ReadyGradient]
                            ) -> list[float]:
        """Greedily pack gradients into fusion buffers (byte sizes).

        Tensors larger than the buffer are sent alone — Horovod never
        splits a tensor, which is why VGG's 410 MB fc6 gradient crawls
        through one capped stream.
        """
        buffers: list[float] = []
        current = 0.0
        for grad in sorted(gradients, key=lambda g: g.grad_id):
            size = ctx.wire_bytes(grad.parameter)
            if current > 0 and current + size > self.fusion_buffer_bytes:
                buffers.append(current)
                current = 0.0
            current += size
        if current > 0:
            buffers.append(current)
        return buffers

    # -- iteration -----------------------------------------------------------

    def iteration(self, ctx: TrainContext) -> t.Generator:
        start = ctx.sim.now
        yield ctx.sim.timeout(ctx.forward_time_s)

        ready: list[ReadyGradient] = []
        # The single comm thread: fusion buffers all-reduce serially.
        comm = ConnectionPool(ctx.sim, 1,
                              functools.partial(self._allreduce, ctx),
                              name="horovod.comm")
        backward = ctx.sim.spawn(_backward(ctx, ready), name="backward")
        yield ctx.sim.spawn(self._negotiator(ctx, backward, ready, comm),
                            name="negotiator")
        yield ctx.sim.timeout(UPDATE_TIME_S)
        return IterationStats(
            iteration_time_s=ctx.sim.now - start,
            compute_time_s=ctx.compute_time_s,
        )

    def _negotiator(self, ctx: TrainContext, backward: Process,
                    ready: list[ReadyGradient],
                    comm: ConnectionPool) -> t.Generator:
        """Cycle loop: gather ready tensors, negotiate, emit fusion buffers.

        ``backward`` appends to ``ready``; each cycle takes everything
        appended so far, and the cycle that finds ``backward`` finished
        has taken the last tensor.  Returns once ``comm`` has sent every
        buffer.
        """
        backward_done = False
        staging: list[Event] = []
        while not backward_done:
            yield ctx.sim.timeout(self.cycle_time_s)
            backward_done = backward.triggered
            pending = ready[:]
            ready.clear()
            if not pending:
                continue
            delay = self.negotiation_delay_s(ctx, len(pending))
            yield ctx.sim.timeout(delay)
            for buffer_bytes in self.pack_fusion_buffers(ctx, pending):
                # PCIe staging into the fusion buffer overlaps with the
                # network send of earlier buffers (separate copy engine).
                copy = comm.stage(ctx, buffer_bytes)
                if copy is not None:
                    staging.append(copy)
        if staging:
            yield ctx.sim.all_of(staging)
        yield comm.close()

    def _allreduce(self, ctx: TrainContext, buffer_bytes: float) -> Event:
        """Single-stream all-reduce of one fusion buffer."""
        return ctx.collectives.allreduce(buffer_bytes,
                                         algorithm=self.algorithm)


def _backward(ctx: TrainContext, ready: list[ReadyGradient]) -> t.Generator:
    """Walk the backward pass, appending each gradient to ``ready``.

    Ids follow registration (forward) order; the fusion buffers pack
    by them.
    """
    ids = {p.name: i for i, p in enumerate(ctx.model.parameters())}
    for delay, parameters in ctx.backward_steps():
        if delay:
            yield ctx.sim.timeout(delay)
        ready.extend(
            ReadyGradient(parameter=parameter, grad_id=ids[parameter.name],
                          ready_at=ctx.sim.now)
            for parameter in parameters)
