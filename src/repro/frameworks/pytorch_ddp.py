"""PyTorch DistributedDataParallel baseline (v1.10 behaviour).

Control plane: **static bucketing** — parameters are assigned to ~25 MB
buckets in *reverse registration order* at construction time (matching the
expected backward production order).  A bucket's all-reduce launches from
the autograd hook as soon as its last gradient arrives; there is no
per-cycle coordinator, but buckets must launch **in bucket order** and run
serially on a single NCCL stream.

A straggling gradient therefore blocks its bucket *and* all later buckets
— and the single stream is again capped at the transport's single-stream
efficiency.
"""

from __future__ import annotations

import functools
import typing as t

from repro.errors import TrainingError, require_real
from repro.frameworks.base import (
    ConnectionPool,
    DDLBackend,
    IterationStats,
    TrainContext,
    UPDATE_TIME_S,
    relay,
)
from repro.models.base import ParameterSpec
from repro.sim.events import Event


class PyTorchDDPBackend(DDLBackend):
    """Bucketed, hook-launched, single-stream all-reduce (DDP semantics)."""

    name = "pytorch-ddp"

    def __init__(self, bucket_bytes: float = 25e6,
                 launch_overhead_s: float = 30e-6,
                 stream_cap_scale: float = 0.65,
                 algorithm: str = "ring") -> None:
        self.bucket_bytes = require_real("bucket_bytes", bucket_bytes,
                                         TrainingError, positive=True)
        self.launch_overhead_s = require_real(
            "launch_overhead_s", launch_overhead_s, TrainingError)
        if require_real("stream_cap_scale", stream_cap_scale, TrainingError,
                        positive=True) > 1:
            raise TrainingError("stream_cap_scale must be in (0, 1]")
        #: DDP v1.10 ships NCCL default socket configuration (untuned
        #: NCCL_SOCKET_NTHREADS), reaching about two-thirds of the single-stream
        #: ceiling of a tuned Horovod deployment; calibrated against the
        #: paper's Fig. 9 Horovod/DDP gap at 256 GPUs.
        self.stream_cap_scale = stream_cap_scale
        self.algorithm = algorithm

    def build_buckets(self, ctx: TrainContext) -> list[list[str]]:
        """Assign parameters to buckets in reverse registration order."""
        buckets: list[list[str]] = []
        current: list[str] = []
        current_bytes = 0.0
        for parameter in reversed(ctx.model.parameters()):
            size = ctx.wire_bytes(parameter)
            if current and current_bytes + size > self.bucket_bytes:
                buckets.append(current)
                current = []
                current_bytes = 0.0
            current.append(parameter.name)
            current_bytes += size
        if current:
            buckets.append(current)
        return buckets

    def iteration(self, ctx: TrainContext) -> t.Generator:
        start = ctx.sim.now
        yield ctx.sim.timeout(ctx.forward_time_s)

        buckets = self.build_buckets(ctx)
        bucket_of: dict[str, int] = {}
        for index, names in enumerate(buckets):
            for name in names:
                bucket_of[name] = index
        remaining = [len(names) for names in buckets]
        sizes = self._bucket_sizes(ctx, buckets)

        # The single NCCL stream: buckets all-reduce serially.
        comm = ConnectionPool(ctx.sim, 1,
                              functools.partial(self._allreduce, ctx),
                              name="ddp.comm")
        yield ctx.sim.spawn(
            self._autograd_hook(ctx, comm, bucket_of, remaining, sizes),
            name="ddp.hook")
        yield ctx.sim.timeout(UPDATE_TIME_S)
        return IterationStats(
            iteration_time_s=ctx.sim.now - start,
            compute_time_s=ctx.compute_time_s,
        )

    def _bucket_sizes(self, ctx: TrainContext,
                      buckets: list[list[str]]) -> list[float]:
        by_name: dict[str, ParameterSpec] = {
            p.name: p for p in ctx.model.parameters()}
        return [
            sum(ctx.wire_bytes(by_name[name]) for name in names)
            for names in buckets
        ]

    def _autograd_hook(self, ctx: TrainContext, comm: ConnectionPool,
                       bucket_of: dict[str, int], remaining: list[int],
                       sizes: list[float]) -> t.Generator:
        """Walk backward; release buckets in order as they complete.

        Each complete bucket is staged over PCIe (concurrently with the
        sends of earlier buckets) before entering the serial comm queue.
        Returns once ``comm`` has sent every bucket.
        """
        staging: list[Event] = []

        def launch(bucket: int) -> None:
            copy = comm.stage(ctx, sizes[bucket])
            if copy is not None:
                staging.append(copy)

        next_to_launch = 0
        complete = [count == 0 for count in remaining]
        for delay, parameters in ctx.backward_steps():
            if delay:
                yield ctx.sim.timeout(delay)
            for parameter in parameters:
                index = bucket_of[parameter.name]
                remaining[index] -= 1
                if remaining[index] == 0:
                    complete[index] = True
                    # DDP launches buckets strictly in bucket order.
                    while next_to_launch < len(sizes) and \
                            complete[next_to_launch]:
                        launch(next_to_launch)
                        next_to_launch += 1
        if next_to_launch != len(sizes):
            # Straggler buckets launch at backward end (grads all arrived).
            while next_to_launch < len(sizes):
                launch(next_to_launch)
                next_to_launch += 1
        if staging:
            yield ctx.sim.all_of(staging)
        yield comm.close()

    def _allreduce(self, ctx: TrainContext, bucket_bytes: float) -> Event:
        """Launch overhead, then the capped all-reduce of one bucket."""
        done = ctx.sim.event(name="ddp.allreduce")

        def launch(_overhead: Event) -> None:
            ctx.collectives.allreduce(
                bucket_bytes, algorithm=self.algorithm,
                cap_scale=self.stream_cap_scale,
            ).add_callback(functools.partial(relay, done))

        ctx.sim.timeout(self.launch_overhead_s).add_callback(launch)
        return done
