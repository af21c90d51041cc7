"""MXNet distributed KVStore baseline.

MXNet's native data-parallel path synchronizes through a distributed
key-value store: every parameter is a *key*; workers push gradient values
and pull back aggregated weights.  Compared to BytePS it lacks tensor
partitioning and connection pipelining — each key is pushed/pulled
whole over a single connection, with per-key serialization overhead —
which is why Fig. 12 of the paper shows "the parameter server approach
used by MXNet gives a lower throughput compared to the all-reduce used by
Tensorflow and PyTorch".

The paper's AIACC integration replaces exactly this interface ("porting
MXNet's parameter server-based code ... can be realized using the MXNet
key value store interface").
"""

from __future__ import annotations

import functools
import typing as t

from repro.frameworks.base import (
    ConnectionPool,
    DDLBackend,
    IterationStats,
    TrainContext,
    UPDATE_TIME_S,
    relay,
    require_non_negative,
)
from repro.sim.events import Event


class MXNetKVStoreBackend(DDLBackend):
    """Whole-key parameter server with minimal pipelining (KVStore)."""

    name = "mxnet-kvstore"

    def __init__(self, per_key_overhead_s: float = 100e-6,
                 num_connections: int = 2) -> None:
        if num_connections < 1:
            raise ValueError("num_connections must be >= 1")
        require_non_negative("per_key_overhead_s", per_key_overhead_s)
        self.per_key_overhead_s = per_key_overhead_s
        #: KVStore overlaps the push of one key with the pull of another,
        #: but far less aggressively than BytePS's partitioned pipeline.
        self.num_connections = num_connections

    def iteration(self, ctx: TrainContext) -> t.Generator:
        start = ctx.sim.now
        yield ctx.sim.timeout(ctx.forward_time_s)

        pool = ConnectionPool(ctx.sim, self.num_connections,
                              self._push_pull(ctx), name="kvstore")
        for delay, parameters in ctx.backward_steps():
            if delay:
                yield ctx.sim.timeout(delay)
            for parameter in parameters:
                pool.submit(ctx.wire_bytes(parameter))
        yield pool.close()
        yield ctx.sim.timeout(UPDATE_TIME_S)
        return IterationStats(
            iteration_time_s=ctx.sim.now - start,
            compute_time_s=ctx.compute_time_s,
        )

    def _push_pull(self, ctx: TrainContext) -> t.Callable[[float], Event]:
        """The iteration's transfer: serial whole-key push then pull.

        A transfer is ``per_key_overhead_s`` of serialization, then the
        push flow and the pull flow, chained on callbacks; it returns
        the event that fires when the pull is done.  The path and the
        cap are looked up once per iteration.
        """
        sim, network = ctx.sim, ctx.network
        g = ctx.cluster.spec.gpus_per_node
        m = ctx.cluster.num_nodes
        if m == 1:
            # NVLink/loopback: one flow carries the push and the pull.
            path, cap = [ctx.cluster.nvlink[0]], None
        else:
            path = ctx.cluster.representative_hop()
            cap = ctx.cluster.stream_cap_bps()

        def push_pull(size: float) -> Event:
            nbytes = 2 * size if m == 1 else g * size * (m - 1) / m
            done = sim.event(name="kvstore.pushpull")

            def pushed(push: Event) -> None:
                if m == 1 or not push.ok:
                    relay(done, push)
                    return
                network.start_flow(path, nbytes, rate_cap_bps=cap) \
                    .add_callback(functools.partial(relay, done))

            def push(_overhead: Event) -> None:
                network.start_flow(path, nbytes, rate_cap_bps=cap) \
                    .add_callback(pushed)

            sim.timeout(self.per_key_overhead_s).add_callback(push)
            return done

        return push_pull
