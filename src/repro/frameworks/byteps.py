"""BytePS baseline (Jiang et al., OSDI'20, v0.2 behaviour).

Parameter-server data plane: workers *push* gradients to servers and
*pull* aggregated values back.  BytePS shines when **extra CPU-only
server machines** absorb the aggregation traffic; the paper evaluates the
common GPU-cloud setup where servers are co-located with the 8-GPU worker
nodes — then each node's NIC must carry the push *and* pull traffic of
all eight of its workers, roughly ``2 x 8 x S x (m-1)/m`` bytes per
iteration versus the ring's ``~2 x S``.  This volume blow-up is why the
paper (and the independent Bagua study it cites) find BytePS the slowest
baseline, and why "to achieve improved performance for BytePS will incur
an extra financial cost for CPU machine subscription".

Tensors are partitioned into 4 MB parts, and push/pull of different parts
pipeline over a small :class:`~repro.frameworks.base.ConnectionPool`.
"""

from __future__ import annotations

import functools
import typing as t
import weakref

from repro.frameworks.base import (
    ConnectionPool,
    DDLBackend,
    IterationStats,
    TrainContext,
    UPDATE_TIME_S,
    relay,
    require_non_negative,
    require_positive,
)
from repro.sim.events import Event
from repro.sim.network import FluidNetwork, Link


class BytePSBackend(DDLBackend):
    """Co-located parameter-server push/pull (BytePS semantics)."""

    name = "byteps"

    def __init__(self, partition_bytes: float = 4e6,
                 num_connections: int = 4,
                 extra_cpu_server_nodes: int = 0,
                 server_overhead_s: float = 50e-6) -> None:
        require_positive("partition_bytes", partition_bytes)
        require_non_negative("server_overhead_s", server_overhead_s)
        if num_connections < 1:
            raise ValueError("num_connections must be >= 1")
        if extra_cpu_server_nodes < 0:
            raise ValueError("extra_cpu_server_nodes must be >= 0")
        self.partition_bytes = partition_bytes
        self.num_connections = num_connections
        #: Dedicated CPU server machines (the paper's setup has none).
        self.extra_cpu_server_nodes = extra_cpu_server_nodes
        self.server_overhead_s = server_overhead_s
        #: ``network -> dedicated-server NIC``: one link per run, so a
        #: reused backend never carries a previous cluster's capacity.
        self._server_links: weakref.WeakKeyDictionary[FluidNetwork, Link] \
            = weakref.WeakKeyDictionary()

    def nic_bytes_per_gradient(self, ctx: TrainContext,
                               grad_bytes: float) -> float:
        """Per-worker-node NIC bytes (one direction) to push one gradient.

        Each of the node's ``g`` workers pushes its full gradient,
        sharded across all servers; the remote share crosses the NIC.
        **Co-located** servers additionally serve the other nodes'
        workers through the same NIC — the paper's reason BytePS
        underperforms without "an extra financial cost for CPU machine
        subscription": dedicated CPU servers absorb that second term.
        """
        g = ctx.cluster.spec.gpus_per_node
        m = ctx.cluster.num_nodes
        n = ctx.cluster.world_size
        servers = m + self.extra_cpu_server_nodes
        if servers < 1 or m == 1:
            return 0.0
        if self.extra_cpu_server_nodes:
            # Dedicated servers: all pushes leave the node; the local
            # NIC carries only its own workers' traffic.
            worker_term = g * grad_bytes
            colocated_term = 0.0
        else:
            remote_share = (servers - 1) / servers
            worker_term = g * grad_bytes * remote_share
            # This node's co-located server handles the 1/m shard for
            # every remote worker (push in, pull out — one direction
            # each).
            colocated_term = (n - g) * grad_bytes / m
        return worker_term + colocated_term

    def server_nic_bytes_per_gradient(self, ctx: TrainContext,
                                      grad_bytes: float) -> float:
        """Per-dedicated-server-NIC bytes (one direction) per gradient.

        Only meaningful with ``extra_cpu_server_nodes``: every worker's
        push is sharded over the dedicated servers, so each server NIC
        absorbs ``n x S / k`` inbound (and the same outbound on pulls).
        """
        if not self.extra_cpu_server_nodes:
            return 0.0
        n = ctx.cluster.world_size
        return n * grad_bytes / self.extra_cpu_server_nodes

    def iteration(self, ctx: TrainContext) -> t.Generator:
        start = ctx.sim.now
        yield ctx.sim.timeout(ctx.forward_time_s)

        pool = ConnectionPool(ctx.sim, self.num_connections,
                              self._push_pull(ctx), name="byteps")
        for delay, parameters in ctx.backward_steps():
            if delay:
                yield ctx.sim.timeout(delay)
            for parameter in parameters:
                for part in self._partition(ctx.wire_bytes(parameter)):
                    pool.submit(part)
        yield pool.close()
        yield ctx.sim.timeout(UPDATE_TIME_S)
        return IterationStats(
            iteration_time_s=ctx.sim.now - start,
            compute_time_s=ctx.compute_time_s,
        )

    def _partition(self, size: float) -> list[float]:
        parts = []
        while size > self.partition_bytes:
            parts.append(self.partition_bytes)
            size -= self.partition_bytes
        if size > 0:
            parts.append(size)
        return parts

    def _push_pull(self, ctx: TrainContext) -> t.Callable[[float], Event]:
        """The iteration's transfer: push one partition, pull it back.

        A transfer is the push flow, ``server_overhead_s`` on the
        server and the pull flow, chained on callbacks; it returns the
        event that fires when the pull is done.  The path and the cap
        are the same for every partition, so they are looked up once
        per iteration, and the NIC bytes once per distinct partition
        size.
        """
        sim, network = ctx.sim, ctx.network
        if ctx.cluster.num_nodes == 1:
            # No inter-node NIC bytes: NVLink/loopback only.
            nvlink = [ctx.cluster.nvlink[0]]
            return lambda part_bytes: network.start_flow(
                nvlink, 2 * part_bytes)
        cap = ctx.cluster.stream_cap_bps()
        hop = list(ctx.cluster.representative_hop())
        if self.extra_cpu_server_nodes:
            # Dedicated server NICs can become the bottleneck when
            # too few CPU machines are subscribed.
            hop.append(self._server_link(ctx))
        nic_bytes: dict[float, float] = {}

        def push_pull(part_bytes: float) -> Event:
            nbytes = nic_bytes.get(part_bytes)
            if nbytes is None:
                nbytes = nic_bytes[part_bytes] = max(
                    self.nic_bytes_per_gradient(ctx, part_bytes),
                    self.server_nic_bytes_per_gradient(ctx, part_bytes))
            done = sim.event(name="byteps.pushpull")

            def pull(_overhead: Event) -> None:
                network.start_flow(hop, nbytes, rate_cap_bps=cap) \
                    .add_callback(functools.partial(relay, done))

            def pushed(push: Event) -> None:
                if not push.ok:
                    relay(done, push)
                    return
                sim.timeout(self.server_overhead_s).add_callback(pull)

            # Push ... then pull the reduced value back.
            network.start_flow(hop, nbytes, rate_cap_bps=cap) \
                .add_callback(pushed)
            return done

        return push_pull

    def _server_link(self, ctx: TrainContext) -> Link:
        """The shared NIC of the dedicated CPU server fleet on ``ctx``'s
        network, built on first use with that cluster's capacity."""
        link = self._server_links.get(ctx.network)
        if link is None:
            transport = ctx.cluster.spec.transport
            capacity = transport.effective_capacity_bps(
                ctx.cluster.spec.nic_bandwidth_bps)
            link = Link("byteps.server-nic", capacity)
            self._server_links[ctx.network] = link
        return link
