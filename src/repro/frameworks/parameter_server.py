"""Parameter-server baselines: BytePS and the MXNet KVStore.

Both frameworks synchronize through parameter servers: workers *push*
gradients to the servers and *pull* the aggregated values back.  Each
transfer is one chain of tasks — push, aggregate on the server, pull
(Shi et al., "A DAG Model of Synchronous SGD") — served FIFO over a
small :class:`~repro.frameworks.base.ConnectionPool`.  The two
frameworks are that one chain with different parameters, so
:class:`ParameterServerBackend` owns the iteration and the chain and
each framework is a configuration of it:

* **BytePS** (Jiang et al., OSDI'20, v0.2 behaviour) partitions tensors
  into 4 MB parts, pipelines them over four connections and spends
  ``server_overhead_s`` on the server between push and pull.  The paper
  evaluates the common GPU-cloud setup where servers are co-located
  with the 8-GPU worker nodes — then each node's NIC must carry the push
  *and* pull traffic of all eight of its workers, roughly
  ``2 x 8 x S x (m-1)/m`` bytes per iteration versus the ring's
  ``~2 x S``.  This volume blow-up is why the paper (and the independent
  Bagua study it cites) find BytePS the slowest baseline, and why "to
  achieve improved performance for BytePS will incur an extra financial
  cost for CPU machine subscription" (``extra_cpu_server_nodes``).
* **MXNet KVStore** makes every parameter a *key*.  It lacks tensor
  partitioning and most of the connection pipelining — each key is
  pushed and pulled whole over one of two connections, after
  ``per_key_overhead_s`` of serialization — which is why Fig. 12 of the
  paper shows "the parameter server approach used by MXNet gives a lower
  throughput compared to the all-reduce used by Tensorflow and
  PyTorch".  The paper's AIACC integration replaces exactly this
  interface ("porting MXNet's parameter server-based code ... can be
  realized using the MXNet key value store interface").
"""

from __future__ import annotations

import abc
import functools
import math
import typing as t
import weakref

from repro.errors import TrainingError, require_count, require_real
from repro.frameworks.base import (
    ConnectionPool,
    DDLBackend,
    IterationStats,
    TrainContext,
    UPDATE_TIME_S,
    relay,
)
from repro.sim.events import Event
from repro.sim.network import FluidNetwork, Link
from repro.sim.topology import Cluster

#: The flow step of a push/pull chain; every other step is a delay in
#: seconds.
_FLOW = None


def _pushpull_path(cluster: Cluster) -> list[Link]:
    """The links a push or pull crosses: node 0's NIC out, node 1's in.

    This is the PS traffic model (each node's NIC carries its own
    workers' push/pull volume, so one node's pair times every node's),
    not a sample of a larger flow set; it crosses no core link.
    """
    return [cluster.nic_out[0], cluster.nic_in[1]]


class ParameterServerBackend(DDLBackend):
    """One push/pull chain per transfer over a pool of connections.

    A configuration names its :attr:`pool`, passes the fields its
    framework exposes (the others keep their neutral defaults) and
    supplies :meth:`nic_bytes_per_gradient`.
    """

    #: Name of the connection pool; a chain's own event is
    #: ``<pool>.pushpull``.
    pool: t.ClassVar[str]

    def __init__(self, num_connections: int, *,
                 partition_bytes: float = math.inf,
                 extra_cpu_server_nodes: int = 0,
                 per_key_overhead_s: float = 0.0,
                 server_overhead_s: float = 0.0) -> None:
        # A fractional pool size would never run out of free connections.
        self.num_connections = require_count(
            "num_connections", num_connections, 1, TrainingError)
        #: Dedicated CPU server machines (the paper's setup has none).
        self.extra_cpu_server_nodes = require_count(
            "extra_cpu_server_nodes", extra_cpu_server_nodes, 0,
            TrainingError)
        #: Tensors are cut into parts of at most this many bytes; the
        #: default sends whole keys.
        self.partition_bytes = partition_bytes
        #: Serialization before each push, and aggregation on the server
        #: between a push and its pull.
        self.per_key_overhead_s = require_real(
            "per_key_overhead_s", per_key_overhead_s, TrainingError)
        self.server_overhead_s = require_real(
            "server_overhead_s", server_overhead_s, TrainingError)
        #: ``network -> dedicated-server NIC``: one link per run, so a
        #: reused backend never carries a previous cluster's capacity.
        self._server_links: weakref.WeakKeyDictionary[FluidNetwork, Link] \
            = weakref.WeakKeyDictionary()

    @abc.abstractmethod
    def nic_bytes_per_gradient(self, ctx: TrainContext,
                               grad_bytes: float) -> float:
        """Per-worker-node NIC bytes (one direction) to push one
        gradient of ``grad_bytes``; 0 on a single node."""

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
                              self._push_pull(ctx), name=self.pool)
        partition_bytes = self.partition_bytes
        for delay, parameters in ctx.backward_steps():
            if delay:
                yield ctx.sim.timeout(delay)
            for parameter in parameters:
                size = ctx.wire_bytes(parameter)
                if size > partition_bytes:
                    for part in self._partition(size):
                        pool.submit(part)
                else:
                    pool.submit(size)
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
        """The iteration's transfer: one push/pull chain per item.

        The chain is ``[per_key_overhead_s] -> push flow ->
        [server_overhead_s] -> pull flow``; a zero overhead is no step.
        On one node, with no inter-node NIC bytes, it is
        ``[per_key_overhead_s] -> one NVLink flow of 2 x bytes``.  A
        chain of exactly one flow returns that flow's event; a longer
        one returns a ``<pool>.pushpull`` event with the outcome of its
        last step or of its first failed flow.  The path, the cap and
        the steps are set up once per iteration, the NIC bytes once per
        distinct item size.
        """
        sim, network = ctx.sim, ctx.network
        single_node = ctx.cluster.num_nodes == 1
        if single_node:
            path, cap = [ctx.cluster.nvlink[0]], None
            steps = (self.per_key_overhead_s, _FLOW)
        else:
            path = _pushpull_path(ctx.cluster)
            cap = ctx.cluster.stream_cap_bps()
            if self.extra_cpu_server_nodes:
                # Dedicated server NICs can become the bottleneck when
                # too few CPU machines are subscribed.
                path.append(self._server_link(ctx))
            steps = (self.per_key_overhead_s, _FLOW,
                     self.server_overhead_s, _FLOW)
        steps = tuple(step for step in steps if step != 0)
        if steps == (_FLOW,):
            return lambda size: network.start_flow(path, 2 * size)
        name = f"{self.pool}.pushpull"
        last = len(steps)
        nic_bytes: dict[float, float] = {}

        def advance(done: Event, nbytes: float, index: int,
                    event: Event) -> None:
            # The step before ``index`` is done: start step ``index``.
            # The last step relays its outcome to ``done``.  The state
            # rides in partials, not in a closure per transfer, so a
            # finished chain is freed without the cycle collector.
            if not event._ok:
                relay(done, event)
                return
            step = steps[index]
            if step is _FLOW:
                event = network.start_flow(path, nbytes, rate_cap_bps=cap)
            else:
                event = sim.timeout(step)
            index += 1
            event.add_callback(
                functools.partial(advance, done, nbytes, index)
                if index < last else functools.partial(relay, done))

        def push_pull(size: float) -> Event:
            nbytes = nic_bytes.get(size)
            if nbytes is None:
                nbytes = nic_bytes[size] = 2 * size if single_node else max(
                    self.nic_bytes_per_gradient(ctx, size),
                    self.server_nic_bytes_per_gradient(ctx, size))
            done = sim.event(name=name)
            step = steps[0]
            if step is _FLOW:
                event = network.start_flow(path, nbytes, rate_cap_bps=cap)
            else:
                event = sim.timeout(step)
            event.add_callback(functools.partial(advance, done, nbytes, 1))
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
            link = Link(f"{self.pool}.server-nic", capacity)
            self._server_links[ctx.network] = link
        return link


class BytePSBackend(ParameterServerBackend):
    """Co-located parameter-server push/pull (BytePS semantics)."""

    name = "byteps"
    pool = "byteps"

    def __init__(self, partition_bytes: float = 4e6,
                 num_connections: int = 4,
                 extra_cpu_server_nodes: int = 0,
                 server_overhead_s: float = 50e-6) -> None:
        require_real("partition_bytes", partition_bytes, TrainingError,
                     positive=True)
        super().__init__(num_connections, partition_bytes=partition_bytes,
                         extra_cpu_server_nodes=extra_cpu_server_nodes,
                         server_overhead_s=server_overhead_s)

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


class MXNetKVStoreBackend(ParameterServerBackend):
    """Whole-key parameter server with minimal pipelining (KVStore)."""

    name = "mxnet-kvstore"
    pool = "kvstore"

    def __init__(self, per_key_overhead_s: float = 100e-6,
                 num_connections: int = 2) -> None:
        # Two connections: KVStore overlaps the push of one key with the
        # pull of another, but far less aggressively than BytePS's
        # partitioned pipeline.
        super().__init__(num_connections,
                         per_key_overhead_s=per_key_overhead_s)

    def nic_bytes_per_gradient(self, ctx: TrainContext,
                               grad_bytes: float) -> float:
        """The node's ``g`` workers each push the remote ``(m-1)/m`` of
        the key."""
        g = ctx.cluster.spec.gpus_per_node
        m = ctx.cluster.num_nodes
        return g * grad_bytes * (m - 1) / m
