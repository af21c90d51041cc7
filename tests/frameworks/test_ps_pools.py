"""Differential tests: PS connection pools against per-transfer processes.

BytePS and MXNet KVStore run their push/pulls on a
:class:`~repro.frameworks.base.ConnectionPool`: a FIFO queue and a count
of ``num_connections`` free connections, each transfer a chain of
callbacks.  The oracles below keep the previous scheduling: one process
per transfer, gated by a FIFO :class:`~repro.sim.resources.Resource` of
connections, each running the push/pull generator kept verbatim here.
Both grant transfers in the same order, and every PS flow of a cell
shares one path and one cap, so the simulated iteration times must be
equal, not merely close.
"""

import typing as t

import pytest

from repro.errors import SimulationError
from repro.frameworks import (
    BytePSBackend,
    HorovodBackend,
    MXNetKVStoreBackend,
)
from repro.frameworks.base import (
    ConnectionPool,
    IterationStats,
    TrainContext,
    UPDATE_TIME_S,
)
from repro.models import get_model
from repro.models.base import ParameterSpec
from repro.sim.rdma import RDMA
from repro.sim.resources import Resource
from repro.sim.tcp import TCP
from repro.training.trainer import build_train_context, run_training


class _PerTransferIteration:
    """One process per transfer, each queueing on a connection semaphore."""

    pushpull_name: str

    def _items(self, ctx: TrainContext,
               parameter: ParameterSpec) -> list[float]:
        raise NotImplementedError

    def iteration(self, ctx: TrainContext) -> t.Generator:
        start = ctx.sim.now
        yield ctx.sim.timeout(ctx.forward_time_s)

        connections = Resource(ctx.sim, self.num_connections,
                               name="oracle.connections")
        transfers: list = []

        for delay, parameters in ctx.backward_steps():
            if delay:
                yield ctx.sim.timeout(delay)
            for parameter in parameters:
                for size in self._items(ctx, parameter):
                    transfers.append(ctx.sim.spawn(
                        self._gated(ctx, connections, size),
                        name=self.pushpull_name))
        if transfers:
            yield ctx.sim.all_of(transfers)
        yield ctx.sim.timeout(UPDATE_TIME_S)
        return IterationStats(
            iteration_time_s=ctx.sim.now - start,
            compute_time_s=ctx.compute_time_s,
        )

    def _gated(self, ctx: TrainContext, connections: Resource,
               size: float) -> t.Generator:
        yield connections.acquire()
        try:
            yield from self._oracle_push_pull(ctx, size)
        finally:
            connections.release()


class OracleBytePS(_PerTransferIteration, BytePSBackend):
    pushpull_name = "byteps.pushpull"

    def _items(self, ctx, parameter):
        return self._partition(ctx.wire_bytes(parameter))

    def _oracle_push_pull(self, ctx: TrainContext,
                          part_bytes: float) -> t.Generator:
        """Push one partition to its server, then pull the aggregate."""
        nic_bytes = self.nic_bytes_per_gradient(ctx, part_bytes)
        if nic_bytes <= 0:
            # Single node (or all-local servers): NVLink/loopback only.
            yield ctx.network.start_flow(
                [ctx.cluster.nvlink[0]], 2 * part_bytes)
            return
        cap = ctx.cluster.stream_cap_bps()
        hop = [ctx.cluster.nic_out[0], ctx.cluster.nic_in[1]]
        server_bytes = self.server_nic_bytes_per_gradient(ctx, part_bytes)
        if server_bytes:
            # Dedicated server NICs can become the bottleneck when
            # too few CPU machines are subscribed.
            hop.append(self._server_link(ctx))
            nic_bytes = max(nic_bytes, server_bytes)
        # Push ...
        yield ctx.network.start_flow(hop, nic_bytes, rate_cap_bps=cap)
        yield ctx.sim.timeout(self.server_overhead_s)
        # ... then pull the reduced value back.
        yield ctx.network.start_flow(hop, nic_bytes, rate_cap_bps=cap)


class OracleKVStore(_PerTransferIteration, MXNetKVStoreBackend):
    pushpull_name = "kvstore.pushpull"

    def _items(self, ctx, parameter):
        return [ctx.wire_bytes(parameter)]

    def _oracle_push_pull(self, ctx: TrainContext,
                          size: float) -> t.Generator:
        """Serial whole-key push then pull on one connection."""
        g = ctx.cluster.spec.gpus_per_node
        m = ctx.cluster.num_nodes
        yield ctx.sim.timeout(self.per_key_overhead_s)
        if m == 1:
            yield ctx.network.start_flow([ctx.cluster.nvlink[0]], 2 * size)
            return
        nic_bytes = g * size * (m - 1) / m
        cap = ctx.cluster.stream_cap_bps()
        hop = [ctx.cluster.nic_out[0], ctx.cluster.nic_in[1]]
        yield ctx.network.start_flow(hop, nic_bytes, rate_cap_bps=cap)
        yield ctx.network.start_flow(hop, nic_bytes, rate_cap_bps=cap)


def iteration_times(backend, model, gpus):
    return run_training(model, backend, gpus, measure_iterations=2,
                        warmup_iterations=1).iteration_times_s


#: Largest wire size of a resnet50 gradient (fp32, so a multiple of 4):
#: a quarter of it divides that tensor exactly.
_RESNET_MAX_BYTES = max(p.num_elements for p in
                        get_model("resnet50").parameters()) * 4

BYTEPS_CELLS = (
    ("1-node-nvlink", "resnet50", 8, {}),
    ("2-nodes", "resnet50", 16, {}),
    ("32-nodes", "resnet50", 256, {}),
    ("2-servers", "resnet50", 16, {"extra_cpu_server_nodes": 2}),
    ("32-nodes-2-servers", "vgg16", 256, {"extra_cpu_server_nodes": 2}),
    ("1-connection", "resnet50", 16, {"num_connections": 1}),
    ("4-connections-bert", "bert-large", 16, {"num_connections": 4}),
    ("exact-partitions", "resnet50", 16,
     {"partition_bytes": _RESNET_MAX_BYTES / 4}),
    ("remainder-partitions", "resnet50", 16, {"partition_bytes": 3e6}),
    ("no-server-overhead", "resnet50", 16, {"server_overhead_s": 0}),
)

KVSTORE_CELLS = tuple(
    (f"{model}-{gpus}-{connections}", model, gpus,
     {"num_connections": connections})
    for model, gpus in (("resnet50", 8), ("resnet50", 16), ("vgg16", 64))
    for connections in (1, 2)
) + (
    ("1-node-no-key-overhead", "resnet50", 8, {"per_key_overhead_s": 0}),
    ("2-nodes-no-key-overhead", "resnet50", 16, {"per_key_overhead_s": 0}),
)


class TestPoolMatchesPerTransferOracle:
    @pytest.mark.parametrize("model, gpus, options",
                             [cell[1:] for cell in BYTEPS_CELLS],
                             ids=[cell[0] for cell in BYTEPS_CELLS])
    def test_byteps(self, model, gpus, options):
        pooled = iteration_times(BytePSBackend(**options), model, gpus)
        oracle = iteration_times(OracleBytePS(**options), model, gpus)
        assert pooled == oracle

    @pytest.mark.parametrize("model, gpus, options",
                             [cell[1:] for cell in KVSTORE_CELLS],
                             ids=[cell[0] for cell in KVSTORE_CELLS])
    def test_kvstore(self, model, gpus, options):
        pooled = iteration_times(MXNetKVStoreBackend(**options), model, gpus)
        oracle = iteration_times(OracleKVStore(**options), model, gpus)
        assert pooled == oracle

    def test_exact_partition_leaves_no_remainder(self):
        backend = BytePSBackend(partition_bytes=_RESNET_MAX_BYTES / 4)
        assert backend._partition(_RESNET_MAX_BYTES) == \
            [_RESNET_MAX_BYTES / 4] * 4


class _Boom(RuntimeError):
    pass


def _failing(sim, delay, exc):
    """An event that fails with ``exc`` after ``delay``."""
    event = sim.event()
    sim.timeout(delay).add_callback(lambda _ev: event.fail(exc))
    return event


class TestConnectionFailure:
    @pytest.mark.parametrize("raises", (False, True),
                             ids=("event-fails", "serve-raises"))
    @pytest.mark.parametrize("backend_cls", (BytePSBackend,
                                             MXNetKVStoreBackend))
    def test_exception_in_one_connection_fails_the_iteration(
            self, backend_cls, raises):
        backend = backend_cls(num_connections=2)
        served = []

        def push_pull(ctx):
            def serve(size):
                index = len(served)
                served.append(size)
                if index != 2:
                    return ctx.sim.timeout(1e-4)
                if raises:
                    raise _Boom("connection lost")
                return _failing(ctx.sim, 1e-4, _Boom("connection lost"))
            return serve

        backend._push_pull = push_pull
        with pytest.raises(_Boom, match="connection lost"):
            run_training("resnet50", backend, 16, measure_iterations=1,
                         warmup_iterations=0)

    def test_failure_is_delivered_to_a_waiting_iteration(self):
        # The failure happens after the last submit, while the iteration
        # already waits on the pool: it must fail, not hang.
        from repro.frameworks.base import ConnectionPool
        from repro.sim import Simulator

        sim = Simulator()

        def serve(item):
            if item == 2.0:
                return _failing(sim, item, _Boom("late"))
            return sim.timeout(item)

        failed_at = []

        def iteration():
            pool = ConnectionPool(sim, 2, serve, name="test")
            for item in (1.0, 2.0, 3.0):
                pool.submit(item)
            try:
                yield pool.close()
            except _Boom:
                failed_at.append(sim.now)
                raise

        sim.spawn(iteration())
        with pytest.raises(_Boom, match="late"):
            sim.run()
        assert failed_at == [2.0]

    def test_returning_a_non_event_fails_the_pool(self):
        from repro.frameworks.base import ConnectionPool
        from repro.sim import Simulator

        sim = Simulator()

        def iteration():
            pool = ConnectionPool(sim, 1, lambda item: item, name="test")
            pool.submit("not an event")
            yield pool.close()

        sim.spawn(iteration())
        with pytest.raises(SimulationError, match="must return an Event"):
            sim.run()


class TestStaging:
    """``ConnectionPool.stage``: a PCIe copy timeout, not a process."""

    def make(self, transport):
        model = get_model("resnet50")
        ctx = build_train_context(model, HorovodBackend(), 16,
                                  model.default_batch_size,
                                  transport=transport)
        served = []

        def serve(item):
            served.append((item, ctx.sim.now))
            return ctx.sim.timeout(0.0)

        return ctx, ConnectionPool(ctx.sim, 1, serve, name="test"), served

    def test_copy_submits_when_it_fires(self):
        ctx, pool, served = self.make(TCP)
        spawned = ctx.sim.processes_spawned
        copy = pool.stage(ctx, 4e6)
        assert copy is not None
        assert ctx.sim.processes_spawned == spawned
        ctx.sim.run(until=copy)
        ctx.sim.run(until=pool.close())
        assert served == [(4e6, ctx.staging_time_s(4e6))]

    def test_nothing_to_copy_submits_at_once(self):
        ctx, pool, served = self.make(RDMA)
        assert ctx.staging_time_s(4e6) == 0.0
        assert pool.stage(ctx, 4e6) is None
        ctx.sim.run(until=pool.close())
        assert served == [(4e6, 0.0)]
