"""Tests for the one parameter-server model and its two configurations.

BytePS and the MXNet KVStore are two configurations of
:class:`~repro.frameworks.parameter_server.ParameterServerBackend`: the
base owns the iteration and the push/pull chain, and each configuration
only validates its own keywords and supplies its NIC-bytes rule.  The
per-step behaviour is checked against per-transfer oracles in
``test_ps_pools.py``; these tests pin the contract of the merge and
time one chain on its own.
"""

import inspect

import numpy as np
import pytest

from repro.collectives.timed import TimedCollectives
from repro.frameworks import (
    BytePSBackend,
    MXNetKVStoreBackend,
    available_backends,
    make_backend,
)
from repro.frameworks.base import TrainContext
from repro.frameworks.parameter_server import ParameterServerBackend
from repro.models import get_model
from repro.sim import FluidNetwork, Simulator, alibaba_v100_cluster

CONFIGURATIONS = (BytePSBackend, MXNetKVStoreBackend)


def make_ctx(num_gpus: int) -> TrainContext:
    sim = Simulator()
    net = FluidNetwork(sim)
    cluster = alibaba_v100_cluster(sim, num_gpus)
    return TrainContext(
        sim=sim, network=net, cluster=cluster,
        collectives=TimedCollectives(sim, net, cluster),
        model=get_model("resnet50"), batch_per_gpu=32,
    )


class TestOneModel:
    @pytest.mark.parametrize("method", ("iteration", "_push_pull",
                                        "_partition", "_server_link"))
    @pytest.mark.parametrize("backend", CONFIGURATIONS,
                             ids=lambda cls: cls.name)
    def test_configuration_keeps_the_shared_chain(self, backend, method):
        assert method not in vars(backend)
        assert getattr(backend, method) is \
            getattr(ParameterServerBackend, method)

    def test_base_is_abstract_and_unregistered(self):
        with pytest.raises(TypeError):
            ParameterServerBackend(1)
        built = {type(make_backend(name)) for name in available_backends()}
        assert ParameterServerBackend not in built
        assert {BytePSBackend, MXNetKVStoreBackend} <= built

    @pytest.mark.parametrize("backend, keywords", (
        (BytePSBackend, ["partition_bytes", "num_connections",
                         "extra_cpu_server_nodes", "server_overhead_s"]),
        (MXNetKVStoreBackend, ["per_key_overhead_s", "num_connections"]),
    ), ids=("byteps", "mxnet-kvstore"))
    def test_constructor_keywords(self, backend, keywords):
        params = inspect.signature(backend).parameters
        assert list(params) == keywords


#: Integer counts, numpy integers included, are accepted and kept as
#: plain ints.
GOOD_COUNTS = [
    (backend, "num_connections", value)
    for backend in CONFIGURATIONS
    for value in (1, np.int64(3))
] + [
    (BytePSBackend, "extra_cpu_server_nodes", value)
    for value in (0, np.int64(2))
]


@pytest.mark.parametrize("backend, param, value", GOOD_COUNTS,
                         ids=lambda v: getattr(v, "name", repr(v)))
def test_integer_counts_accepted(backend, param, value):
    count = getattr(backend(**{param: value}), param)
    assert count == int(value)
    assert type(count) is int


class TestNicBytesRules:
    """Each configuration's rule, float order included."""

    @pytest.mark.parametrize("gpus", (16, 24, 56, 256))
    def test_kvstore(self, gpus):
        ctx = make_ctx(gpus)
        g = ctx.cluster.spec.gpus_per_node
        m = ctx.cluster.num_nodes
        size = 102_760_448.0
        assert MXNetKVStoreBackend().nic_bytes_per_gradient(ctx, size) == \
            g * size * (m - 1) / m

    @pytest.mark.parametrize("gpus", (16, 24, 56, 256))
    def test_byteps_colocated(self, gpus):
        ctx = make_ctx(gpus)
        g = ctx.cluster.spec.gpus_per_node
        m = ctx.cluster.num_nodes
        n = ctx.cluster.world_size
        size = 102_760_448.0
        assert BytePSBackend().nic_bytes_per_gradient(ctx, size) == \
            g * size * ((m - 1) / m) + (n - g) * size / m


#: ``(id, backend, gpus, name of the returned event)``.  A chain of one
#: flow returns the flow's own event; a longer one returns the pool's.
CHAINS = (
    ("byteps-1-node", BytePSBackend(), 8, "flow.done"),
    ("byteps-2-nodes", BytePSBackend(), 16, "byteps.pushpull"),
    ("byteps-2-nodes-no-server-overhead",
     BytePSBackend(server_overhead_s=0), 16, "byteps.pushpull"),
    ("byteps-2-nodes-1-server",
     BytePSBackend(extra_cpu_server_nodes=1), 16, "byteps.pushpull"),
    ("kvstore-1-node", MXNetKVStoreBackend(), 8, "kvstore.pushpull"),
    ("kvstore-1-node-no-key-overhead",
     MXNetKVStoreBackend(per_key_overhead_s=0), 8, "flow.done"),
    ("kvstore-2-nodes", MXNetKVStoreBackend(), 16, "kvstore.pushpull"),
    ("kvstore-2-nodes-no-key-overhead",
     MXNetKVStoreBackend(per_key_overhead_s=0), 16, "kvstore.pushpull"),
)


def _lone_flow_s(gpus, backend, size):
    """Duration of one flow of the chain alone on a fresh cluster."""
    ctx = make_ctx(gpus)
    if ctx.cluster.num_nodes == 1:
        flow = ctx.network.start_flow([ctx.cluster.nvlink[0]], 2 * size)
    else:
        path = [ctx.cluster.nic_out[0], ctx.cluster.nic_in[1]]
        if backend.extra_cpu_server_nodes:
            path.append(backend._server_link(ctx))
        nbytes = max(backend.nic_bytes_per_gradient(ctx, size),
                     backend.server_nic_bytes_per_gradient(ctx, size))
        flow = ctx.network.start_flow(
            path, nbytes, rate_cap_bps=ctx.cluster.stream_cap_bps())
    ctx.sim.run()
    return flow.value


@pytest.mark.parametrize("backend, gpus, event_name",
                         [chain[1:] for chain in CHAINS],
                         ids=[chain[0] for chain in CHAINS])
class TestOneChain:
    SIZE = 4e6

    def test_returned_event(self, backend, gpus, event_name):
        ctx = make_ctx(gpus)
        done = backend._push_pull(ctx)(self.SIZE)
        assert done.name == event_name
        ctx.sim.run()
        assert done.ok

    def test_finish_time_is_the_sum_of_its_steps(self, backend, gpus,
                                                 event_name):
        # Overhead before the push, the push, the server overhead, the
        # pull; one 2 x bytes NVLink flow on a single node.
        ctx = make_ctx(gpus)
        flow_s = _lone_flow_s(gpus, backend, self.SIZE)
        flows = 1 if ctx.cluster.num_nodes == 1 else 2
        expected = (backend.per_key_overhead_s + flows * flow_s
                    + (flows - 1) * backend.server_overhead_s)
        backend._push_pull(ctx)(self.SIZE)
        ctx.sim.run()
        assert ctx.sim.now == pytest.approx(expected, rel=1e-12)
