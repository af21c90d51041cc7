"""Tests for the baseline communication backends."""

import pytest

from repro.errors import ReproError, TrainingError
from repro.frameworks import (
    BytePSBackend,
    HorovodBackend,
    MXNetKVStoreBackend,
    PyTorchDDPBackend,
    available_backends,
    make_backend,
)
from repro.frameworks.base import ReadyGradient, TrainContext
from repro.collectives.timed import TimedCollectives
from repro.models import ParameterSpec, get_model
from repro.sim import FluidNetwork, Simulator, alibaba_v100_cluster
from repro.training.trainer import run_training


def make_ctx(model="resnet50", num_gpus=16, batch=32):
    sim = Simulator()
    net = FluidNetwork(sim)
    cluster = alibaba_v100_cluster(sim, num_gpus)
    return TrainContext(
        sim=sim, network=net, cluster=cluster,
        collectives=TimedCollectives(sim, net, cluster),
        model=get_model(model), batch_per_gpu=batch,
    )


def ready(name, elements, grad_id, at=0.0):
    return ReadyGradient(ParameterSpec(name, elements), grad_id, at)


class TestRegistry:
    def test_available_backends(self):
        assert set(available_backends()) == {
            "aiacc", "horovod", "pytorch-ddp", "byteps", "mxnet-kvstore"}

    def test_make_backend_unknown_rejected(self):
        with pytest.raises(ReproError):
            make_backend("gloo")

    def test_make_backend_with_options(self):
        backend = make_backend("horovod", cycle_time_s=1e-3)
        assert backend.cycle_time_s == 1e-3

    def test_make_aiacc_with_kwargs(self):
        backend = make_backend("aiacc", num_streams=4)
        assert backend.config.num_streams == 4


#: Sizes and periods must be finite and positive, overheads finite and
#: non-negative.
BAD_VALUES = [
    (backend, param, value)
    for backend, param in [(BytePSBackend, "partition_bytes"),
                           (PyTorchDDPBackend, "bucket_bytes"),
                           (HorovodBackend, "fusion_buffer_bytes"),
                           (HorovodBackend, "cycle_time_s")]
    for value in (float("nan"), float("inf"))
] + [
    (backend, param, value)
    for backend, param in [(BytePSBackend, "server_overhead_s"),
                           (MXNetKVStoreBackend, "per_key_overhead_s"),
                           (PyTorchDDPBackend, "launch_overhead_s"),
                           (HorovodBackend, "master_service_per_worker_s"),
                           (HorovodBackend, "master_service_per_entry_s")]
    for value in (-1e-6, float("nan"), float("inf"))
] + [
    # Connection and server counts are integers: a pool of 2.5
    # connections counted down to -0.5 free and never ran out.
    (backend, "num_connections", value)
    for backend in (BytePSBackend, MXNetKVStoreBackend)
    for value in (0, 2.5, float("nan"), float("inf"))
] + [
    (BytePSBackend, "extra_cpu_server_nodes", value)
    for value in (-1, 0.5, float("nan"))
]


@pytest.mark.parametrize("backend,param,value", BAD_VALUES,
                         ids=lambda v: getattr(v, "name", str(v)))
def test_bad_size_or_overhead_rejected_at_construction(backend, param,
                                                       value):
    with pytest.raises(TrainingError, match=param):
        backend(**{param: value})


class TestHorovod:
    def test_negotiation_cost_scales_with_workers(self):
        backend = HorovodBackend()
        small = make_ctx(num_gpus=16)
        large = make_ctx(num_gpus=256)
        assert backend.negotiation_delay_s(large, 100) > \
            4 * backend.negotiation_delay_s(small, 100)

    def test_negotiation_cost_scales_with_tensors(self):
        # The CTR failure mode: thousands of tensor entries serialize at
        # the master (paper §VIII-C).
        backend = HorovodBackend()
        ctx = make_ctx(num_gpus=128)
        assert backend.negotiation_delay_s(ctx, 8000) > \
            10 * backend.negotiation_delay_s(ctx, 100)

    def test_fusion_packs_up_to_buffer_size(self):
        backend = HorovodBackend(fusion_buffer_bytes=100)
        ctx = make_ctx()
        grads = [ready(f"g{i}", 10, i) for i in range(6)]  # 40 bytes each
        buffers = backend.pack_fusion_buffers(ctx, grads)
        assert buffers == [80, 80, 80]

    def test_oversized_tensor_not_split(self):
        # Unlike AIACC, Horovod sends a huge tensor whole.
        backend = HorovodBackend(fusion_buffer_bytes=100)
        ctx = make_ctx()
        buffers = backend.pack_fusion_buffers(
            ctx, [ready("huge", 1000, 0)])
        assert buffers == [4000]

    def test_invalid_params_rejected(self):
        with pytest.raises(TrainingError):
            HorovodBackend(cycle_time_s=0)

    def test_end_to_end_iteration(self):
        result = run_training("resnet50", HorovodBackend(), 16,
                              measure_iterations=2, warmup_iterations=1)
        assert result.throughput > 0
        assert result.scaling_efficiency < 1.0


class TestPyTorchDDP:
    def test_buckets_reverse_registration_order(self):
        backend = PyTorchDDPBackend(bucket_bytes=25e6)
        ctx = make_ctx("resnet50")
        buckets = backend.build_buckets(ctx)
        # First bucket holds the LAST parameters (output layer first).
        params = ctx.model.parameters()
        assert buckets[0][0] == params[-1].name
        assert sum(len(b) for b in buckets) == len(params)

    def test_bucket_sizes_near_cap(self):
        backend = PyTorchDDPBackend(bucket_bytes=25e6)
        ctx = make_ctx("vgg16")
        buckets = backend.build_buckets(ctx)
        sizes = backend._bucket_sizes(ctx, buckets)
        # No bucket except oversized single tensors goes far beyond cap.
        for names, size in zip(buckets, sizes):
            if len(names) > 1:
                assert size <= 25e6 * 1.01

    def test_invalid_params_rejected(self):
        with pytest.raises(TrainingError):
            PyTorchDDPBackend(bucket_bytes=-1)
        with pytest.raises(TrainingError):
            PyTorchDDPBackend(stream_cap_scale=0)

    def test_end_to_end_iteration(self):
        result = run_training("resnet50", PyTorchDDPBackend(), 16,
                              measure_iterations=2, warmup_iterations=1)
        assert result.throughput > 0


class TestBytePS:
    def test_nic_volume_blowup_without_cpu_servers(self):
        # Co-located servers: the NIC carries the node's worker pushes
        # (g x S x remote share) PLUS the local server's traffic for all
        # remote workers ((n-g) x S / m).
        backend = BytePSBackend()
        ctx = make_ctx(num_gpus=16)  # 2 nodes x 8 GPUs
        per_nic = backend.nic_bytes_per_gradient(ctx, 1e6)
        expected = 8 * 1e6 * 0.5 + 8 * 1e6 / 2
        assert per_nic == pytest.approx(expected)

    def test_extra_cpu_servers_offload_worker_nic(self):
        # Dedicated CPU servers absorb the server-side traffic, so the
        # worker NIC carries less — the paper's "extra financial cost"
        # fix.
        with_extra = BytePSBackend(extra_cpu_server_nodes=6)
        without = BytePSBackend()
        ctx = make_ctx(num_gpus=32)  # 4 nodes: 12S co-located vs 8S
        assert with_extra.nic_bytes_per_gradient(ctx, 1e6) < \
            without.nic_bytes_per_gradient(ctx, 1e6)

    def test_enough_cpu_servers_improve_throughput(self):
        starved = run_training("vgg16", BytePSBackend(), 32,
                               measure_iterations=2, warmup_iterations=1)
        provisioned = run_training(
            "vgg16", BytePSBackend(extra_cpu_server_nodes=8), 32,
            measure_iterations=2, warmup_iterations=1)
        assert provisioned.throughput > starved.throughput

    def test_too_few_dedicated_servers_bottleneck(self):
        backend = BytePSBackend(extra_cpu_server_nodes=1)
        ctx = make_ctx(num_gpus=64)
        # One server NIC must absorb every worker's shard: n x S.
        assert backend.server_nic_bytes_per_gradient(ctx, 1e6) == \
            pytest.approx(64e6)

    def test_reused_backend_builds_server_link_per_network(self):
        # The dedicated-server NIC takes its capacity from the run's
        # cluster; a backend reused on a faster cluster must not keep
        # the first run's 30 Gb/s link (it measured 0.98559 s).
        def mean_step(backend, nic_bps):
            return run_training("resnet50", backend, 16,
                                nic_bandwidth_bps=nic_bps).mean_iteration_s

        reused = BytePSBackend(extra_cpu_server_nodes=1)
        assert mean_step(reused, 30e9) == pytest.approx(0.99832, abs=5e-6)
        fresh = mean_step(BytePSBackend(extra_cpu_server_nodes=1), 100e9)
        assert fresh == pytest.approx(0.36153, abs=5e-6)
        assert mean_step(reused, 100e9) == fresh

    def test_single_node_stays_on_nvlink(self):
        backend = BytePSBackend()
        ctx = make_ctx(num_gpus=8)
        assert backend.nic_bytes_per_gradient(ctx, 1e6) == 0.0

    def test_partitioning(self):
        backend = BytePSBackend(partition_bytes=4e6)
        assert backend._partition(10e6) == [4e6, 4e6, 2e6]
        assert backend._partition(1e6) == [1e6]

    def test_slower_than_allreduce_at_scale(self):
        byteps = run_training("vgg16", BytePSBackend(), 32,
                              measure_iterations=2, warmup_iterations=1)
        horovod = run_training("vgg16", HorovodBackend(), 32,
                               measure_iterations=2, warmup_iterations=1)
        assert byteps.throughput < horovod.throughput


class TestMXNetKVStore:
    def test_slower_than_provisioned_byteps(self):
        # Whole-key serial push/pull loses to BytePS's partitioned
        # pipelining once BytePS has its recommended CPU servers (the
        # co-located configurations carry different PS volume models, so
        # the clean comparison is against a provisioned BytePS).
        kvstore = run_training("resnet50", MXNetKVStoreBackend(), 32,
                               measure_iterations=2, warmup_iterations=1)
        byteps = run_training(
            "resnet50", BytePSBackend(extra_cpu_server_nodes=8), 32,
            measure_iterations=2, warmup_iterations=1)
        assert kvstore.throughput < byteps.throughput

    def test_end_to_end_single_node(self):
        result = run_training("resnet50", MXNetKVStoreBackend(), 8,
                              measure_iterations=2, warmup_iterations=1)
        assert result.scaling_efficiency > 0.8


class TestCrossBackendOrdering:
    """The headline comparison: AIACC wins on every multi-node setting."""

    @pytest.mark.parametrize("model", ["vgg16", "resnet50", "bert-large"])
    def test_aiacc_fastest_at_32_gpus(self, model):
        results = {
            name: run_training(model, name, 32, measure_iterations=2,
                               warmup_iterations=1).throughput
            for name in ("aiacc", "horovod", "pytorch-ddp", "byteps")
        }
        assert max(results, key=results.get) == "aiacc"

    def test_all_backends_equal_on_single_gpu_compute_bound(self):
        # On one node with NVLink, communication is nearly free: backends
        # should agree within a few percent.
        results = [
            run_training("resnet50", name, 8, measure_iterations=2,
                         warmup_iterations=1).throughput
            for name in ("aiacc", "horovod", "pytorch-ddp")
        ]
        assert max(results) / min(results) < 1.1
