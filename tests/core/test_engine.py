"""Tests for the timed AIACC engine and the stream pool."""

import pytest

from repro.core.engine import AIACCBackend
from repro.core.runtime import AIACCConfig
from repro.core.streams import CommStreamPool
from repro.errors import TrainingError
from repro.sim import GPUDevice, Simulator, V100
from repro.training.trainer import run_training


class TestCommStreamPool:
    def make_pool(self, streams=8, occupancy=0.5):
        sim = Simulator()
        pool = CommStreamPool(sim, GPUDevice(V100), streams, occupancy)
        return sim, pool

    def test_occupancy_limits_streams(self):
        # 80 SMs, 90% busy -> 8 free -> 4 comm streams of 2 SMs each.
        sim, pool = self.make_pool(streams=24, occupancy=0.9)
        pool.compute_started()
        assert pool.effective_streams == 4

    def test_idle_gpu_grants_all_streams(self):
        sim, pool = self.make_pool(streams=24, occupancy=0.9)
        pool.compute_started()
        pool.compute_finished()
        assert pool.effective_streams == 24

    def test_units_queue_when_pool_exhausted(self):
        sim, pool = self.make_pool(streams=2, occupancy=0.5)
        done_times = []

        for _ in range(4):
            unit = pool.start_unit(lambda: sim.timeout(1.0))
            unit.add_callback(lambda _ev: done_times.append(sim.now))
        sim.run()
        assert done_times == [1.0, 1.0, 2.0, 2.0]

    def test_weighted_units_serialize(self):
        # A hierarchical unit taking all 8 streams blocks other units.
        sim, pool = self.make_pool(streams=8, occupancy=0.0)
        order = []

        def heavy():
            order.append(("heavy-start", sim.now))
            return sim.timeout(1.0)

        def light():
            order.append(("light-start", sim.now))
            return sim.timeout(0.1)

        pool.start_unit(heavy, streams=8)
        pool.start_unit(light, streams=1)
        sim.run()
        assert order == [("heavy-start", 0.0), ("light-start", 1.0)]

    def test_setup_latency_scales_with_streams(self):
        sim = Simulator()
        pool = CommStreamPool(sim, GPUDevice(V100), 10, 0.5,
                              setup_latency_s=1e-3)
        done = pool.setup()
        sim.run(until=done)
        assert sim.now == pytest.approx(10e-3)

    def test_setup_latency_attributes_unambiguous(self):
        # The constructor argument is per-stream; the derived total is a
        # separate, explicitly named attribute (the old code silently
        # redefined `setup_latency_s` from per-stream to total).
        sim = Simulator()
        pool = CommStreamPool(sim, GPUDevice(V100), 10, 0.5,
                              setup_latency_s=1e-3)
        assert pool.per_stream_setup_latency_s == pytest.approx(1e-3)
        assert pool.total_setup_latency_s == pytest.approx(10e-3)

    def test_dispatched_units_counts_grants(self):
        sim, pool = self.make_pool(streams=2, occupancy=0.5)

        for _ in range(4):
            pool.start_unit(lambda: sim.timeout(1.0))
        sim.run()
        assert pool.dispatched_units == 4

    def test_cancelled_request_not_counted_as_dispatch(self):
        # Count on grant, not on request: a queued acquire withdrawn by
        # an interrupt never dispatched anything.
        sim, pool = self.make_pool(streams=1, occupancy=0.0)

        def never():
            return sim.event(name="hung")

        pool.start_unit(never)
        queued = pool.start_unit(never)
        sim.run(until=sim.timeout(1.0))
        assert pool.in_flight == 1
        pool.cancel(queued, "abort")
        sim.run(until=queued)
        assert pool.dispatched_units == 1


class TestAIACCBackend:
    def test_iteration_without_warmup_rejected(self):
        backend = AIACCBackend()
        result = run_training("resnet50", backend, 8, measure_iterations=1,
                              warmup_iterations=0)
        # run_training always calls warmup; direct misuse must raise.
        fresh = AIACCBackend()
        with pytest.raises(TrainingError):
            next(fresh.iteration(object()))

    def test_more_streams_speed_up_comm_bound_model(self):
        few = run_training(
            "vgg16", AIACCBackend(AIACCConfig(num_streams=1)), 32,
            measure_iterations=2, warmup_iterations=1)
        many = run_training(
            "vgg16", AIACCBackend(AIACCConfig(num_streams=16)), 32,
            measure_iterations=2, warmup_iterations=1)
        assert many.throughput > few.throughput * 1.5

    def test_single_stream_close_to_horovod(self):
        # With one stream and large units, AIACC loses its key advantage;
        # it should be in the same ballpark as Horovod (its decentralized
        # sync still helps a little).
        single = run_training(
            "vgg16", AIACCBackend(AIACCConfig(
                num_streams=1, granularity_bytes=64e6)), 32,
            measure_iterations=2, warmup_iterations=1)
        horovod = run_training("vgg16", "horovod", 32,
                               measure_iterations=2, warmup_iterations=1)
        ratio = single.throughput / horovod.throughput
        assert 0.7 < ratio < 1.5

    def test_registry_counts_units_and_syncs(self):
        from repro.obs import Observability

        from repro.models import get_model

        obs = Observability()
        run_training("resnet50", AIACCBackend(), 16, measure_iterations=2,
                     warmup_iterations=1, obs=obs)
        registry = obs.registry
        iterations = registry.get("aiacc_iterations_total").value()
        assert iterations == 3
        units = registry.get("aiacc_units_total").value()
        assert units > 0
        assert registry.get("aiacc_sync_rounds_total").value() > 0
        # Every gradient of every iteration is counted exactly once, and
        # every launched unit observes its wire size once.
        assert registry.get("aiacc_gradients_total").value() == \
            iterations * len(get_model("resnet50").parameters())
        assert registry.get("aiacc_unit_bytes").state().count == units

    def test_fp16_compression_reduces_comm_time(self):
        plain = run_training(
            "bert-large", AIACCBackend(AIACCConfig(num_streams=4)), 16,
            measure_iterations=2, warmup_iterations=1)
        compressed = run_training(
            "bert-large", AIACCBackend(AIACCConfig(
                num_streams=4, fp16_compression=True)), 16,
            measure_iterations=2, warmup_iterations=1)
        assert compressed.exposed_comm_s < plain.exposed_comm_s


class TestBatchAwareOccupancy:
    """Paper footnote 5: small batches free SMs for comm streams."""

    def test_effective_occupancy_scales_with_batch(self):
        from repro.frameworks.base import TrainContext
        from repro.collectives.timed import TimedCollectives
        from repro.models import get_model
        from repro.sim import FluidNetwork, Simulator
        from repro.sim import alibaba_v100_cluster

        def ctx_at(batch):
            sim = Simulator()
            net = FluidNetwork(sim)
            cluster = alibaba_v100_cluster(sim, 16)
            return TrainContext(
                sim=sim, network=net, cluster=cluster,
                collectives=TimedCollectives(sim, net, cluster),
                model=get_model("bert-large"), batch_per_gpu=batch)

        full = ctx_at(16)   # BERT default batch
        tiny = ctx_at(2)
        assert tiny.effective_occupancy < full.effective_occupancy
        assert full.effective_occupancy == pytest.approx(0.85)
        # Occupancy never exceeds the nominal value.
        big = ctx_at(64)
        assert big.effective_occupancy == pytest.approx(0.85)

    def test_small_batch_gets_more_streams(self):
        from repro.sim import GPUDevice, V100
        from repro.frameworks.base import TrainContext
        from repro.collectives.timed import TimedCollectives
        from repro.models import get_model
        from repro.sim import FluidNetwork, Simulator
        from repro.sim import alibaba_v100_cluster

        sim = Simulator()
        net = FluidNetwork(sim)
        cluster = alibaba_v100_cluster(sim, 16)
        model = get_model("bert-large")
        device = GPUDevice(V100)

        def streams_at(batch):
            ctx = TrainContext(
                sim=sim, network=net, cluster=cluster,
                collectives=TimedCollectives(sim, net, cluster),
                model=model, batch_per_gpu=batch)
            return device.max_concurrent_comm_streams(
                ctx.effective_occupancy)

        assert streams_at(2) > streams_at(16)
