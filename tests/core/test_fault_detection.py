"""Failure detection in the AIACC core (sync deadlines, unit timeouts,
stalled collectives, engine abort)."""

import pytest

from repro.core.registration import GradientRegistry
from repro.core.runtime import AIACCConfig
from repro.core.streams import CommStreamPool
from repro.core.synchronization import DecentralizedSynchronizer
from repro.errors import (
    PeerDeadError,
    ProcessInterrupt,
    ReproError,
    SyncTimeoutError,
)
from repro.models import ParameterSpec
from repro.obs import Observability
from repro.sim import Communicator, FluidNetwork, Simulator
from repro.sim.cuda import GPUDevice, V100
from repro.sim.topology import Cluster, NodeSpec
from repro.collectives.timed import TimedCollectives


def frozen_registry(names=("a", "b")):
    registry = GradientRegistry()
    for name in names:
        registry.register(ParameterSpec(name, 4))
    registry.freeze()
    for name in names:
        registry.mark_ready(name)
    return registry


class TestConfigValidation:
    def test_detection_fields_default_off(self):
        config = AIACCConfig()
        assert config.sync_timeout_s is None
        assert config.unit_timeout_s is None
        assert config.comm_retries == 2
        assert config.retry_backoff_s == 0.5

    @pytest.mark.parametrize("field,value", [
        ("sync_timeout_s", 0.0),
        ("sync_timeout_s", -1.0),
        ("unit_timeout_s", 0.0),
        ("comm_retries", -1),
        ("retry_backoff_s", -0.1),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ReproError):
            AIACCConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        # A NaN deadline failed mid-run (``unit_timeout_s``: every rate
        # zero) or put NaN entries in the heap (``sync_timeout_s``); a
        # NaN backoff or clamp was dropped by ``min()``.
        *((field, value)
          for field in ("sync_timeout_s", "unit_timeout_s",
                        "retry_backoff_s", "max_detection_deadline_s")
          for value in (float("nan"), float("inf"))),
        # A non-integer retry count failed mid-run in ``range()``.
        ("comm_retries", 1.5),
        ("comm_retries", True),
    ], ids=lambda value: str(value))
    def test_non_finite_deadlines_rejected_at_construction(self, field,
                                                           value):
        with pytest.raises(ReproError, match=field):
            AIACCConfig(**{field: value})

    def test_valid_detection_config(self):
        config = AIACCConfig(sync_timeout_s=1.0, unit_timeout_s=2.0,
                             comm_retries=0, retry_backoff_s=0.0)
        assert config.sync_timeout_s == 1.0


class TestSyncRoundTimeout:
    def test_missing_peer_raises_sync_timeout(self):
        """A rank whose ring peers never show up misses the deadline."""
        sim = Simulator()
        comm = Communicator(sim, size=2)
        sync = DecentralizedSynchronizer(sim, comm, rank=0,
                                         registry=frozen_registry())
        proc = sim.spawn(sync.sync_round(timeout_s=0.5))
        proc.add_callback(lambda _ev: None)
        sim.run(until=proc)
        assert not proc.ok
        error = proc.value
        assert isinstance(error, SyncTimeoutError)
        assert error.rank == 0
        assert error.round_index == 0
        assert error.deadline_s == 0.5
        assert sim.now == pytest.approx(0.5)

    def test_timeout_interrupts_ring_worker(self):
        """The timed-out worker must be torn down, not abandoned.

        An abandoned worker stays alive consuming this round's tags and
        peer messages, which collide with the retry round's exchanges.
        """
        sim = Simulator()
        comm = Communicator(sim, size=2)
        sync = DecentralizedSynchronizer(sim, comm, rank=0,
                                         registry=frozen_registry())
        proc = sim.spawn(sync.sync_round(timeout_s=0.5))
        proc.add_callback(lambda _ev: None)
        sim.run(until=proc)
        assert isinstance(proc.value, SyncTimeoutError)
        sim.run()
        # No leftover getter: an interrupted receiver withdraws its
        # pending recv, so a late peer message cannot be stolen.
        assert all(not waiting for waiting in comm._waiting.values())

    def test_retry_round_works_after_timeout(self):
        """After rank 0 times out alone, a full retry round succeeds."""
        sim = Simulator()
        comm = Communicator(sim, size=2)
        registries = [frozen_registry(), frozen_registry()]
        syncs = [DecentralizedSynchronizer(sim, comm, rank, registries[rank])
                 for rank in range(2)]
        failed = sim.spawn(syncs[0].sync_round(timeout_s=0.5))
        failed.add_callback(lambda _ev: None)
        sim.run(until=failed)
        assert isinstance(failed.value, SyncTimeoutError)
        # Keep the round numbers aligned: rank 1 burns its round 0 too
        # (its worker sits waiting, as a slow-but-alive peer would).
        burn = sim.spawn(syncs[1].sync_round(timeout_s=0.5))
        burn.add_callback(lambda _ev: None)
        sim.run(until=burn)
        retry = [sim.spawn(s.sync_round(timeout_s=60.0)) for s in syncs]
        sim.run(until=sim.all_of(retry))
        for proc in retry:
            assert proc.ok
            assert list(proc.value) == [0, 1]

    def test_healthy_round_unaffected_by_deadline(self):
        sim = Simulator()
        comm = Communicator(sim, size=2)
        procs = []
        for rank in range(2):
            sync = DecentralizedSynchronizer(sim, comm, rank=rank,
                                             registry=frozen_registry())
            procs.append(sim.spawn(sync.sync_round(timeout_s=60.0)))
        sim.run(until=sim.all_of(procs))
        for proc in procs:
            assert proc.ok
            assert list(proc.value) == [0, 1]


class TestStalledCollectives:
    def make(self, num_nodes=2):
        sim = Simulator()
        cluster = Cluster(sim, num_nodes, NodeSpec(gpus_per_node=2))
        network = FluidNetwork(sim)
        obs = Observability()
        collectives = TimedCollectives(sim, network, cluster, obs=obs)
        return sim, cluster, collectives, obs

    def test_allreduce_hangs_when_node_dead(self):
        sim, cluster, collectives, obs = self.make()
        cluster.fail_node(1)
        done = collectives.allreduce(1e6)
        sim.run(until=sim.timeout(120.0))
        assert not done.triggered
        assert obs.fault_counts() == {"stalled_collectives": 1}

    def test_control_roundtrip_hangs_when_node_dead(self):
        sim, cluster, collectives, _ = self.make()
        cluster.fail_node(0)
        done = collectives.control_roundtrip()
        sim.run(until=sim.timeout(120.0))
        assert not done.triggered

    def test_broadcast_hangs_when_node_dead(self):
        sim, cluster, collectives, _ = self.make()
        cluster.fail_node(1)
        done = collectives.broadcast(1e6)
        sim.run(until=sim.timeout(120.0))
        assert not done.triggered


class TestStreamPoolInterrupts:
    def test_interrupt_while_running_releases_streams(self):
        sim = Simulator()
        pool = CommStreamPool(sim, GPUDevice(V100), num_streams=4,
                              compute_occupancy=0.0)

        def never():
            return sim.event(name="hung-allreduce")

        unit = pool.start_unit(never, streams=2)
        sim.run(until=sim.timeout(1.0))
        assert pool.in_flight == 2
        pool.cancel(unit, "abort")
        sim.run(until=unit)
        assert not unit.ok
        assert pool.in_flight == 0

    def test_interrupt_while_queued_withdraws_request(self):
        sim = Simulator()
        pool = CommStreamPool(sim, GPUDevice(V100), num_streams=1,
                              compute_occupancy=0.0)

        def never():
            return sim.event(name="hung")

        first = pool.start_unit(never)
        queued = pool.start_unit(never)
        sim.run(until=sim.timeout(1.0))
        assert pool.in_flight == 1
        pool.cancel(queued, "abort")
        sim.run(until=queued)
        assert not queued.ok
        assert isinstance(queued.value, ProcessInterrupt)
        # The withdrawn request must not hold or later consume a slot.
        pool.cancel(first, "abort")
        sim.run()
        assert pool.in_flight == 0


class TestEngineDetection:
    def run_iteration_with_crash(self, crash_at_s, sync_timeout_s=0.5,
                                 comm_retries=1):
        from repro.core.engine import AIACCBackend
        from repro.models.synthetic import random_model_spec
        from repro.sim.faults import FaultInjector, FaultPlan, NodeCrash
        from repro.training.trainer import build_train_context

        spec = random_model_spec(seed=0, num_layers=8,
                                 total_parameters=2_000_000,
                                 total_forward_flops=1e9)
        backend = AIACCBackend(AIACCConfig(
            sync_timeout_s=sync_timeout_s, unit_timeout_s=1.0,
            comm_retries=comm_retries, retry_backoff_s=0.1))
        obs = Observability()
        ctx = build_train_context(spec, backend, 16,
                                  spec.default_batch_size, obs=obs)
        injector = FaultInjector(ctx.sim, ctx.cluster, ctx.network, obs=obs)
        injector.arm(FaultPlan([NodeCrash(at_s=crash_at_s, node=1)]))
        warm = ctx.sim.spawn(backend.warmup(ctx))
        ctx.sim.run(until=warm)
        proc = ctx.sim.spawn(backend.iteration(ctx))
        proc.add_callback(lambda _ev: None)
        ctx.sim.run(until=proc)
        return backend, ctx, proc, obs.fault_counts()

    def test_crash_mid_iteration_confirms_peer_dead(self):
        backend, ctx, proc, faults = self.run_iteration_with_crash(
            crash_at_s=0.02)
        assert not proc.ok
        failure = proc.value
        assert isinstance(failure, PeerDeadError)
        assert failure.confirmed_at_s > failure.suspected_at_s
        assert faults["suspect"] >= 1
        assert faults["confirm"] >= 1

    def test_abort_clears_inflight_units(self):
        backend, ctx, proc, _ = self.run_iteration_with_crash(
            crash_at_s=0.02)
        interrupted = backend.abort("rebuilding")
        assert interrupted >= 0
        assert not backend._inflight
        # Every live unit was cancelled through the pool.
        assert backend._pool.in_flight == 0
        assert backend._pool._resource.waiting_requests == 0
        # The simulator must stay consistent after the abort.
        ctx.sim.run(until=ctx.sim.timeout(1.0))

    def test_healthy_iteration_with_detection_enabled(self):
        backend, ctx, proc, faults = self.run_iteration_with_crash(
            crash_at_s=1e9)  # never fires
        assert proc.ok
        assert faults.get("suspect", 0) == 0
