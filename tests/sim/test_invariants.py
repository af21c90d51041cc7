"""The simulation-wide invariant checker (repro.sim.invariants).

Covers the three invariant families (resource accounting, replay
determinism, cross-worker agreement) and — per the issue's acceptance
criteria — proves the checker detects each of the three hot-path bug
classes it was built to guard: degenerate pack slices, leaked sync
workers, and stream-dispatch overcounting.
"""

import pytest

from repro.core.packing import (
    AllReduceUnit,
    GradientPacker,
    SLICE_EPSILON_FRACTION,
    TensorSlice,
)
from repro.core.registration import GradientRegistry
from repro.core.runtime import AIACCConfig
from repro.core.streams import CommStreamPool
from repro.core.synchronization import DecentralizedSynchronizer
from repro.errors import InvariantViolation, SimulationError, SyncTimeoutError
from repro.models import ParameterSpec
from repro.sim import (
    Communicator,
    GPUDevice,
    InvariantChecker,
    Resource,
    Simulator,
    V100,
    invariants_enabled_by_env,
)
from repro.sim.invariants import ENV_FLAG


def checked_sim():
    return Simulator(check_invariants=True)


def frozen_registry(names=("a", "b")):
    registry = GradientRegistry()
    for name in names:
        registry.register(ParameterSpec(name, 4))
    registry.freeze()
    for name in names:
        registry.mark_ready(name)
    return registry


class TestEnabling:
    def test_off_by_default(self, monkeypatch):
        # Neutralise the env flag: CI runs this suite with the checker
        # globally enabled, and this test is about the built-in default.
        monkeypatch.delenv(ENV_FLAG, raising=False)
        assert Simulator().invariants is None

    def test_explicit_flag_attaches(self):
        sim = checked_sim()
        assert isinstance(sim.invariants, InvariantChecker)
        assert sim.invariants.sim is sim

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("yes", True),
        ("", False), ("0", False), ("false", False), ("no", False),
    ])
    def test_env_flag_parsing(self, monkeypatch, value, expected):
        monkeypatch.setenv(ENV_FLAG, value)
        assert invariants_enabled_by_env() is expected

    def test_env_flag_attaches_automatically(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        assert Simulator().invariants is not None
        # An explicit False overrides the environment.
        assert Simulator(check_invariants=False).invariants is None

    def test_env_flag_sets_run_default(self, monkeypatch):
        # A run driver's check_invariants=None defers to the environment
        # exactly as Simulator does; an explicit False still wins.
        from repro.models.synthetic import random_model_spec
        from repro.training.trainer import run_training

        spec = random_model_spec(seed=0, num_layers=4,
                                 total_parameters=100_000,
                                 total_forward_flops=1e8)

        def digest(**kwargs):
            return run_training(spec, "aiacc", 2, measure_iterations=1,
                                warmup_iterations=0, **kwargs).state_digest

        monkeypatch.setenv(ENV_FLAG, "1")
        assert digest() is not None
        assert digest(check_invariants=False) is None
        monkeypatch.delenv(ENV_FLAG)
        assert digest() is None
        assert digest(check_invariants=True) is not None

    def test_double_attach_rejected(self):
        sim = checked_sim()
        with pytest.raises(SimulationError):
            InvariantChecker().attach(sim)


class TestResourceAccounting:
    def test_clean_usage_passes(self):
        sim = checked_sim()
        resource = Resource(sim, capacity=2, name="r")

        def user():
            yield resource.acquire()
            yield sim.timeout(1.0)
            resource.release()

        for _ in range(4):
            sim.spawn(user())
        sim.run()
        assert resource.granted_slots == 4
        assert resource.released_slots == 4
        assert sim.invariants.checks > 0

    def test_ledger_corruption_detected(self):
        sim = checked_sim()
        resource = Resource(sim, capacity=2, name="r")
        resource.acquire()
        # Corrupt the books the way a lost-update bug would: usage
        # changes without a matching ledger entry.
        resource.in_use += 1
        with pytest.raises(InvariantViolation) as excinfo:
            resource.release()
        assert excinfo.value.invariant == "resource-ledger"

    def test_quiescence_detects_held_slot(self):
        sim = checked_sim()
        resource = Resource(sim, capacity=2, name="leaky")
        resource.acquire()
        with pytest.raises(InvariantViolation) as excinfo:
            sim.invariants.check_idle(resource, rank=3)
        assert excinfo.value.invariant == "resource-quiescent"
        assert excinfo.value.rank == 3

    def test_quiescence_detects_queued_request(self):
        sim = checked_sim()
        resource = Resource(sim, capacity=1, name="r")
        resource.acquire()
        resource.acquire()  # queues behind the held slot
        resource.release()
        sim.run()
        # The queued request was granted and never released.
        with pytest.raises(InvariantViolation):
            sim.invariants.check_idle(resource)


class TestReplayDeterminism:
    def run_message_level(self, **kwargs):
        from repro.core.message_engine import run_message_level_iteration
        from repro.models.synthetic import random_model_spec

        spec = random_model_spec(seed=1, num_layers=6,
                                 total_parameters=300_000,
                                 total_forward_flops=1e8)
        return run_message_level_iteration(
            spec, num_nodes=2, gpus_per_node=2, check_invariants=True,
            **kwargs)

    def test_identical_runs_identical_digests(self):
        first = self.run_message_level()
        second = self.run_message_level()
        assert first.state_digest is not None
        assert first.state_digest == second.state_digest

    def test_different_workload_different_digest(self):
        base = self.run_message_level()
        other = self.run_message_level(
            config=AIACCConfig(granularity_bytes=1_000_000))
        assert base.state_digest != other.state_digest

    def test_digest_none_without_checker(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        sim = Simulator()
        assert sim.state_digest() is None

    def test_digest_reflects_event_sequence(self):
        sim = checked_sim()

        def ticker():
            yield sim.timeout(0.5)

        sim.spawn(ticker())
        sim.run()
        once = sim.state_digest()
        assert sim.invariants.events_hashed > 0
        # More events -> the digest moves.
        proc = sim.spawn(ticker())
        sim.run(until=proc)
        assert sim.state_digest() != once


class TestDegenerateSliceDetection:
    """Acceptance: reverting the packing fix must trip the checker."""

    GRANULARITY = 1.0

    def old_buggy_pack(self, gradients):
        """The pre-fix pack loop (exact-fullness close, no epsilon)."""
        units, current, current_bytes = [], [], 0.0
        next_id = 0
        for grad_id, nbytes in sorted(gradients):
            offset, remaining = 0.0, float(nbytes)
            while remaining > 0:
                room = self.GRANULARITY - current_bytes
                take = min(remaining, room)
                current.append(TensorSlice(grad_id, offset, take))
                current_bytes += take
                offset += take
                remaining -= take
                if current_bytes >= self.GRANULARITY:
                    units.append(AllReduceUnit(next_id, tuple(current)))
                    next_id += 1
                    current, current_bytes = [], 0.0
        if current:
            units.append(AllReduceUnit(next_id, tuple(current)))
        return units

    def test_old_pack_emits_degenerate_slice_and_is_caught(self):
        gradients = [(i, 0.1) for i in range(50)]
        units = self.old_buggy_pack(gradients)
        # Confirm the bug exists in the old algorithm...
        epsilon = self.GRANULARITY * SLICE_EPSILON_FRACTION
        assert any(s.nbytes < epsilon for u in units for s in u.slices)
        # ...and that the checker names it.
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_unit_plan(units, self.GRANULARITY, rank=2)
        assert excinfo.value.invariant == "no-degenerate-slices"
        assert excinfo.value.rank == 2

    def test_fixed_pack_passes_checker(self):
        units = GradientPacker(self.GRANULARITY).pack(
            [(i, 0.1) for i in range(50)])
        InvariantChecker().check_unit_plan(units, self.GRANULARITY)

    def test_whole_small_gradient_is_not_degenerate(self):
        # A gradient legitimately tiny relative to the granularity is
        # fine: only residues of *split* gradients are degenerate.
        units = GradientPacker(16e6).pack([(0, 1.0)])
        InvariantChecker().check_unit_plan(units, 16e6)

    def test_gap_detected_through_unpack(self):
        units = GradientPacker(1.0).pack([(0, 3.0)])
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_unit_plan([units[0], units[2]], 1.0)
        assert excinfo.value.invariant == "pack-contiguity"

    def test_underfull_interior_unit_detected(self):
        units = [
            AllReduceUnit(0, (TensorSlice(0, 0.0, 0.25),)),
            AllReduceUnit(1, (TensorSlice(1, 0.0, 1.0),)),
        ]
        with pytest.raises(InvariantViolation) as excinfo:
            InvariantChecker().check_unit_plan(units, 1.0)
        assert excinfo.value.invariant == "unit-granularity"


class TestLeakedSyncWorkerDetection:
    """Acceptance: reverting the timeout-interrupt fix trips the checker."""

    def make_pair(self):
        sim = checked_sim()
        comm = Communicator(sim, size=2)
        sync = DecentralizedSynchronizer(sim, comm, rank=0,
                                         registry=frozen_registry())
        return sim, comm, sync

    def test_fixed_timeout_path_passes(self):
        # With the fix, the timed-out round tears its worker down, so the
        # next round starts clean: it times out again (the peer is still
        # absent) but raises SyncTimeoutError, not InvariantViolation.
        sim, comm, sync = self.make_pair()
        first = sim.spawn(sync.sync_round(timeout_s=0.5))
        first.add_callback(lambda _ev: None)
        sim.run(until=first)
        assert isinstance(first.value, SyncTimeoutError)
        second = sim.spawn(sync.sync_round(timeout_s=0.5))
        second.add_callback(lambda _ev: None)
        sim.run(until=second)
        assert isinstance(second.value, SyncTimeoutError)

    def test_abandoned_worker_detected(self):
        # Simulate the reverted bug: a round's worker left alive when the
        # next round starts.  The shadow referee names the leak.
        sim, comm, sync = self.make_pair()
        from repro.collectives.primitives import ReduceOp
        from repro.collectives.ring import ring_allreduce_worker

        local = frozen_registry().sync_vector.copy()
        abandoned = sim.spawn(ring_allreduce_worker(
            sim, comm, 0, local, op=ReduceOp.MIN, tag_base=0),
            name="sync.r0")
        abandoned.add_callback(lambda _ev: None)
        sim.run(until=sim.timeout(1.0))
        assert abandoned.alive
        sim.invariants.on_sync_worker(sync, 0, 0, abandoned)
        fresh = sim.spawn(ring_allreduce_worker(
            sim, comm, 0, local.copy(), op=ReduceOp.MIN, tag_base=16384))
        fresh.add_callback(lambda _ev: None)
        with pytest.raises(InvariantViolation) as excinfo:
            sim.invariants.on_sync_worker(sync, 0, 1, fresh)
        assert excinfo.value.invariant == "no-leaked-sync-worker"
        assert excinfo.value.rank == 0

    def test_no_stale_getter_after_timeout(self):
        # The interrupted worker withdraws its pending recv, so a late
        # peer message cannot be silently consumed by a dead round.
        sim, comm, sync = self.make_pair()
        proc = sim.spawn(sync.sync_round(timeout_s=0.5))
        proc.add_callback(lambda _ev: None)
        sim.run(until=proc)
        assert all(not waiting for waiting in comm._waiting.values())


class TestDispatchOvercountDetection:
    """Acceptance: reverting count-on-grant trips the checker."""

    def make_pool(self):
        sim = checked_sim()
        pool = CommStreamPool(sim, GPUDevice(V100), num_streams=1,
                              compute_occupancy=0.0)
        return sim, pool

    def test_fixed_counter_passes_after_cancelled_request(self):
        sim, pool = self.make_pool()

        def never():
            return sim.event(name="hung")

        pool.start_unit(never)
        queued = pool.start_unit(never)
        sim.run(until=sim.timeout(1.0))
        pool.cancel(queued, "abort")
        sim.run(until=queued)
        assert pool.dispatched_units == 1
        sim.invariants.check_stream_accounting(pool)

    def test_count_on_request_drift_detected(self):
        # Simulate the reverted bug: the counter ticks for a request that
        # was withdrawn before any grant.
        sim, pool = self.make_pool()

        def never():
            return sim.event(name="hung")

        pool.start_unit(never)
        queued = pool.start_unit(never)
        sim.run(until=sim.timeout(1.0))
        pool.cancel(queued, "abort")
        sim.run(until=queued)
        pool.dispatched_units += 1  # the old acquire()-side increment
        with pytest.raises(InvariantViolation) as excinfo:
            sim.invariants.check_stream_accounting(pool, rank=1)
        assert excinfo.value.invariant == "stream-dispatch-count"
        assert excinfo.value.rank == 1

    def test_cancel_running_unit_while_next_grant_is_scheduled(self):
        # Cancelling the running unit hands its slot to the queued one:
        # that grant is scheduled but has not fired when the queued
        # unit is cancelled too.  The slot comes back at once, and the
        # late grant starts no work.
        sim, pool = self.make_pool()
        calls = []

        def never():
            calls.append(sim.now)
            return sim.event(name="hung")

        running = pool.start_unit(never)
        queued = pool.start_unit(never)
        sim.run(until=sim.timeout(1.0))
        assert calls == [0.0]
        pool.cancel(running, "abort")
        assert pool._resource.waiting_requests == 0
        assert pool.in_flight == 1  # granted to the queued unit
        pool.cancel(queued, "abort")
        assert pool.in_flight == 0
        sim.run()
        assert calls == [0.0]
        assert not running.ok and not queued.ok
        assert pool.in_flight == 0
        assert pool._resource.waiting_requests == 0
        sim.invariants.check_stream_accounting(pool)


class TestCrossWorkerAgreement:
    def test_sync_results_must_agree(self):
        checker = InvariantChecker()
        checker.report_sync_result(0, 0, 4, [0, 1, 2])
        checker.report_sync_result(1, 0, 4, [0, 1, 2])
        with pytest.raises(InvariantViolation) as excinfo:
            checker.report_sync_result(2, 0, 4, [0, 1])
        assert excinfo.value.invariant == "sync-agreement"
        assert excinfo.value.rank == 2

    def test_unit_plans_must_agree(self):
        checker = InvariantChecker()
        plan_a = GradientPacker(100).pack([(0, 60), (1, 60)])
        plan_b = GradientPacker(100).pack([(0, 60), (1, 60)])
        checker.report_unit_plan(0, 0, plan_a, 100)
        checker.report_unit_plan(1, 0, plan_b, 100)  # identical: fine
        divergent = GradientPacker(100).pack([(0, 60), (1, 70)])
        with pytest.raises(InvariantViolation) as excinfo:
            checker.report_unit_plan(2, 0, divergent, 100)
        assert excinfo.value.invariant == "plan-agreement"

    def test_unit_ids_excluded_from_agreement(self):
        # Packer unit ids are call-ordered, not cross-worker stable; two
        # structurally identical plans with different ids must agree.
        checker = InvariantChecker()
        packer = GradientPacker(100)
        packer.pack([(9, 100)])  # burn ids on rank A's packer
        plan_a = packer.pack([(0, 60), (1, 60)])
        plan_b = GradientPacker(100).pack([(0, 60), (1, 60)])
        assert [u.unit_id for u in plan_a] != [u.unit_id for u in plan_b]
        checker.report_unit_plan(0, 1, plan_a, 100)
        checker.report_unit_plan(1, 1, plan_b, 100)


class TestEngineIntegration:
    def test_timed_training_under_checker(self):
        from repro.frameworks import make_backend
        from repro.models.synthetic import random_model_spec
        from repro.training.trainer import run_training

        spec = random_model_spec(seed=0, num_layers=8,
                                 total_parameters=2_000_000,
                                 total_forward_flops=1e9)
        backend = make_backend("aiacc")
        result = run_training(spec, backend, 8,
                              measure_iterations=2, warmup_iterations=1,
                              check_invariants=True)
        assert result.mean_iteration_s > 0
        assert result.state_digest is not None
        assert backend._checker is not None
        assert backend._checker.checks > 0

    def test_digest_covers_every_popped_event(self):
        # The checker is attached when the simulator is built, so the
        # digest folds every event popped from the heap, and
        # run_training's digest is the digest of that same run.
        from repro.frameworks import make_backend
        from repro.models.zoo import get_model
        from repro.training.trainer import build_train_context, run_training

        spec = get_model("resnet50")
        config = AIACCConfig(num_streams=4)
        sim = Simulator(check_invariants=True)
        backend = make_backend("aiacc", config=config)
        ctx = build_train_context(spec, backend, 16,
                                  spec.default_batch_size, sim=sim)
        sim.run(until=sim.spawn(backend.warmup(ctx), name="warmup"))
        for index in range(2):
            sim.run(until=sim.spawn(backend.iteration(ctx),
                                    name=f"iter{index}"))
        assert sim.invariants.events_hashed == \
            sim.events_scheduled - len(sim._heap)
        result = run_training(spec, make_backend("aiacc", config=config),
                              16, measure_iterations=2,
                              warmup_iterations=0, check_invariants=True)
        assert result.state_digest == sim.state_digest()

    def test_message_level_referee_runs(self):
        from repro.core.message_engine import run_message_level_iteration
        from repro.models.synthetic import random_model_spec

        spec = random_model_spec(seed=2, num_layers=5,
                                 total_parameters=200_000,
                                 total_forward_flops=1e8)
        result = run_message_level_iteration(
            spec, num_nodes=2, gpus_per_node=2, check_invariants=True)
        assert result.state_digest is not None
        assert result.units > 0

    def test_fault_injected_run_completes_clean(self):
        # The issue's acceptance run, shrunk for test time: fault-injected
        # training on 16 workers under the checker completes with zero
        # violations and reports a replay digest.
        from repro.sim.faults import FaultPlan, NodeCrash
        from repro.models.synthetic import random_model_spec
        from repro.training.resilience import run_fault_injected_training

        spec = random_model_spec(seed=3, num_layers=8,
                                 total_parameters=2_000_000,
                                 total_forward_flops=1e9)
        result = run_fault_injected_training(
            spec, FaultPlan([NodeCrash(at_s=0.05, node=1)]),
            num_gpus=16, total_iterations=4, checkpoint_interval=2,
            sync_timeout_s=0.5, unit_timeout_s=1.0, comm_retries=1,
            retry_backoff_s=0.1, check_invariants=True)
        assert result.total_iterations == 4
        assert result.recoveries
        assert result.state_digest is not None
