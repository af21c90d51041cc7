"""End-to-end fault-injected training (fast path, tier-1).

The full 16-worker acceptance run lives in
``benchmarks/test_fault_recovery.py``; this file covers the recovery
driver with a small model so it stays in the sub-second range.
"""

import math

import pytest

from repro.errors import TrainingError
from repro.models.synthetic import random_model_spec
from repro.obs import Observability, chrome_trace_events
from repro.sim.faults import FaultPlan, NodeCrash
from repro.training.resilience import run_fault_injected_training


def small_spec():
    return random_model_spec(seed=0, num_layers=12,
                             total_parameters=5_000_000,
                             total_forward_flops=2e9)


class TestFaultInjectedTraining:
    def test_crash_detect_rebuild_resume(self, tmp_path):
        result = run_fault_injected_training(
            small_spec(),
            FaultPlan([NodeCrash(at_s=0.2, node=1)]),
            num_gpus=16, total_iterations=10, checkpoint_interval=3,
            checkpoint_dir=str(tmp_path), restart_overhead_s=2.0,
            sync_timeout_s=0.5, unit_timeout_s=1.0, comm_retries=1,
            retry_backoff_s=0.1)
        # The run completed all iterations despite losing a node.
        assert result.total_iterations == 10
        assert result.initial_num_gpus == 16
        assert result.final_num_gpus == 8
        assert len(result.recoveries) == 1
        rec = result.recoveries[0]
        assert rec.failed_nodes == (1,)
        assert rec.injected_at_s == pytest.approx(0.2)
        # Detection: suspicion strictly after injection, confirmation
        # strictly after suspicion, resume after confirmation.
        assert rec.suspected_at_s > rec.injected_at_s
        assert rec.confirmed_at_s > rec.suspected_at_s
        assert rec.resumed_at_s > rec.confirmed_at_s
        assert rec.detection_latency_s > 0
        assert rec.rebuild_time_s >= 2.0  # at least the restart overhead
        # Restart rolls back to the last checkpoint boundary.
        assert rec.resumed_iteration % 3 == 0
        assert rec.lost_iterations >= 0
        assert result.wasted_iterations == rec.lost_iterations
        assert 0 < result.goodput <= 1.0

    def test_fault_events_reach_obs(self, tmp_path):
        result = run_fault_injected_training(
            small_spec(),
            FaultPlan([NodeCrash(at_s=0.2, node=1)]),
            num_gpus=16, total_iterations=6, checkpoint_interval=2,
            checkpoint_dir=str(tmp_path), restart_overhead_s=1.0,
            sync_timeout_s=0.5, unit_timeout_s=1.0, comm_retries=1,
            retry_backoff_s=0.1, obs=Observability())
        counters = result.obs.fault_counts()
        for kind in ("inject", "suspect", "confirm", "rebuild", "restore"):
            assert counters[kind] >= 1, kind
        chrome = chrome_trace_events(result.obs.timeline)
        names = {ev.get("name") for ev in chrome}
        assert {"fault.inject", "fault.confirm",
                "fault.rebuild", "fault.restore"} <= names

    def test_healthy_run_has_no_recoveries(self, tmp_path):
        result = run_fault_injected_training(
            small_spec(), FaultPlan([]),
            num_gpus=16, total_iterations=4, checkpoint_interval=2,
            checkpoint_dir=str(tmp_path))
        assert result.recoveries == ()
        assert result.wasted_iterations == 0
        assert result.final_num_gpus == 16
        assert len(result.iteration_times_s) == 4

    def test_rejects_plans_that_kill_every_node(self):
        plan = FaultPlan([NodeCrash(at_s=1.0, node=n) for n in range(2)])
        with pytest.raises(TrainingError):
            run_fault_injected_training(small_spec(), plan, num_gpus=16)

    def test_rejects_single_node_cluster(self):
        with pytest.raises(TrainingError):
            run_fault_injected_training(small_spec(), FaultPlan([]),
                                        num_gpus=8)


#: ``run_fault_injected_training`` keywords each entry breaks.  Before
#: validation ``total_iterations=2.5`` ran 3 iterations and reported 2.5,
#: ``nan`` ran none, ``checkpoint_interval=1.5`` checkpointed only at
#: iteration 3 and ``num_gpus=16.0`` failed with a ``TypeError``.
BAD_RUNS = {
    "total-fractional": dict(total_iterations=2.5),
    "total-nan": dict(total_iterations=math.nan),
    "total-zero": dict(total_iterations=0),
    "interval-fractional": dict(checkpoint_interval=1.5),
    "interval-nan": dict(checkpoint_interval=math.nan),
    "gpus-float": dict(num_gpus=16.0),
    "gpus-fractional": dict(num_gpus=16.5),
    "gpus-per-node-fractional": dict(gpus_per_node=7.5),
    "max-restarts-fractional": dict(max_restarts=1.5),
    "max-restarts-negative": dict(max_restarts=-1),
    "overhead-negative": dict(restart_overhead_s=-100.0),
    "overhead-nan": dict(restart_overhead_s=math.nan),
}


@pytest.mark.parametrize("bad", BAD_RUNS.values(), ids=BAD_RUNS)
def test_driver_rejects_bad_values(bad):
    with pytest.raises(TrainingError):
        run_fault_injected_training(small_spec(), FaultPlan([]), **bad)
