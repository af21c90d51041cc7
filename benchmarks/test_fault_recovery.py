"""Acceptance benchmark for event-driven fault injection (paper §IV).

A node crash is injected mid-allreduce into a 16-worker simulated AIACC
run.  The engine must *detect* the failure through its sync-round
timeout (not be told about it), abort in-flight units, rebuild the ring
over the survivors, restore from the last checkpoint, and complete the
run — and the measured goodput must agree with the closed-form
:func:`simulate_resilient_training` walk for the same schedule.
"""

import pytest

from benchmarks.conftest import run_once
from repro.obs import Observability, chrome_trace_events
from repro.sim.faults import FaultPlan, NodeCrash
from repro.training.resilience import (
    run_fault_injected_training,
    simulate_resilient_training,
)
from repro.training.trainer import run_training

MODEL = "resnet50"
NUM_GPUS = 16
ITERATIONS = 20
CHECKPOINT_INTERVAL = 5


def crash_recovery_run():
    baseline = run_training(MODEL, "aiacc", NUM_GPUS,
                            measure_iterations=2, warmup_iterations=1)
    iter_s = baseline.mean_iteration_s
    # Crash 40% into iteration 9 — mid-allreduce, past the checkpoint
    # written after iteration 5.
    crash_at = 8.4 * iter_s
    result = run_fault_injected_training(
        MODEL, FaultPlan([NodeCrash(at_s=crash_at, node=1)]),
        num_gpus=NUM_GPUS, total_iterations=ITERATIONS,
        checkpoint_interval=CHECKPOINT_INTERVAL, obs=Observability())
    return iter_s, result


class TestFaultRecovery:
    def test_crash_mid_allreduce_self_heals(self, benchmark, record_table):
        iter_s, result = run_once(benchmark, crash_recovery_run)

        # --- the run completed on the surviving workers ----------------
        assert result.total_iterations == ITERATIONS
        assert result.initial_num_gpus == NUM_GPUS
        assert result.final_num_gpus == 8
        assert len(result.recoveries) == 1
        rec = result.recoveries[0]
        assert rec.failed_nodes == (1,)

        # --- detection went through the sync-round timeout -------------
        counters = result.obs.fault_counts()
        assert counters["sync_timeout"] >= 1
        assert counters["suspect"] >= 1
        assert counters["confirm"] == 1
        assert rec.injected_at_s < rec.suspected_at_s < rec.confirmed_at_s

        # --- resumed from the checkpoint boundary -----------------------
        assert rec.resumed_iteration == CHECKPOINT_INTERVAL
        assert rec.failed_at_iteration >= CHECKPOINT_INTERVAL
        assert result.wasted_iterations == rec.lost_iterations

        # --- goodput agrees with the analytical model (±15%) ------------
        failure_at = [min(int(rec.injected_at_s // iter_s),
                          ITERATIONS - 1)]
        analytical = simulate_resilient_training(
            MODEL, iter_s, ITERATIONS, CHECKPOINT_INTERVAL,
            failure_at=failure_at)
        assert result.goodput == pytest.approx(analytical.goodput,
                                               rel=0.15)

        # --- fault events visible in counters and the Perfetto trace ----
        for kind in ("inject", "suspect", "confirm", "rebuild", "restore"):
            assert counters[kind] >= 1, kind
        chrome_names = {ev.get("name") for ev in
                        chrome_trace_events(result.obs.timeline)}
        assert {"fault.inject", "fault.suspect", "fault.confirm",
                "fault.rebuild", "fault.restore"} <= chrome_names

        record_table("fault_recovery", [{
            "model": MODEL,
            "workers": f"{NUM_GPUS} -> {result.final_num_gpus}",
            "detection_s": round(rec.detection_latency_s, 2),
            "rebuild_s": round(rec.rebuild_time_s, 1),
            "lost_iters": rec.lost_iterations,
            "goodput": round(result.goodput, 3),
            "analytical": round(analytical.goodput, 3),
        }], title="Self-healing recovery from an injected node crash "
                  "(16 workers, crash mid-allreduce)")
