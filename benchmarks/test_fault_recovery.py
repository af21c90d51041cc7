"""Acceptance benchmark for event-driven fault injection (paper §IV).

A node crash is injected mid-allreduce into a 16-worker simulated AIACC
run.  The engine must *detect* the failure through its sync-round
timeout (not be told about it), abort in-flight units, rebuild the ring
over the survivors, restore from the last checkpoint, and complete the
run — and the measured goodput must agree with the closed-form
:func:`simulate_resilient_training` walk for the same schedule.
"""

import pytest

from repro.harness.experiments import crash_recovery_run, fault_recovery_rows
from repro.obs import chrome_trace_events

NUM_GPUS = 16
ITERATIONS = 20
CHECKPOINT_INTERVAL = 5


class TestFaultRecovery:
    def test_crash_mid_allreduce_self_heals(self, record_table):
        result, analytical = crash_recovery_run()

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
        assert result.goodput == pytest.approx(analytical.goodput,
                                               rel=0.15)

        # --- fault events visible in counters and the Perfetto trace ----
        for kind in ("inject", "suspect", "confirm", "rebuild", "restore"):
            assert counters[kind] >= 1, kind
        chrome_names = {ev.get("name") for ev in
                        chrome_trace_events(result.obs.timeline)}
        assert {"fault.inject", "fault.suspect", "fault.confirm",
                "fault.rebuild", "fault.restore"} <= chrome_names

        record_table("fault_recovery",
                     fault_recovery_rows(result, analytical))
