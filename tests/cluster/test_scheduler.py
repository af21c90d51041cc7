"""Unit tests for admission control (`repro.cluster.scheduler`)."""

import pytest

from repro.cluster import (
    BACKOFF_CAP_S,
    JobSpec,
    PlacementScheduler,
    SharedFabric,
    backoff_delay_s,
)
from repro.errors import ClusterError
from repro.sim import Simulator


def make_fabric(num_nodes=6, nic_bps=10e9, oversub=2.0):
    return SharedFabric(Simulator(), num_nodes, nic_bps=nic_bps,
                        core_oversubscription=oversub)


def spec(job_id="j", **kw):
    kw.setdefault("batch_size", kw.get("num_nodes", 2) * 16)
    return JobSpec(job_id=job_id, **kw)


class TestBackoff:
    def test_capped_exponential_schedule(self):
        delays = [backoff_delay_s(i) for i in range(7)]
        assert delays == [0.25, 0.5, 1.0, 2.0, 4.0, 4.0, 4.0]
        assert max(delays) == BACKOFF_CAP_S

    def test_negative_attempt_rejected(self):
        with pytest.raises(ClusterError):
            backoff_delay_s(-1)


class TestJobSpecValidation:
    def test_valid_spec_constructs(self):
        spec("ok", num_nodes=2, batch_size=64)

    @pytest.mark.parametrize("kw", [
        dict(job_id=""),
        dict(num_nodes=0),
        dict(priority=0.0),
        dict(arrival_s=-1.0),
        dict(steps=0),
        dict(num_streams=0),
        dict(compute_s=0.0),
        dict(bytes_per_step=0.0),
        dict(num_nodes=3, batch_size=64),  # not divisible
        dict(priority=float("nan")),
        dict(priority=float("inf")),
        dict(arrival_s=float("nan")),
        dict(arrival_s=float("inf")),
        dict(compute_s=float("nan")),
        dict(bytes_per_step=float("nan")),
        dict(bytes_per_step=float("inf")),
    ])
    def test_invalid_specs_rejected(self, kw):
        base = dict(job_id="j")
        base.update(kw)
        with pytest.raises(ClusterError):
            JobSpec(**base)


class TestPlacementScheduler:
    def test_deterministic_ascending_placement(self):
        sched = PlacementScheduler(make_fabric(6))
        a, reason = sched.try_admit(spec("a", num_nodes=2), streams=2)
        b, _ = sched.try_admit(spec("b", num_nodes=3), streams=2)
        assert reason == "admitted"
        assert a.nodes == (0, 1)
        assert b.nodes == (2, 3, 4)
        assert sched.free_nodes == (5,)

    def test_release_returns_slots_in_order(self):
        sched = PlacementScheduler(make_fabric(4))
        sched.try_admit(spec("a", num_nodes=2), streams=1)
        sched.try_admit(spec("b", num_nodes=2), streams=1)
        sched.release("a")
        assert sched.free_nodes == (0, 1)
        again, _ = sched.try_admit(spec("c", num_nodes=2), streams=1)
        assert again.nodes == (0, 1)

    def test_slot_exhaustion_reason(self):
        sched = PlacementScheduler(make_fabric(4))
        sched.try_admit(spec("a", num_nodes=3), streams=1)
        placement, reason = sched.try_admit(spec("b", num_nodes=2),
                                            streams=1)
        assert placement is None
        assert "free nodes" in reason

    def test_oversized_job_reason(self):
        sched = PlacementScheduler(make_fabric(2))
        placement, reason = sched.try_admit(spec("big", num_nodes=8),
                                            streams=1)
        assert placement is None
        assert "only has 2" in reason

    def test_core_budget_exhaustion(self):
        # 4-node fabric, 4x oversubscribed: core = 4*10G/4 = 10 Gbps.
        # Each 2-node tenant at full NIC demands 20 Gbps of spine.
        sched = PlacementScheduler(make_fabric(4, oversub=4.0))
        placement, reason = sched.try_admit(
            spec("greedy", num_nodes=2, num_streams=8), streams=8)
        assert placement is None
        assert "core budget exhausted" in reason

    def test_shrink_reservation_reprices_demand(self):
        fabric = make_fabric(6)
        sched = PlacementScheduler(fabric)
        job = spec("a", num_nodes=2, num_streams=4)
        sched.try_admit(job, streams=4)
        before = sched.reserved_core_bps()
        sched.shrink_reservation("a", streams=1, spec=job)
        assert sched.reserved_core_bps() < before

    def test_double_admit_and_unknown_release_rejected(self):
        sched = PlacementScheduler(make_fabric(6))
        job = spec("a", num_nodes=2)
        sched.try_admit(job, streams=1)
        with pytest.raises(ClusterError):
            sched.try_admit(job, streams=1)
        with pytest.raises(ClusterError):
            sched.release("nobody")
        with pytest.raises(ClusterError):
            sched.shrink_reservation("nobody", streams=1, spec=job)
