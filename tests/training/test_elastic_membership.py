"""End-to-end elastic membership: scheduled leaves/joins in the driver.

Exercises `run_fault_injected_training` with `NodeLeave` / `NodeJoin`
events: scale-down must continue from live parameters (no checkpoint
restore), scale-up must admit joiners through the bit-identical live
broadcast, and both must advance the membership epoch visibly in the
observability registry and timeline.
"""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.autotune.cache import SettingsCache
from repro.autotune.space import ParameterPoint
from repro.core.runtime import AIACCConfig
from repro.errors import ReproError
from repro.models.synthetic import random_model_spec
from repro.obs import Observability
from repro.harness.chaos import default_chaos_model
from repro.sim.faults import BandwidthDegradation, FaultPlan, NodeCrash, \
    NodeJoin, NodeLeave, WindowFault
from repro.training import trainer
from repro.training.resilience import broadcast_time_s, \
    run_fault_injected_training


def small_spec():
    return random_model_spec(seed=0, num_layers=12,
                             total_parameters=5_000_000,
                             total_forward_flops=2e9)


def run(plan, **overrides):
    kwargs = dict(num_gpus=16, total_iterations=8, checkpoint_interval=3,
                  restart_overhead_s=2.0, sync_timeout_s=0.5,
                  unit_timeout_s=1.0, comm_retries=1, retry_backoff_s=0.1)
    kwargs.update(overrides)
    return run_fault_injected_training(small_spec(), plan, **kwargs)


class TestScaleDown:
    def test_clean_leave_continues_without_restore(self, tmp_path):
        result = run(FaultPlan([NodeLeave(at_s=0.2, node=1)]),
                     checkpoint_dir=str(tmp_path), obs=Observability())
        # The departure is not a failure: nothing detected, nothing
        # restored, nothing lost.
        assert result.recoveries == ()
        assert result.wasted_iterations == 0
        assert result.final_num_gpus == 8
        assert result.final_epoch == 1
        assert result.final_lr_scale == pytest.approx(0.5)
        assert len(result.epoch_transitions) == 1
        transition = result.epoch_transitions[0]
        assert transition.kind == "scale-down"
        assert transition.departed == (1,)
        assert transition.live_continuation is True
        # The resumed iteration equals the boundary's completed count:
        # live continuation, not a checkpoint rollback.
        assert transition.resumed_iteration > 0
        counters = result.obs.fault_counts()
        assert counters["leave"] == 1
        assert result.obs.registry.get(
            "aiacc_epoch_advances_total").value() == 1
        assert "restore" not in counters
        assert "confirm" not in counters

    def test_all_iterations_complete(self, tmp_path):
        result = run(FaultPlan([NodeLeave(at_s=0.2, node=1)]),
                     checkpoint_dir=str(tmp_path))
        assert len(result.iteration_times_s) == result.total_iterations


class TestScaleUp:
    def test_join_resumes_bit_identical_with_epoch_timeline(self,
                                                            tmp_path):
        obs = Observability()
        result = run(
            FaultPlan([NodeLeave(at_s=0.2, node=1),
                       NodeJoin(at_s=1.1, node=1)]),
            total_iterations=10, checkpoint_dir=str(tmp_path), obs=obs)
        assert [t.kind for t in result.epoch_transitions] == \
            ["scale-down", "scale-up"]
        up = result.epoch_transitions[1]
        assert up.joined == (1,)
        assert up.broadcast_identical is True
        assert up.live_continuation is True
        assert result.final_num_gpus == 16
        assert result.final_epoch == 2
        assert result.final_lr_scale == pytest.approx(1.0)
        # Epoch increments land in the observability timeline.
        advances = [i for i in obs.timeline.instants
                    if i.name == "epoch.advance"]
        assert [i.meta["epoch"] for i in advances] == [1, 2]
        assert all(i.cat == "membership" for i in advances)
        assert advances[0].meta["kind"] == "scale-down"
        assert advances[1].meta["kind"] == "scale-up"
        # Both boundaries pay the communicator re-formation, a third of
        # the 2 s restart overhead; only the join adds the broadcast of
        # the live parameters to the joiner.
        down = result.epoch_transitions[0]
        assert down.reconfigure_time_s == 2.0 / 3 == 0.6666666666666666
        assert up.reconfigure_time_s == \
            2.0 / 3 + broadcast_time_s(small_spec()) == 0.6880094293333333

    def test_join_of_new_identity_grows_the_group(self, tmp_path):
        result = run(FaultPlan([NodeJoin(at_s=0.2, node=8)]),
                     total_iterations=6, checkpoint_dir=str(tmp_path))
        assert result.final_num_gpus == 24
        assert result.final_lr_scale == pytest.approx(1.5)
        assert result.epoch_transitions[0].kind == "scale-up"
        assert result.recoveries == ()

    def test_join_rekeys_settings_cache(self, tmp_path):
        # Prime the tuner cache with a remembered deployment; the join
        # boundary must re-key against it and stamp the transition.
        cache = SettingsCache()
        cache.store("prior", small_spec(), _graph(num_nodes=9),
                    ParameterPoint(num_streams=4, granularity_bytes=8e6,
                                   algorithm="ring"), best_cost_s=0.01)
        result = run(FaultPlan([NodeJoin(at_s=0.2, node=8)]),
                     total_iterations=6, checkpoint_dir=str(tmp_path),
                     settings_cache=cache)
        assert result.epoch_transitions[0].retuned == "prior"

    def test_crash_then_rejoin_same_identity(self, tmp_path):
        # A node crashes (checkpoint-restore recovery), then the same
        # identity rejoins at a later epoch via the live broadcast.
        result = run(
            FaultPlan([NodeCrash(at_s=0.2, node=1),
                       NodeJoin(at_s=4.0, node=1)]),
            total_iterations=10, checkpoint_dir=str(tmp_path))
        kinds = [t.kind for t in result.epoch_transitions]
        assert kinds == ["failure", "scale-up"]
        failure, up = result.epoch_transitions
        assert failure.live_continuation is False
        assert up.joined == (1,)
        assert result.final_num_gpus == 16
        assert len(result.recoveries) == 1


def _graph(num_nodes):
    from repro.sim.kernel import Simulator
    from repro.sim.topology import Cluster, NodeSpec

    cluster = Cluster(Simulator(), num_nodes, NodeSpec(gpus_per_node=2))
    return cluster.topology_graph()


class TestDetectionDeadlineCap:
    def test_config_validates_cap(self):
        AIACCConfig(max_detection_deadline_s=1.0)  # valid
        with pytest.raises(ReproError):
            AIACCConfig(max_detection_deadline_s=0.0)

    def test_detection_latency_stays_bounded(self, tmp_path):
        # Regression for the failure detector's exponential deadline
        # growth: with many retries configured, uncapped doubling made
        # confirmation latency explode (1+2+4+...+64 unit-timeouts).
        # The cap keeps it linear in the retry count.
        result = run(FaultPlan([NodeCrash(at_s=0.2, node=1)]),
                     comm_retries=6, total_iterations=6,
                     checkpoint_dir=str(tmp_path))
        rec = result.recoveries[0]
        # Uncapped doubling of the 0.5 s/1.0 s timeouts over 6 retries
        # would put confirmation > 60 s out; the 4x cap keeps each
        # deadline <= 4 s, bounding the whole detection well under that.
        assert rec.detection_latency_s < 40.0

    def test_explicit_cap_tightens_detection(self, tmp_path):
        capped = run(FaultPlan([NodeCrash(at_s=0.2, node=1)]),
                     comm_retries=4, total_iterations=6,
                     checkpoint_dir=str(tmp_path))
        assert capped.recoveries[0].detection_latency_s > 0


# -- the contract with the plan checker ---------------------------------------

#: The three plans whose announcements undo each other before the first
#: boundary, on 4 nodes x 2 GPUs: the checker ends each at 8 GPUs.
UNDONE_PLANS = {
    "leave-then-join": [NodeLeave(at_s=0.01, node=1),
                        NodeJoin(at_s=0.02, node=1)],
    "join-then-leave": [NodeJoin(at_s=0.01, node=4),
                        NodeLeave(at_s=0.02, node=4)],
    "join-then-crash": [NodeJoin(at_s=0.01, node=4),
                        NodeCrash(at_s=0.02, node=4)],
}

#: A degradation window still open when the crash recovery rebuilds.
WINDOW_PLAN = [BandwidthDegradation(at_s=0.1, node=2, fraction=0.2,
                                    duration_s=50.0),
               NodeCrash(at_s=0.3, node=1)]


def run_chaos_sized(faults):
    """Run ``faults`` on the chaos soak's model and 4 x 2 layout.

    Returns the result, the plan, the last train context built (the
    cluster in use when the run ended) and the NIC capacity a freshly
    built cluster has.
    """
    contexts, healthy = [], []
    build = trainer.build_train_context

    def recording(*args, **kwargs):
        contexts.append(build(*args, **kwargs))
        healthy.append(contexts[-1].cluster.nic_out[0].capacity_bps)
        return contexts[-1]

    plan = FaultPlan(faults)
    with mock.patch.object(trainer, "build_train_context", recording):
        result = run_fault_injected_training(
            default_chaos_model(), plan, num_gpus=8, gpus_per_node=2,
            total_iterations=12, checkpoint_interval=2,
            restart_overhead_s=2.0, sync_timeout_s=0.5, unit_timeout_s=1.0,
            comm_retries=1, retry_backoff_s=0.1)
    assert len(set(healthy)) == 1
    return result, plan, contexts[-1], healthy[0]


@st.composite
def leave_join_plans(draw):
    """Valid leaves and joins on 4 initial nodes and 2 new identities.

    Every event lands by t = 0.15 s; the 12-iteration run's last
    boundary comes after 0.17 s even on one node.
    """
    members = set(range(4))
    times = sorted(draw(st.lists(
        st.floats(0.0, 0.15, allow_nan=False), max_size=8, unique=True)))
    faults = []
    for at_s in times:
        outside = sorted(set(range(6)) - members)
        if len(members) > 1 and (not outside or draw(st.booleans())):
            node = draw(st.sampled_from(sorted(members)))
            members.discard(node)
            faults.append(NodeLeave(at_s=at_s, node=node))
        else:
            node = draw(st.sampled_from(outside))
            members.add(node)
            faults.append(NodeJoin(at_s=at_s, node=node))
    return faults


@settings(max_examples=100, deadline=None)
@given(faults=leave_join_plans())
@example(faults=UNDONE_PLANS["leave-then-join"])
@example(faults=UNDONE_PLANS["join-then-leave"])
@example(faults=UNDONE_PLANS["join-then-crash"])
@example(faults=WINDOW_PLAN)
def test_run_ends_where_the_checker_says(faults):
    result, plan, ctx, healthy = run_chaos_sized(faults)
    assert len(result.iteration_times_s) == result.total_iterations
    assert result.final_num_gpus == plan.membership_bounds(4)[1] * 2
    # Every NIC of the final cluster is healthy unless a window of its
    # node is still open, in which case it runs at the window's factor.
    members = list(range(4))
    for transition in result.epoch_transitions:
        members = [n for n in members if n not in transition.departed]
        members += transition.joined
    now = ctx.sim.now
    for index, node in enumerate(members):
        factor = next((f.nic_factor for f in plan
                       if isinstance(f, WindowFault) and f.node == node
                       and f.at_s <= now < f.end_s), 1.0)
        assert ctx.cluster.nic_out[index].capacity_bps == \
            pytest.approx(healthy * factor)


@pytest.mark.parametrize("name", sorted(UNDONE_PLANS))
def test_undone_announcements_make_no_transition(name):
    result, _plan, _ctx, _healthy = run_chaos_sized(UNDONE_PLANS[name])
    assert result.final_num_gpus == 8
    assert result.epoch_transitions == ()
    assert result.recoveries == ()


def test_open_window_holds_across_the_recovery_rebuild():
    result, _plan, ctx, healthy = run_chaos_sized(WINDOW_PLAN)
    assert [t.kind for t in result.epoch_transitions] == ["failure"]
    # Node 2 sits at index 1 of the rebuilt cluster (0, 2, 3).
    links = (ctx.cluster.nic_out[1], ctx.cluster.nic_in[1])
    assert [link.capacity_bps for link in links] == \
        [pytest.approx(healthy * 0.2)] * 2
    sim = ctx.sim
    sim.run(until=sim.timeout(50.1 - sim.now - 1e-6))
    assert [link.capacity_bps for link in links] == \
        [pytest.approx(healthy * 0.2)] * 2
    sim.run(until=sim.timeout(2e-6))
    assert [link.capacity_bps for link in links] == [healthy] * 2
