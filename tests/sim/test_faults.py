"""Unit tests for the fault-injection subsystem (`repro.sim.faults`)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.worker import parse_fault_plan
from repro.errors import CampaignError, FaultInjectionError
from repro.obs import Observability
from repro.sim.faults import (
    DEAD_LINK_BPS,
    MEMBERSHIP_FAULTS,
    BandwidthDegradation,
    FaultInjector,
    FaultPlan,
    LinkFlap,
    NodeCrash,
    NodeJoin,
    NodeLeave,
    Straggler,
)
from repro.sim.kernel import Simulator
from repro.sim.network import FluidNetwork
from repro.sim.topology import Cluster, NodeSpec


def make_cluster(sim, num_nodes=4):
    return Cluster(sim, num_nodes, NodeSpec(gpus_per_node=2))


class TestFaultPlan:
    def test_plan_sorts_by_time(self):
        plan = FaultPlan([NodeCrash(at_s=5.0, node=0),
                          NodeCrash(at_s=1.0, node=1)])
        assert [f.at_s for f in plan] == [1.0, 5.0]
        assert plan.crash_count == 2
        assert len(plan) == 2

    def test_validation_rejects_bad_values(self):
        with pytest.raises(FaultInjectionError):
            NodeCrash(at_s=-1.0, node=0)
        with pytest.raises(FaultInjectionError):
            LinkFlap(at_s=0.0, node=0, down_s=0.0)
        with pytest.raises(FaultInjectionError):
            BandwidthDegradation(at_s=0.0, node=0, fraction=1.5)
        with pytest.raises(FaultInjectionError):
            Straggler(at_s=0.0, node=0, slowdown=0.5)

    def test_arm_checks_node_range(self):
        sim = Simulator()
        injector = FaultInjector(sim, make_cluster(sim, num_nodes=2),
                                 FluidNetwork(sim))
        plan = FaultPlan([NodeCrash(at_s=1.0, node=7)])
        with pytest.raises(FaultInjectionError):
            injector.arm(plan)

    def test_poisson_is_deterministic_and_bounded(self):
        a = FaultPlan.poisson(mtbf_s=5.0, horizon_s=50.0, num_nodes=4,
                              seed=3)
        b = FaultPlan.poisson(mtbf_s=5.0, horizon_s=50.0, num_nodes=4,
                              seed=3)
        assert [f.at_s for f in a] == [f.at_s for f in b]
        assert all(0 <= f.at_s < 50.0 for f in a)
        # Crashes target distinct nodes.
        victims = [f.node for f in a if isinstance(f, NodeCrash)]
        assert len(victims) == len(set(victims)) <= 4

    def test_poisson_mixed_kinds(self):
        plan = FaultPlan.poisson(
            mtbf_s=2.0, horizon_s=40.0, num_nodes=4, seed=1,
            kinds=(NodeCrash, LinkFlap, BandwidthDegradation, Straggler))
        kinds = {type(f) for f in plan}
        assert len(kinds) >= 2  # the draw mixes fault types

    @pytest.mark.parametrize("node", [1.5, True, math.nan, "1"])
    def test_node_must_be_an_integer(self, node):
        # A float node used to survive until a cluster indexed a tuple
        # with it, mid-run.
        with pytest.raises(FaultInjectionError, match="whole number"):
            NodeCrash(at_s=0.0, node=node)

    def test_plan_rejects_non_fault_entries(self):
        with pytest.raises(FaultInjectionError, match="Fault instances"):
            FaultPlan(["x"])

    @pytest.mark.parametrize("draw", [
        lambda kinds: FaultPlan.poisson(mtbf_s=1.0, horizon_s=10.0,
                                        num_nodes=4, kinds=kinds),
        lambda kinds: FaultPlan.chaos(0, num_nodes=4, horizon_s=10.0,
                                      kinds=kinds),
    ], ids=["poisson", "chaos"])
    def test_unknown_kind_raises_in_both_generators(self, draw):
        with pytest.raises(FaultInjectionError, match="unknown fault kind"):
            draw((int,))

    def test_window_vocabulary(self):
        # Each window fault states its window, NIC factor and event
        # name once; the checker, the injector and the cluster read them.
        flap = LinkFlap(at_s=1.0, node=0, down_s=0.5)
        degrade = BandwidthDegradation(at_s=1.0, node=0, fraction=0.3,
                                       duration_s=2.0)
        slow = Straggler(at_s=1.0, node=0, slowdown=4.0, duration_s=3.0)
        assert [(f.window_s, f.end_s, f.nic_factor, f.event)
                for f in (flap, degrade, slow)] == [
            (0.5, 1.5, 0.0, "link_flap"),
            (2.0, 3.0, 0.3, "degrade"),
            (3.0, 4.0, 0.25, "straggler")]


class TestFaultPlanHardening:
    """Validation hardening: fractions, window overlap, target bounds."""

    def test_degradation_fraction_bounds(self):
        # 1.0 is a valid (no-op) degradation; the bound is (0, 1].
        BandwidthDegradation(at_s=0.0, node=0, fraction=1.0)
        for bad in (0.0, -0.5, 1.0001, 2.0):
            with pytest.raises(FaultInjectionError,
                               match=r"fraction must be (finite and "
                                     r"positive|in \(0, 1\])"):
                BandwidthDegradation(at_s=0.0, node=0, fraction=bad)

    def test_overlapping_flap_windows_on_same_node_rejected(self):
        plan = FaultPlan([LinkFlap(at_s=1.0, node=0, down_s=2.0),
                          LinkFlap(at_s=2.0, node=0, down_s=1.0)])
        with pytest.raises(FaultInjectionError, match="overlaps"):
            plan.membership_bounds(2)

    def test_overlap_across_window_kinds_rejected(self):
        # The injector's capacity save/restore does not nest, so a
        # straggler window inside a degradation window is just as
        # broken as two overlapping flaps.
        plan = FaultPlan([
            BandwidthDegradation(at_s=0.5, node=1, fraction=0.5,
                                 duration_s=4.0),
            Straggler(at_s=2.0, node=1, slowdown=3.0, duration_s=1.0)])
        with pytest.raises(FaultInjectionError, match="overlaps"):
            plan.membership_bounds(2)

    def test_back_to_back_and_cross_node_windows_are_valid(self):
        plan = FaultPlan([
            LinkFlap(at_s=1.0, node=0, down_s=1.0),
            LinkFlap(at_s=2.0, node=0, down_s=1.0),  # starts as prior ends
            Straggler(at_s=1.5, node=1, slowdown=2.0, duration_s=5.0)])
        assert plan.membership_bounds(2) == (2, 2)

    def test_arm_rejects_overlap(self):
        sim = Simulator()
        injector = FaultInjector(sim, make_cluster(sim, num_nodes=2),
                                 FluidNetwork(sim))
        plan = FaultPlan([LinkFlap(at_s=0.0, node=0, down_s=3.0),
                          LinkFlap(at_s=1.0, node=0, down_s=1.0)])
        with pytest.raises(FaultInjectionError, match="overlaps"):
            injector.arm(plan)

    def test_link_fault_target_outside_bounds_rejected(self):
        plan = FaultPlan([LinkFlap(at_s=0.0, node=9, down_s=1.0)])
        with pytest.raises(FaultInjectionError, match="knows nodes"):
            plan.membership_bounds(2)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 200))
    def test_poisson_windowed_plans_never_overlap(self, seed):
        plan = FaultPlan.poisson(
            mtbf_s=0.5, horizon_s=30.0, num_nodes=3, seed=seed,
            kinds=(LinkFlap, BandwidthDegradation, Straggler))
        plan.membership_bounds(3)  # includes the overlap check

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 200))
    def test_chaos_windowed_plans_never_overlap(self, seed):
        plan = FaultPlan.chaos(seed=seed, num_nodes=4, horizon_s=40.0,
                               mtbf_s=0.8)
        plan.membership_bounds(4)  # includes the overlap check


NAN = math.nan
INF = math.inf


class TestNonFiniteSchedules:
    """NaN and inf times, durations and rates are rejected up front: a
    NaN horizon never ends a draw loop, so it would hang the run.

    These call the schedule builders and parsers directly, never
    :meth:`FaultPlan.chaos` or the chaos runner with a NaN time, so a
    regression fails here instead of hanging.
    """

    @pytest.mark.parametrize("mtbf_s,horizon_s", [
        (NAN, 2.5), (INF, 2.5), (0.35, NAN), (0.35, INF), (NAN, NAN)])
    def test_poisson_rejects_non_finite(self, mtbf_s, horizon_s):
        with pytest.raises(FaultInjectionError):
            FaultPlan.poisson(mtbf_s, horizon_s, 4)

    def test_chaos_rejects_infinite_mtbf(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.chaos(0, num_nodes=4, horizon_s=2.5, mtbf_s=INF)

    @pytest.mark.parametrize("make", [
        lambda: NodeCrash(at_s=NAN, node=0),
        lambda: NodeCrash(at_s=INF, node=0),
        lambda: NodeJoin(at_s=NAN, node=5),
        lambda: LinkFlap(at_s=0.0, node=0, down_s=NAN),
        lambda: LinkFlap(at_s=0.0, node=0, down_s=INF),
        lambda: BandwidthDegradation(at_s=0.0, node=0, duration_s=NAN),
        lambda: BandwidthDegradation(at_s=0.0, node=0, duration_s=INF),
        lambda: BandwidthDegradation(at_s=0.0, node=0, fraction=NAN),
        lambda: Straggler(at_s=0.0, node=0, duration_s=NAN),
        lambda: Straggler(at_s=0.0, node=0, duration_s=INF),
        lambda: Straggler(at_s=0.0, node=0, slowdown=NAN),
        lambda: Straggler(at_s=0.0, node=0, slowdown=INF),
    ], ids=["crash-at-nan", "crash-at-inf", "join-at-nan", "flap-nan",
            "flap-inf", "degrade-nan", "degrade-inf", "fraction-nan",
            "straggle-nan", "straggle-inf", "slowdown-nan", "slowdown-inf"])
    def test_fault_rejects_non_finite_fields(self, make):
        with pytest.raises(FaultInjectionError):
            make()

    @pytest.mark.parametrize("text", [
        "chaos:mtbf=nan", "chaos:horizon=nan", "chaos:mtbf=inf",
        "chaos:horizon=inf", "chaos:mtbf=0", "chaos:horizon=-1",
        "chaos:foo=1", "chaos:mtbf=0.35,foo=1"])
    def test_parse_fault_plan_rejects(self, text):
        with pytest.raises(CampaignError):
            parse_fault_plan(text)

    def test_parse_fault_plan_accepts_the_stock_plan(self):
        assert parse_fault_plan("chaos:mtbf=0.35,horizon=2.5") == \
            {"mtbf": 0.35, "horizon": 2.5}
        assert parse_fault_plan("chaos:") == {}


class TestFaultInjectorCrash:
    def test_crash_squashes_links_and_marks_node(self):
        sim = Simulator()
        cluster = make_cluster(sim)
        network = FluidNetwork(sim)
        injector = FaultInjector(sim, cluster, network)
        injector.arm(FaultPlan([NodeCrash(at_s=2.0, node=1)]))
        sim.run()
        assert cluster.failed_nodes == {1}
        assert cluster.nic_out[1].capacity_bps == DEAD_LINK_BPS
        assert cluster.nic_in[1].capacity_bps == DEAD_LINK_BPS
        assert cluster.nvlink[1].capacity_bps == DEAD_LINK_BPS
        assert injector.take_crashes() == [(1, pytest.approx(2.0))]
        assert injector.take_crashes() == []  # drained

    def test_crash_stalls_inflight_flow(self):
        sim = Simulator()
        cluster = make_cluster(sim)
        network = FluidNetwork(sim)
        injector = FaultInjector(sim, cluster, network)
        # A transfer that would finish quickly on a healthy link.
        flow = network.start_flow([cluster.nic_out[1]], size_bytes=1e9)
        injector.arm(FaultPlan([NodeCrash(at_s=0.01, node=1)]))
        sim.run(until=sim.timeout(60.0))
        assert not flow.triggered  # stalled, not completed

    def test_obs_records_injection(self):
        sim = Simulator()
        cluster = make_cluster(sim)
        obs = Observability()
        injector = FaultInjector(sim, cluster, FluidNetwork(sim), obs=obs)
        injector.arm(FaultPlan([NodeCrash(at_s=1.0, node=0)]))
        sim.run()
        assert obs.fault_counts() == {"inject": 1}
        assert [i.name for i in obs.timeline.instants] == ["fault.inject"]


class TestTransientFaults:
    def test_link_flap_goes_down_and_recovers(self):
        sim = Simulator()
        cluster = make_cluster(sim)
        network = FluidNetwork(sim)
        injector = FaultInjector(sim, cluster, network)
        healthy = cluster.nic_out[2].capacity_bps
        injector.arm(FaultPlan([LinkFlap(at_s=1.0, node=2, down_s=2.0)]))
        sim.run(until=sim.timeout(1.5))
        assert cluster.nic_out[2].capacity_bps == DEAD_LINK_BPS
        sim.run()
        assert cluster.nic_out[2].capacity_bps == pytest.approx(healthy)
        assert not cluster.failed_nodes  # flaps are not crashes

    def test_degradation_scales_and_restores(self):
        sim = Simulator()
        cluster = make_cluster(sim)
        network = FluidNetwork(sim)
        injector = FaultInjector(sim, cluster, network)
        healthy = cluster.nic_out[0].capacity_bps
        injector.arm(FaultPlan([BandwidthDegradation(
            at_s=1.0, node=0, fraction=0.25, duration_s=3.0)]))
        sim.run(until=sim.timeout(2.0))
        assert cluster.nic_out[0].capacity_bps == \
            pytest.approx(healthy * 0.25)
        sim.run()
        assert cluster.nic_out[0].capacity_bps == pytest.approx(healthy)

    def test_straggler_slows_transfers(self):
        sim = Simulator()
        cluster = make_cluster(sim)
        network = FluidNetwork(sim)
        injector = FaultInjector(sim, cluster, network)
        healthy = cluster.nic_out[3].capacity_bps
        injector.arm(FaultPlan([Straggler(at_s=0.5, node=3, slowdown=4.0,
                                          duration_s=1.0)]))
        sim.run(until=sim.timeout(1.0))
        assert cluster.nic_out[3].capacity_bps == \
            pytest.approx(healthy / 4.0)
        sim.run()
        assert cluster.nic_out[3].capacity_bps == pytest.approx(healthy)

    def test_back_to_back_windows_on_one_node(self):
        # The second window opens at the instant the first closes; the
        # kernel delivers it before the first close runs.
        sim = Simulator()
        cluster = make_cluster(sim)
        obs = Observability()
        injector = FaultInjector(sim, cluster, FluidNetwork(sim), obs=obs)
        healthy = cluster.nic_out[0].capacity_bps
        injector.arm(FaultPlan([LinkFlap(at_s=1.0, node=0, down_s=1.0),
                                LinkFlap(at_s=2.0, node=0, down_s=1.0)]))
        for at in (1.5, 2.0, 2.5):
            sim.run(until=sim.timeout(at - sim.now))
            assert cluster.nic_out[0].capacity_bps == DEAD_LINK_BPS
            assert cluster.nic_in[0].capacity_bps == DEAD_LINK_BPS
        sim.run()
        assert sim.now == pytest.approx(3.0)
        assert cluster.nic_out[0].capacity_bps == healthy
        assert cluster.nic_in[0].capacity_bps == healthy
        assert obs.fault_counts() == {"inject": 2, "recover": 2}

    def test_crash_during_flap_window_stays_down(self):
        sim = Simulator()
        cluster = make_cluster(sim)
        network = FluidNetwork(sim)
        injector = FaultInjector(sim, cluster, network)
        injector.arm(FaultPlan([
            LinkFlap(at_s=1.0, node=1, down_s=5.0),
            NodeCrash(at_s=2.0, node=1),
        ]))
        sim.run()
        # The flap's restore must not resurrect a dead node's NIC.
        assert cluster.nic_out[1].capacity_bps == DEAD_LINK_BPS
        assert cluster.failed_nodes == {1}


class TestRetarget:
    def test_retarget_remaps_original_node_ids(self):
        sim = Simulator()
        cluster = make_cluster(sim, num_nodes=4)
        network = FluidNetwork(sim)
        injector = FaultInjector(sim, cluster, network)
        injector.arm(FaultPlan([
            NodeCrash(at_s=1.0, node=1),
            NodeCrash(at_s=10.0, node=3),
        ]))
        sim.run(until=sim.timeout(2.0))
        assert injector.take_crashes() == [(1, 1.0)]
        # Rebuild over survivors {0, 2, 3} -> new indices {0, 1, 2}.
        new_cluster = make_cluster(sim, num_nodes=3)
        new_network = FluidNetwork(sim)
        injector.retarget(new_cluster, new_network, (0, 2, 3))
        sim.run()
        # Original node 3 is index 2 in the rebuilt cluster.
        assert new_cluster.failed_nodes == {2}
        assert new_cluster.nic_out[2].capacity_bps == DEAD_LINK_BPS
        assert injector.take_crashes() == [(3, 10.0)]

    def test_retarget_rejects_wrong_size(self):
        sim = Simulator()
        injector = FaultInjector(sim, make_cluster(sim, num_nodes=4),
                                 FluidNetwork(sim))
        with pytest.raises(FaultInjectionError, match="3 members"):
            injector.retarget(make_cluster(sim, num_nodes=4),
                              FluidNetwork(sim), (0, 2, 3))

    def test_fault_on_already_crashed_node_is_noop(self):
        sim = Simulator()
        cluster = make_cluster(sim)
        injector = FaultInjector(sim, cluster, FluidNetwork(sim))
        injector.apply(NodeCrash(at_s=0.0, node=2))
        injector.apply(NodeCrash(at_s=0.0, node=2))  # idempotent
        assert injector.take_crashes() == [(2, 0.0)]

    def test_joiner_admitted_mid_window_gets_the_rest(self):
        sim = Simulator()
        injector = FaultInjector(sim, make_cluster(sim, num_nodes=4),
                                 FluidNetwork(sim))
        injector.apply(NodeJoin(at_s=0.0, node=4))
        injector.apply(LinkFlap(at_s=0.0, node=4, down_s=5.0))
        assert injector.take_joins() == (4,)
        sim.run(until=sim.timeout(1.0))
        grown = make_cluster(sim, num_nodes=5)
        healthy = grown.nic_out[4].capacity_bps
        injector.retarget(grown, FluidNetwork(sim), (0, 1, 2, 3, 4))
        assert grown.nic_out[4].capacity_bps == DEAD_LINK_BPS
        sim.run()
        assert sim.now == pytest.approx(5.0)
        assert grown.nic_out[4].capacity_bps == healthy


class TestMembershipPlanValidation:
    def test_leave_out_of_range_rejected(self):
        plan = FaultPlan([NodeLeave(at_s=1.0, node=7)])
        with pytest.raises(FaultInjectionError, match="not a member"):
            plan.membership_bounds(2)

    def test_schedule_draining_the_group_rejected(self):
        plan = FaultPlan([NodeLeave(at_s=1.0, node=0),
                          NodeCrash(at_s=2.0, node=1)])
        with pytest.raises(FaultInjectionError, match="below one worker"):
            plan.membership_bounds(2)

    def test_join_of_current_member_rejected(self):
        plan = FaultPlan([NodeJoin(at_s=1.0, node=1)])
        with pytest.raises(FaultInjectionError, match="already a member"):
            plan.membership_bounds(2)

    def test_leave_then_rejoin_of_same_identity_is_valid(self):
        plan = FaultPlan([NodeLeave(at_s=1.0, node=1),
                          NodeJoin(at_s=2.0, node=1),
                          NodeLeave(at_s=3.0, node=1)])
        assert plan.membership_bounds(2) == (1, 1)
        assert plan.membership_event_count == 3

    def test_membership_tracked_in_schedule_order(self):
        # A leave that is only legal because an earlier join grew the
        # group: validation must walk the implied membership over time.
        plan = FaultPlan([NodeJoin(at_s=0.5, node=1),
                          NodeLeave(at_s=0.6, node=0)])
        assert plan.membership_bounds(1) == (1, 1)
        # The reverse order (leave first) would drain the group.
        with pytest.raises(FaultInjectionError):
            FaultPlan([NodeLeave(at_s=0.4, node=0),
                       NodeJoin(at_s=0.5, node=1)]).membership_bounds(1)

    def test_link_fault_on_unknown_identity_rejected(self):
        plan = FaultPlan([Straggler(at_s=1.0, node=9, slowdown=2.0)])
        with pytest.raises(FaultInjectionError, match="only ever knows"):
            plan.membership_bounds(2)
        # ... but a *former* member is fine (the fault is a runtime no-op).
        plan = FaultPlan([NodeLeave(at_s=1.0, node=1),
                          LinkFlap(at_s=2.0, node=1)])
        plan.membership_bounds(2)

    def test_arm_covers_membership_events(self):
        sim = Simulator()
        injector = FaultInjector(sim, make_cluster(sim, num_nodes=2),
                                 FluidNetwork(sim))
        with pytest.raises(FaultInjectionError):
            injector.arm(FaultPlan([NodeLeave(at_s=1.0, node=5)]))


class TestChaosPlans:
    def test_chaos_is_deterministic(self):
        a = FaultPlan.chaos(seed=7, num_nodes=4, horizon_s=10.0)
        b = FaultPlan.chaos(seed=7, num_nodes=4, horizon_s=10.0)
        assert a.faults == b.faults

    def test_chaos_mixes_membership_and_link_faults(self):
        plan = FaultPlan.chaos(seed=3, num_nodes=4, horizon_s=60.0,
                               mtbf_s=1.0)
        kinds = {type(f) for f in plan}
        assert any(k in kinds for k in MEMBERSHIP_FAULTS)
        assert plan.membership_event_count <= len(plan)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000),
           num_nodes=st.integers(1, 6),
           min_nodes=st.integers(1, 3),
           max_extra=st.integers(0, 3))
    def test_chaos_plans_always_validate(self, seed, num_nodes,
                                         min_nodes, max_extra):
        # Every drawn schedule must pass the same up-front validation
        # the recovery driver applies, and respect the membership floor.
        min_nodes = min(min_nodes, num_nodes)
        plan = FaultPlan.chaos(seed=seed, num_nodes=num_nodes,
                               horizon_s=30.0, mtbf_s=2.0,
                               min_nodes=min_nodes,
                               max_extra_nodes=max_extra)
        minimum, final = plan.membership_bounds(num_nodes)
        assert minimum >= min_nodes
        assert final <= num_nodes + max_extra


class TestMembershipInjector:
    def test_leave_is_announced_not_applied(self):
        sim = Simulator()
        cluster = make_cluster(sim)
        network = FluidNetwork(sim)
        injector = FaultInjector(sim, cluster, network)
        healthy = cluster.nic_out[1].capacity_bps
        injector.arm(FaultPlan([NodeLeave(at_s=1.0, node=1)]))
        sim.run()
        # Unlike a crash, the node stays healthy until the boundary.
        assert cluster.failed_nodes == set()
        assert cluster.nic_out[1].capacity_bps == pytest.approx(healthy)
        assert injector.take_leaves() == (1,)
        assert injector.take_leaves() == ()  # drained

    def test_duplicate_announcements_dedup(self):
        sim = Simulator()
        injector = FaultInjector(sim, make_cluster(sim), FluidNetwork(sim))
        injector.apply(NodeLeave(at_s=0.0, node=2))
        injector.apply(NodeLeave(at_s=0.0, node=2))
        assert injector.take_leaves() == (2,)
        injector.apply(NodeJoin(at_s=0.0, node=9))
        injector.apply(NodeJoin(at_s=0.0, node=9))
        assert injector.take_joins() == (9,)

    def test_join_of_live_member_is_noop(self):
        sim = Simulator()
        injector = FaultInjector(sim, make_cluster(sim), FluidNetwork(sim))
        injector.apply(NodeJoin(at_s=0.0, node=1))
        assert injector.take_joins() == ()

    def test_crash_voids_a_pending_leave(self):
        # The node announced a clean departure but died before the
        # boundary: the crash-recovery path owns it, the leave is void.
        sim = Simulator()
        injector = FaultInjector(sim, make_cluster(sim), FluidNetwork(sim))
        injector.apply(NodeLeave(at_s=0.0, node=1))
        injector.apply(NodeCrash(at_s=0.0, node=1))
        assert injector.take_crashes() == [(1, 0.0)]
        assert injector.take_leaves() == ()

    def test_leave_of_crashed_member_is_dropped(self):
        sim = Simulator()
        injector = FaultInjector(sim, make_cluster(sim), FluidNetwork(sim))
        injector.apply(NodeCrash(at_s=0.0, node=2))
        injector.apply(NodeLeave(at_s=0.0, node=2))
        assert injector.take_crashes() == [(2, 0.0)]
        assert injector.take_leaves() == ()

    @pytest.mark.parametrize("first, second", [
        (NodeLeave(at_s=0.0, node=1), NodeJoin(at_s=0.0, node=1)),
        (NodeJoin(at_s=0.0, node=4), NodeLeave(at_s=0.0, node=4)),
        (NodeJoin(at_s=0.0, node=4), NodeCrash(at_s=0.0, node=4)),
    ], ids=["leave-then-join", "join-then-leave", "join-then-crash"])
    def test_undoing_announcement_withdraws_both(self, first, second):
        sim = Simulator()
        cluster = make_cluster(sim)
        injector = FaultInjector(sim, cluster, FluidNetwork(sim))
        injector.apply(first)
        injector.apply(second)
        assert injector.take_crashes() == []
        assert injector.take_joins() == ()
        assert injector.take_leaves() == ()
        assert cluster.failed_nodes == set()

    def test_withdrawn_crash_counts_no_injection(self):
        # No node failed, so no fault episode opens and nothing recovers.
        sim = Simulator()
        obs = Observability()
        injector = FaultInjector(sim, make_cluster(sim), FluidNetwork(sim),
                                 obs=obs)
        injector.apply(NodeJoin(at_s=0.0, node=4))
        injector.apply(NodeCrash(at_s=0.0, node=4))
        assert obs.fault_counts() == {"join": 1}

    def test_nothing_taken_while_a_crash_is_pending(self):
        sim = Simulator()
        injector = FaultInjector(sim, make_cluster(sim), FluidNetwork(sim))
        injector.apply(NodeLeave(at_s=0.0, node=2))
        injector.apply(NodeJoin(at_s=0.0, node=5))
        injector.apply(NodeCrash(at_s=0.0, node=1))
        assert injector.take_joins() == ()
        assert injector.take_leaves() == ()
        assert injector.take_crashes() == [(1, 0.0)]
        assert injector.take_joins() == (5,)
        assert injector.take_leaves() == (2,)

    def test_crashed_node_rejoins_at_its_new_index(self):
        sim = Simulator()
        cluster = make_cluster(sim, num_nodes=4)
        injector = FaultInjector(sim, cluster, FluidNetwork(sim))
        injector.apply(NodeCrash(at_s=0.0, node=1))
        # The rejoin waits until recovery removed the crashed member.
        injector.apply(NodeJoin(at_s=0.0, node=1))
        assert injector.take_joins() == ()
        # Recovery drains the crash and rebuilds over the survivors with
        # no boundary in between; only then does the rejoin come out.
        assert injector.take_crashes() == [(1, 0.0)]
        injector.retarget(make_cluster(sim, num_nodes=3),
                          FluidNetwork(sim), (0, 2, 3))
        assert injector.take_joins() == (1,)
        rebuilt = make_cluster(sim, num_nodes=4)
        injector.retarget(rebuilt, FluidNetwork(sim), (0, 2, 3, 1))
        # The rejoined node is healthy: a fresh crash for it re-applies.
        injector.apply(NodeCrash(at_s=0.0, node=1))
        assert rebuilt.failed_nodes == {3}  # node 1 sits at index 3 now
        assert injector.take_crashes() == [(1, 0.0)]


class TestGeneratorCounts:
    """Counts and kind lists are checked before the RNG is built: an
    empty ``kinds`` used to fail inside ``randrange`` and a fractional
    node count inside ``range``, both with untyped errors."""

    @pytest.mark.parametrize("bad", [
        dict(kinds=()), dict(kinds=[]), dict(num_nodes=2.5),
        dict(num_nodes=2.0), dict(num_nodes=math.nan), dict(num_nodes=0)],
        ids=["kinds-empty-tuple", "kinds-empty-list", "nodes-fractional",
             "nodes-float", "nodes-nan", "nodes-zero"])
    def test_poisson_rejects(self, bad):
        args = dict(mtbf_s=0.5, horizon_s=6.0, num_nodes=2, seed=6)
        args.update(bad)
        with pytest.raises(FaultInjectionError):
            FaultPlan.poisson(**args)

    @pytest.mark.parametrize("bad", [
        dict(kinds=()), dict(num_nodes=2.5), dict(num_nodes=math.nan),
        dict(min_nodes=1.5), dict(min_nodes=5), dict(min_nodes=0),
        dict(max_extra_nodes=0.5), dict(max_extra_nodes=-1)],
        ids=["kinds-empty", "nodes-fractional", "nodes-nan",
             "min-fractional", "min-above-nodes", "min-zero",
             "extra-fractional", "extra-negative"])
    def test_chaos_rejects(self, bad):
        args = dict(seed=0, num_nodes=4, horizon_s=2.5)
        args.update(bad)
        with pytest.raises(FaultInjectionError):
            FaultPlan.chaos(**args)

    def test_kinds_as_a_list_draw_the_same_plan(self):
        kinds = (NodeCrash, LinkFlap, BandwidthDegradation, Straggler)
        as_tuple = FaultPlan.poisson(0.5, 6.0, 2, seed=6, kinds=kinds)
        as_list = FaultPlan.poisson(0.5, 6.0, 2, seed=6, kinds=list(kinds))
        assert as_list.faults == as_tuple.faults
