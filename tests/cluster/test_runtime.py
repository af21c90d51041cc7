"""End-to-end tests for the multi-tenant runtime (`repro.cluster`).

The acceptance contract of ISSUE 10: in the committed 3-job scenario,
chaos on tenant A walks the full degradation ladder with typed findings
while tenants B and C finish with numeric digests bit-identical to the
chaos-free shared run, and the whole run replays to a pinned
``cluster_digest``.
"""

import dataclasses
import json
import math
import pathlib

import pytest

import repro.cluster.runtime as runtime_module
from repro.autotune.cache import SettingsCache
from repro.cluster import (
    ClusterConfig,
    ClusterRuntime,
    JobSpec,
    three_job_scenario,
)
from repro.cluster.fabric import DEAD_NIC_FRACTION
from repro.errors import AdmissionRejected, ClusterError
from repro.models import get_model
from repro.sim.faults import (
    BandwidthDegradation,
    FaultPlan,
    LinkFlap,
    NodeCrash,
    Straggler,
)

#: The pinned three-job chaos run (``repro.harness.determinism.
#: CLUSTER_CELLS``; re-pin with ``tools/capture_golden.py``).
GOLDEN_CLUSTER = json.loads(
    (pathlib.Path(__file__).parents[1] / "sim" / "golden_cluster.json")
    .read_text())["three-job-chaos"]


def small_config(**overrides):
    base = dict(num_nodes=4, admission_deadline_s=2.0)
    base.update(overrides)
    return ClusterConfig(**base)


class TestScenarioLadder:
    @pytest.fixture(scope="class")
    def chaos_result(self):
        return three_job_scenario(chaos=True).run()

    def test_all_tenants_complete(self, chaos_result):
        for job_id in ("jobA", "jobB", "jobC"):
            assert chaos_result.jobs[job_id]["status"] == "completed"

    def test_victim_walks_the_full_ladder(self, chaos_result):
        job_a = chaos_result.jobs["jobA"]
        assert job_a["ladder_stage"] == 3
        kinds = [t["kind"] for t in job_a["transitions"]]
        assert kinds == ["preempt", "resume"]
        finding_kinds = {f.kind for f in chaos_result.findings
                         if dict(f.evidence).get("job") == "jobA"}
        assert {"job-slo-breach", "degrade-streams", "degrade-caps",
                "preempt", "resume", "job-crash",
                "interference"} <= finding_kinds

    def test_neighbors_stay_clean(self, chaos_result):
        for job_id in ("jobB", "jobC"):
            job = chaos_result.jobs[job_id]
            assert job["ladder_stage"] == 0
            assert job["transitions"] == []
        victim_kinds = {"degrade-streams", "degrade-caps", "preempt"}
        for finding in chaos_result.findings:
            if finding.kind in victim_kinds:
                assert dict(finding.evidence)["job"] == "jobA"

    def test_findings_sorted_and_typed(self, chaos_result):
        records = [f.record() for f in chaos_result.findings]
        assert all(r["component"] == "cluster" for r in records)
        keys = [(-int(f.severity), f.component, f.kind, f.subject,
                 f.time_s) for f in chaos_result.findings]
        assert keys == sorted(keys)


class TestIsolation:
    def test_chaos_on_a_never_touches_b_and_c_numerics(self):
        with_chaos = three_job_scenario(chaos=True).run()
        without = three_job_scenario(chaos=False).run()
        for job_id in ("jobA", "jobB", "jobC"):
            assert with_chaos.job_digest(job_id) == \
                without.job_digest(job_id)
        # The runs themselves differ (timings, findings): the isolation
        # is in the numerics, not a vacuous no-op.
        assert with_chaos.cluster_digest != without.cluster_digest

    def test_replay_determinism(self):
        first = three_job_scenario(chaos=True).run()
        second = three_job_scenario(chaos=True).run()
        assert first.cluster_digest == second.cluster_digest
        assert first.findings_digest == second.findings_digest

    def test_unknown_job_digest_rejected(self):
        result = three_job_scenario(chaos=False).run()
        with pytest.raises(ClusterError):
            result.job_digest("ghost")

    def test_pinned_golden_cluster_digest(self):
        # The CI cluster-smoke gate reads the same pin; re-pin with
        # tools/capture_golden.py after an intentional change to the
        # scenario, the fabric or the degradation policy.
        result = three_job_scenario(chaos=True).run()
        assert result.cluster_digest == GOLDEN_CLUSTER["cluster_digest"]


class TestClosedFormScoring:
    """The SLO baseline and the shrink tuner score with the cost model."""

    def test_baseline_is_compute_plus_the_uncontended_ring(self):
        runtime = three_job_scenario(chaos=False)
        # jobA: 2 S (m-1)/m = 48 MB per hop at min(10 Gbps NIC,
        # 8 streams x 2.5 Gbps, 40 Gbps core / 2 nodes) = 10 Gbps.
        assert runtime._baselines["jobA"] == \
            pytest.approx(0.04 + 48e6 * 8 / 10e9, rel=1e-12)

    def test_shrink_scores_the_fair_core_share(self):
        # The victim's priority share of the 40 Gbps core is 10 Gbps,
        # 5 Gbps per node: 2 streams of 2.5 Gbps already fill it, so the
        # per-stream overhead makes 2 beat 4.  A tuner blind to the core
        # would pick 4 (10 Gbps on the NIC).
        specs = [
            JobSpec(job_id="a", num_nodes=2, steps=6, num_streams=8,
                    arrival_s=0.1, compute_s=0.04, bytes_per_step=48e6),
            JobSpec(job_id="b", num_nodes=2, steps=60, num_streams=2,
                    priority=3.0, compute_s=0.04, bytes_per_step=48e6,
                    seed=1),
        ]
        chaos = {"a": FaultPlan([Straggler(at_s=0.0, node=0, slowdown=6.0,
                                           duration_s=30.0)])}
        result = ClusterRuntime(
            specs, config=small_config(core_oversubscription=1.0),
            chaos=chaos).run()
        shrinks = [dict(f.evidence) for f in result.findings
                   if f.kind == "degrade-streams"]
        assert [(e["streams_before"], e["streams_after"])
                for e in shrinks] == [(8, 2)]

    def test_single_node_job_shrinks_to_one_stream(self):
        # One node has no ring hop, so the closed form charges no wire
        # time and only the per-stream overhead separates candidates.  A
        # tuner charging a phantom 2 S NIC transfer would pick 4 streams.
        spec = JobSpec(job_id="solo", num_nodes=1, steps=6, num_streams=8,
                       compute_s=0.04, bytes_per_step=48e6)
        chaos = {"solo": FaultPlan([Straggler(at_s=0.0, node=0,
                                              slowdown=6.0,
                                              duration_s=30.0)])}
        result = ClusterRuntime([spec], config=small_config(),
                                chaos=chaos).run()
        shrinks = [dict(f.evidence) for f in result.findings
                   if f.kind == "degrade-streams"]
        assert [(e["streams_before"], e["streams_after"])
                for e in shrinks] == [(8, 1)]


class TestAdmission:
    def test_oversized_job_is_rejected_with_typed_finding(self):
        runtime = ClusterRuntime(
            [JobSpec(job_id="big", num_nodes=8, steps=2)],
            config=small_config())
        result = runtime.run()
        job = result.jobs["big"]
        assert job["status"] == "rejected"
        assert "rejected after" in job["rejection"]
        rejected = [f for f in result.findings
                    if f.kind == "admission-rejected"]
        assert len(rejected) == 1
        assert dict(rejected[0].evidence)["job"] == "big"

    def test_queued_job_admitted_when_slots_free(self):
        runtime = ClusterRuntime(
            [JobSpec(job_id="first", num_nodes=4, steps=2,
                     num_streams=1, compute_s=0.01, bytes_per_step=1e6),
             JobSpec(job_id="second", num_nodes=4, arrival_s=0.01,
                     steps=2, num_streams=1, compute_s=0.01,
                     bytes_per_step=1e6)],
            config=small_config(admission_deadline_s=30.0))
        result = runtime.run()
        assert result.jobs["first"]["status"] == "completed"
        assert result.jobs["second"]["status"] == "completed"
        # The second tenant really queued: >1 attempt, admitted later.
        assert result.jobs["second"]["admission_attempts"] > 1
        assert result.jobs["second"]["admitted_at_s"] > \
            result.jobs["first"]["admitted_at_s"]

    def test_admission_rejected_carries_context(self):
        exc = AdmissionRejected("j1", 5.0, "no slots", 7)
        assert exc.job_id == "j1"
        assert exc.deadline_s == 5.0
        assert exc.attempts == 7
        assert "no slots" in str(exc)


#: One out-of-range value per :class:`ClusterConfig` field (more where
#: a field once failed late or with the wrong error type).
BAD_CONFIG_FIELDS = [
    ("num_nodes", 1),
    ("num_nodes", 2.5),
    ("num_nodes", True),
    ("nic_bps", math.nan),
    ("nic_bps", math.inf),
    ("nic_bps", 0.0),
    ("core_oversubscription", math.nan),
    ("core_oversubscription", math.inf),
    ("core_oversubscription", 0.5),
    ("stream_cap_fraction", 1.5),
    ("stream_cap_fraction", math.nan),
    ("admission_deadline_s", math.nan),
    ("admission_deadline_s", 0.0),
    ("slo_slack", math.nan),
    ("slo_slack", 1.0),
    ("slo_window", 0),
    ("slo_window", 2.0),
    ("breach_patience", 0),
    ("breach_patience", False),
    ("restart_overhead_s", -1),
    ("restart_overhead_s", math.inf),
    ("preempt_requeue_s", -1.0),
    ("preempt_requeue_s", math.nan),
    ("max_preemptions", -1),
    ("max_preemptions", 1.0),
    ("warm_start_max_distance", math.nan),
    ("warm_start_max_distance", -1.0),
]


class TestConfigValidation:
    def test_every_field_is_checked(self):
        fields = {f.name for f in dataclasses.fields(ClusterConfig)}
        assert {name for name, _value in BAD_CONFIG_FIELDS} == fields

    @pytest.mark.parametrize(
        "field, value", BAD_CONFIG_FIELDS,
        ids=[f"{name}={value!r}" for name, value in BAD_CONFIG_FIELDS])
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ClusterError, match=field):
            ClusterConfig(**{field: value})

    def test_edge_values_accepted(self):
        ClusterConfig(num_nodes=2, core_oversubscription=1.0,
                      stream_cap_fraction=1.0, restart_overhead_s=0,
                      preempt_requeue_s=0.0, max_preemptions=0,
                      warm_start_max_distance=0.0, nic_bps=10**10)


class TestRuntimeValidation:
    def test_duplicate_job_ids_rejected(self):
        with pytest.raises(ClusterError):
            ClusterRuntime([JobSpec(job_id="a"), JobSpec(job_id="a")])

    def test_chaos_for_unknown_job_rejected(self):
        with pytest.raises(ClusterError):
            ClusterRuntime([JobSpec(job_id="a")],
                           chaos={"ghost": FaultPlan([])})

    def test_chaos_target_outside_job_membership_rejected(self):
        plan = FaultPlan([NodeCrash(at_s=1.0, node=5)])
        with pytest.raises(ClusterError):
            ClusterRuntime([JobSpec(job_id="a", num_nodes=2)],
                           chaos={"a": plan})

    def test_empty_schedule_rejected(self):
        with pytest.raises(ClusterError):
            ClusterRuntime([])

    def test_overlapping_nic_windows_on_one_node_rejected(self):
        # The flap's restore would put node 0's NIC back at base
        # capacity at 0.05 s, cutting the degradation (to 10.02 s) short.
        plan = FaultPlan([
            LinkFlap(at_s=0.0, node=0, down_s=0.05),
            BandwidthDegradation(at_s=0.02, node=0, fraction=0.5,
                                 duration_s=10.0)])
        with pytest.raises(ClusterError, match="overlaps"):
            ClusterRuntime([JobSpec(job_id="a", num_nodes=2)],
                           chaos={"a": plan})

    def test_straggler_holds_no_nic_window(self):
        # The cluster reads a straggler as a compute slowdown, so it may
        # overlap a NIC window on its node (the committed scenario does).
        plan = FaultPlan([
            Straggler(at_s=0.0, node=0, slowdown=2.0, duration_s=5.0),
            BandwidthDegradation(at_s=1.0, node=0, fraction=0.5,
                                 duration_s=1.0)])
        ClusterRuntime([JobSpec(job_id="a", num_nodes=2)],
                       chaos={"a": plan})


class TestLinkFlap:
    def test_flap_takes_the_nic_down_for_its_window(self):
        runtime = ClusterRuntime(
            [JobSpec(job_id="a", num_nodes=2, steps=4, num_streams=1,
                     compute_s=0.04, bytes_per_step=1e6)],
            config=small_config(),
            chaos={"a": FaultPlan([LinkFlap(at_s=0.05, node=1,
                                            down_s=0.1)])})
        clean = ClusterRuntime(
            [JobSpec(job_id="a", num_nodes=2, steps=4, num_streams=1,
                     compute_s=0.04, bytes_per_step=1e6)],
            config=small_config()).run()
        result = runtime.run()
        events = [(i.name, i.time, i.meta["kind"])
                  for i in result.obs.timeline.instants if i.cat == "fault"]
        assert events == [("fault.inject", 0.05, "link_flap"),
                          ("fault.restore", pytest.approx(0.15),
                           "link_flap")]
        # The step that straddles the window waits out the flap.
        assert max(result.jobs["a"]["step_times"]) > \
            max(clean.jobs["a"]["step_times"]) + 0.05
        fabric = runtime.fabric
        assert {link.capacity_bps for link in
                [*fabric.nic_out, *fabric.nic_in]} == {fabric.nic_bps}


def nic_trace(runtime):
    """Record every capacity the run sets: ``(time, link name, bps)``."""
    trace = []
    network = runtime.fabric.network
    set_capacity = network.set_link_capacity

    def record(link, capacity_bps):
        trace.append((runtime.sim.now, link.name, capacity_bps))
        set_capacity(link, capacity_bps)

    network.set_link_capacity = record
    return trace


def nic_level(runtime, trace, node, at_s):
    """Fabric node ``node``'s NIC pair, as a fraction of base, once
    everything due at ``at_s`` has run."""
    levels = {}
    for when, name, capacity in trace:
        if when <= at_s:
            levels[name] = capacity
    base = runtime.fabric.nic_bps
    out, into = (levels.get(f"node{node}.nic.{end}", base) / base
                 for end in ("out", "in"))
    assert out == into
    return out


class TestNicWindows:
    """The cluster drives the shared window record (`NicWindows`)."""

    @pytest.mark.parametrize("first, second, level", [
        (LinkFlap(at_s=1.0, node=0, down_s=1.0),
         LinkFlap(at_s=2.0, node=0, down_s=1.0), DEAD_NIC_FRACTION),
        (BandwidthDegradation(at_s=1.0, node=0, fraction=0.5,
                              duration_s=1.0),
         BandwidthDegradation(at_s=2.0, node=0, fraction=0.25,
                              duration_s=1.0), 0.25),
    ], ids=["flaps", "degradations"])
    def test_back_to_back_windows_on_one_node(self, first, second, level):
        # The second window's timeout is the older one, so it opens at
        # t = 2 before the first one closes; that close must not end it.
        runtime = ClusterRuntime(
            [JobSpec(job_id="a", num_nodes=2, steps=400)],
            config=small_config(max_preemptions=0),
            chaos={"a": FaultPlan([first, second])})
        trace = nic_trace(runtime)
        result = runtime.run()
        assert result.jobs["a"]["transitions"] == []
        for at_s in (2.0, 2.5, 2.999):
            assert nic_level(runtime, trace, 0, at_s) == level
        assert nic_level(runtime, trace, 0, 3.0) == 1.0
        assert trace[-1] == (3.0, "node0.nic.in", runtime.fabric.nic_bps)

    def test_window_started_before_admission_closes_at_its_end(self):
        # Chaos is armed at first admission (t = 0.5); the window keeps
        # its place in time rather than running 1 s from admission.
        runtime = ClusterRuntime(
            [JobSpec(job_id="a", num_nodes=2, steps=40, arrival_s=0.5)],
            config=small_config(),
            chaos={"a": FaultPlan([BandwidthDegradation(
                at_s=0.0, node=0, fraction=0.5, duration_s=1.0)])})
        trace = nic_trace(runtime)
        runtime.run()
        assert nic_level(runtime, trace, 0, 0.5) == 0.5
        assert nic_level(runtime, trace, 0, 0.999) == 0.5
        assert nic_level(runtime, trace, 0, 1.0) == 1.0
        assert nic_level(runtime, trace, 0, 1.25) == 1.0

    def test_window_over_before_admission_never_opens(self):
        runtime = ClusterRuntime(
            [JobSpec(job_id="a", num_nodes=2, steps=4, arrival_s=0.5)],
            config=small_config(),
            chaos={"a": FaultPlan([LinkFlap(at_s=0.0, node=0,
                                            down_s=0.5)])})
        trace = nic_trace(runtime)
        runtime.run()
        assert trace == []

    def test_windows_follow_the_tenant_across_preemption(self):
        # The committed scenario preempts jobA at t = 3.17, inside its
        # [2, 6) degradation of local node 0; a second window on local
        # node 1 opens at t = 3.5, while jobA waits to be readmitted.
        scenario = three_job_scenario(chaos=True)
        plan = FaultPlan([*scenario.chaos["jobA"], BandwidthDegradation(
            at_s=3.5, node=1, fraction=0.5, duration_s=2.0)])
        runtime = ClusterRuntime(scenario.specs, chaos={"jobA": plan})
        trace = nic_trace(runtime)
        result = runtime.run()
        preempt, resume = result.jobs["jobA"]["transitions"]
        assert (preempt["kind"], resume["kind"]) == ("preempt", "resume")
        vacated = dict(next(f.evidence for f in result.findings
                            if f.kind == "preempt"))["nodes"]
        placed = dict(next(f.evidence for f in result.findings
                           if f.kind == "resume"))["nodes"]
        assert preempt["at_s"] < 3.5 < resume["at_s"] < 5.5
        # Before: local node 0 degraded.  During the requeue: every
        # node jobA vacated is healthy, the new window included.
        assert nic_level(runtime, trace, vacated[0], 3.0) == 0.3
        for at_s in (preempt["at_s"], 3.5, resume["at_s"] - 1e-9):
            for node in vacated:
                assert nic_level(runtime, trace, node, at_s) == 1.0
        # After readmission: what is left of both windows, until each
        # one's end_s.
        for at_s in (resume["at_s"], 5.499):
            assert nic_level(runtime, trace, placed[0], at_s) == 0.3
            assert nic_level(runtime, trace, placed[1], at_s) == 0.5
        assert nic_level(runtime, trace, placed[1], 5.5) == 1.0
        assert nic_level(runtime, trace, placed[0], 5.999) == 0.3
        assert nic_level(runtime, trace, placed[0], 6.0) == 1.0

    def test_completion_lifts_open_windows(self):
        # The tenant finishes inside its window; the node it leaves is
        # healthy for whoever lands there next.
        runtime = ClusterRuntime(
            [JobSpec(job_id="a", num_nodes=2, steps=2, compute_s=0.01,
                     bytes_per_step=1e6)],
            config=small_config(),
            chaos={"a": FaultPlan([BandwidthDegradation(
                at_s=0.0, node=1, fraction=0.5, duration_s=30.0)])})
        trace = nic_trace(runtime)
        runtime.run()
        done = trace[-1][0]
        assert done < 1.0
        assert nic_level(runtime, trace, 1, done) == 1.0


class TestWarmStart:
    def test_second_run_warm_starts_from_settings_cache(self):
        cache = SettingsCache()
        spec = dict(num_nodes=2, steps=2, compute_s=0.01,
                    bytes_per_step=1e6, num_streams=8)
        first = ClusterRuntime([JobSpec(job_id="pioneer", **spec)],
                               config=small_config(),
                               settings_cache=cache)
        first.run()
        second = ClusterRuntime([JobSpec(job_id="follower", **spec)],
                                config=small_config(),
                                settings_cache=cache)
        result = second.run()
        assert result.jobs["follower"]["warm_start"] == "pioneer"
        assert result.jobs["follower"]["streams"] == 8

    def test_cold_start_leaves_warm_start_unset(self):
        result = three_job_scenario(chaos=False).run()
        assert result.jobs["jobB"]["warm_start"] is None

    def test_each_model_is_built_once_per_run(self, monkeypatch):
        # Warm start and store share one fingerprint per distinct model:
        # resnet50 (jobs A and C) and vgg16 (job B).
        built = []

        def counting_get_model(name):
            built.append(name)
            return get_model(name)

        monkeypatch.setattr(runtime_module, "get_model", counting_get_model)
        result = three_job_scenario(chaos=True).run()
        assert sorted(built) == ["resnet50", "vgg16"]
        assert result.cluster_digest == GOLDEN_CLUSTER["cluster_digest"]
