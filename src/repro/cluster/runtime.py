"""The multi-tenant cluster runtime: N jobs, one fabric, hard isolation.

Ties the package together: jobs arrive over simulated time, the
:class:`~repro.cluster.scheduler.PlacementScheduler` admits or queues
them, admitted jobs step (compute + ring all-reduce on the shared
fabric, every flow job-tagged), and an overload controller watches each
tenant's SLO sentinel (:func:`repro.obs.slo.job_slos`).  Sustained
breach walks the graceful-degradation ladder::

    stage 1   shrink the job's stream count (auto-tuner over a
              restricted search space, warm-started like paper §VI)
    stage 2   halve the job's per-stream rate caps
    stage 3   preempt at the current step boundary and requeue
              (recorded as ``preempt``/``resume`` epoch transitions)

Isolation contract: a job's numeric convergence digest is a pure
function of its ``(seed, steps, world size)`` — chaos injected into a
neighbor shifts its *timing*, never its *arithmetic* — and the whole
run is replay-deterministic under :attr:`ClusterResult.cluster_digest`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing as t

from repro.autotune.grid import GridSearch
from repro.autotune.space import ParameterPoint, SearchSpace
from repro.autotune.tuner import AutoTuner
from repro.autotune.cache import SettingsCache
from repro.autotune.graph_distance import ModelFingerprint, TopologyRecord
from repro.cluster.fabric import SharedFabric
from repro.cluster.jobs import JobSpec, JobState, NumericTrainer
from repro.cluster.scheduler import PlacementScheduler, backoff_delay_s
from repro.collectives.cost_model import CostParams, ring_allreduce_time_s
from repro.core.elastic import EpochTransition
from repro.errors import AdmissionRejected, ClusterError, \
    FaultInjectionError, require_count, require_real
from repro.models.zoo import get_model
from repro.obs import Observability
from repro.obs.detectors import Severity
from repro.obs.diagnosis import Finding, _finding_sort_key, findings_digest
from repro.obs.slo import evaluate_slos, job_slos
from repro.sim.faults import (
    BandwidthDegradation,
    FaultPlan,
    NicWindows,
    NodeCrash,
    Straggler,
    WindowFault,
    check_windows,
)
from repro.sim.kernel import Simulator

#: Candidate stream counts the degradation tuner may shrink into.
SHRINK_STREAMS = (1, 2, 4, 8, 12, 16, 20, 24)
#: Per-stream setup/bookkeeping cost the shrink tuner adds to the
#: closed-form ring (what makes fewer streams win once the fair share,
#: not the stream count, is the bandwidth bottleneck).
STREAM_OVERHEAD_S = 2e-4


@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """Fabric shape + controller policy for one cluster run."""

    num_nodes: int = 6
    nic_bps: float = 10e9
    core_oversubscription: float = 1.5
    stream_cap_fraction: float = 0.25
    #: Queueing deadline before a typed :class:`AdmissionRejected`.
    admission_deadline_s: float = 20.0
    #: SLO slack: a tenant absorbs this much contention before the
    #: degradation ladder engages.
    slo_slack: float = 1.6
    #: Step-time window the sentinel averages over.
    slo_window: int = 2
    #: Consecutive breached evaluations before the next ladder stage.
    breach_patience: int = 2
    #: Simulated cost of one crash-restart (checkpoint reload etc.).
    restart_overhead_s: float = 1.0
    #: Delay before a preempted job re-enters the admission queue.
    preempt_requeue_s: float = 1.0
    #: Preemptions allowed per job before it just stays degraded.
    max_preemptions: int = 1
    #: Settings-cache similarity ceiling for warm starts.
    warm_start_max_distance: float = 8.0

    def __post_init__(self) -> None:
        # A shared fabric needs two nodes and ``job_slos`` a slack
        # above 1.
        require_count("num_nodes", self.num_nodes, 2, ClusterError)
        for name in ("slo_window", "breach_patience"):
            require_count(name, getattr(self, name), 1, ClusterError)
        require_count("max_preemptions", self.max_preemptions, 0, ClusterError)
        for name in ("nic_bps", "admission_deadline_s"):
            require_real(name, getattr(self, name), ClusterError,
                         positive=True)
        for name in ("restart_overhead_s", "preempt_requeue_s",
                     "warm_start_max_distance"):
            require_real(name, getattr(self, name), ClusterError)
        if require_real("core_oversubscription", self.core_oversubscription,
                        ClusterError) < 1:
            raise ClusterError("core_oversubscription must be >= 1")
        if require_real("stream_cap_fraction", self.stream_cap_fraction,
                        ClusterError, positive=True) > 1:
            raise ClusterError(f"stream_cap_fraction must be <= 1, got "
                               f"{self.stream_cap_fraction!r}")
        if require_real("slo_slack", self.slo_slack, ClusterError) <= 1:
            raise ClusterError(
                f"slo_slack must be > 1, got {self.slo_slack!r}")


@dataclasses.dataclass(frozen=True)
class ClusterResult:
    """Everything one cluster run produced, digestable."""

    jobs: dict[str, dict[str, object]]
    findings: tuple[Finding, ...]
    obs: Observability

    @property
    def findings_digest(self) -> str:
        return findings_digest(self.findings)

    @property
    def cluster_digest(self) -> str:
        """blake2b over every job's outcome + every finding.

        Pure function of the run's event sequence: two replays of the
        same schedule produce the same hex digest bit for bit.
        """
        payload = json.dumps(
            {"jobs": self.jobs,
             "findings": [f.record() for f in self.findings]},
            sort_keys=True)
        return hashlib.blake2b(payload.encode(),
                               digest_size=16).hexdigest()

    def job_digest(self, job_id: str) -> str | None:
        """One tenant's numeric convergence digest."""
        if job_id not in self.jobs:
            raise ClusterError(f"unknown job {job_id!r}")
        return t.cast("str | None", self.jobs[job_id]["numeric_digest"])

    def to_json(self) -> str:
        return json.dumps(
            {"jobs": self.jobs,
             "findings": [f.record() for f in self.findings],
             "findings_digest": self.findings_digest,
             "cluster_digest": self.cluster_digest},
            sort_keys=True, indent=2) + "\n"


class ClusterRuntime:
    """Drives one shared-fabric schedule of N jobs to completion."""

    def __init__(self, specs: t.Sequence[JobSpec],
                 config: ClusterConfig | None = None,
                 chaos: t.Mapping[str, FaultPlan] | None = None,
                 settings_cache: SettingsCache | None = None,
                 obs: Observability | None = None) -> None:
        self.config = config or ClusterConfig()
        if not specs:
            raise ClusterError("a cluster run needs at least one job")
        ids = [spec.job_id for spec in specs]
        if len(set(ids)) != len(ids):
            raise ClusterError(f"duplicate job ids in {ids}")
        self.specs = list(specs)
        self.chaos = dict(chaos or {})
        for job_id, plan in self.chaos.items():
            if job_id not in ids:
                raise ClusterError(
                    f"chaos plan targets unknown job {job_id!r}")
            spec = next(s for s in self.specs if s.job_id == job_id)
            for fault in plan.faults:
                if not 0 <= fault.node < spec.num_nodes:
                    raise ClusterError(
                        f"chaos for job {job_id!r} targets local node "
                        f"{fault.node}, outside its {spec.num_nodes} "
                        f"node(s)")
            # Stragglers slow compute here, so they hold no NIC window.
            try:
                check_windows(f for f in plan if not isinstance(f, Straggler))
            except FaultInjectionError as exc:
                raise ClusterError(f"chaos for job {job_id!r}: {exc}") from exc
        self.obs = obs if obs is not None else Observability(enabled=True)
        if self.obs.diag is None:
            self.obs.attach_detectors()
        self.sim = Simulator()
        self.fabric = SharedFabric(
            self.sim, self.config.num_nodes, self.config.nic_bps,
            self.config.core_oversubscription,
            self.config.stream_cap_fraction, obs=self.obs)
        self.scheduler = PlacementScheduler(self.fabric)
        self.cache = settings_cache if settings_cache is not None \
            else SettingsCache()
        # Settings-cache keys, built once per run: a model's fingerprint
        # per distinct model, a sub-fabric topology per job.
        self._fingerprints = {
            name: ModelFingerprint.of(get_model(name))
            for name in dict.fromkeys(spec.model for spec in self.specs)}
        self._topologies = {spec.job_id: self._job_topology(spec)
                            for spec in self.specs}
        # Each job's SLO anchor: its uncontended step time.
        self._baselines = {
            spec.job_id: self._ring_step_s(spec, spec.num_streams, 1.0,
                                           self.fabric.core_bps)
            for spec in self.specs}
        self.states: dict[str, JobState] = {}
        self.findings: list[Finding] = []
        for spec in self.specs:
            self.fabric.network.job_priorities[spec.job_id] = spec.priority
        self._m_steps = self.obs.registry.counter(
            "cluster_job_steps_total", "Completed steps per tenant")
        self._m_step_s = self.obs.registry.histogram(
            "cluster_job_step_seconds", "Per-tenant step durations",
            buckets=(0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0))
        self._m_streams = self.obs.registry.gauge(
            "cluster_job_streams", "Live stream count per tenant")
        self._m_admission = self.obs.registry.counter(
            "cluster_admission_attempts_total",
            "Admission attempts per tenant")
        self._m_degradations = self.obs.registry.counter(
            "cluster_degradations_total",
            "Degradation-ladder activations per tenant and stage")

    # -- the run -------------------------------------------------------------

    def run(self) -> ClusterResult:
        processes = [
            self.sim.spawn(self._job_process(spec),
                           name=f"job:{spec.job_id}")
            for spec in self.specs]
        self.sim.run(self.sim.all_of(processes))
        # Drain chaos restore windows etc. so link state settles.
        self.sim.run()
        self._interference_findings()
        self.findings.sort(key=_finding_sort_key)
        return ClusterResult(
            jobs={job_id: state.record()
                  for job_id, state in sorted(self.states.items())},
            findings=tuple(self.findings),
            obs=self.obs)

    # -- per-job process -----------------------------------------------------

    def _job_process(self, spec: JobSpec) -> t.Generator:
        state = JobState(spec=spec, streams=spec.num_streams,
                         trainer=NumericTrainer(spec))
        self.states[spec.job_id] = state
        yield self.sim.timeout(spec.arrival_s)
        try:
            yield from self._admit(state,
                                   deadline_s=self.config.admission_deadline_s)
        except AdmissionRejected as exc:
            state.status = "rejected"
            state.rejection = str(exc)
            self._finding(Severity.ERROR, "admission-rejected",
                          spec.job_id, str(exc))
            return
        crashes, stragglers, windows = self._arm_chaos(state)
        self._warm_start(state)
        breach_streak = 0
        preemptions = 0
        while state.steps_done < spec.steps:
            step = state.steps_done
            step_start = self.sim.now
            # -- chaos at the step boundary: crashes pay their restart.
            while crashes and crashes[0].at_s <= self.sim.now:
                fault = crashes.pop(0)
                self.obs.timeline.instant(
                    "fault.inject", "fault", state.nodes[fault.node],
                    self.sim.now, job=spec.job_id, kind="crash")
                yield self.sim.timeout(self.config.restart_overhead_s)
                self.obs.timeline.instant(
                    "fault.restore", "fault", state.nodes[fault.node],
                    self.sim.now, job=spec.job_id, kind="crash")
                self._finding(
                    Severity.WARN, "job-crash", spec.job_id,
                    f"rank on node {fault.node} crashed; restarted in "
                    f"{self.config.restart_overhead_s:g}s",
                    evidence=(("local_node", fault.node),
                              ("restart_s",
                               self.config.restart_overhead_s)))
            compute_s = spec.compute_s * math.prod(
                f.slowdown for f in stragglers
                if f.at_s <= self.sim.now < f.end_s)
            compute_start = self.sim.now
            yield self.sim.timeout(compute_s)
            self.obs.timeline.span(
                "job-compute", "cluster", state.nodes[0], compute_start,
                self.sim.now, job=spec.job_id, step=step, phase="compute")
            comm_start = self.sim.now
            yield self.fabric.allreduce(
                spec.job_id, state.nodes, spec.bytes_per_step,
                state.streams, state.cap_scale,
                label=f"ring/step{step}")
            self.obs.timeline.span(
                "job-allreduce", "cluster", state.nodes[0], comm_start,
                self.sim.now, job=spec.job_id, step=step, phase="comm")
            step_time = self.sim.now - step_start
            state.step_times.append(step_time)
            state.steps_done += 1
            state.trainer.advance()
            self._m_steps.inc(job=spec.job_id)
            self._m_step_s.observe(step_time, job=spec.job_id)
            # -- SLO sentinel + degradation ladder.
            if self._slo_breached(state):
                breach_streak += 1
            else:
                breach_streak = 0
            if breach_streak >= self.config.breach_patience \
                    and state.steps_done < spec.steps:
                breach_streak = 0
                if state.ladder_stage == 0:
                    self._shrink_streams(state)
                elif state.ladder_stage == 1:
                    self._throttle_caps(state)
                elif preemptions < self.config.max_preemptions:
                    preemptions += 1
                    yield from self._preempt_and_requeue(state, windows)
        windows.end_all()
        self.scheduler.release(spec.job_id)
        state.status = "completed"
        state.nodes = ()
        self._store_settings(state)

    # -- admission -----------------------------------------------------------

    def _admit(self, state: JobState, deadline_s: float,
               resuming: bool = False) -> t.Generator:
        """Admission loop with capped backoff; raises on deadline."""
        spec = state.spec
        queued_at = self.sim.now
        attempt = 0
        while True:
            placement, reason = self.scheduler.try_admit(
                spec, state.streams)
            state.admission_attempts += 1
            self._m_admission.inc(job=spec.job_id)
            if placement is not None:
                state.nodes = placement.nodes
                state.status = "degraded" if state.ladder_stage else \
                    "running"
                if state.admitted_at_s is None:
                    state.admitted_at_s = self.sim.now
                self._m_streams.set(state.streams, job=spec.job_id)
                self.obs.timeline.instant(
                    "cluster.admit", "cluster", placement.nodes[0],
                    self.sim.now, job=spec.job_id,
                    nodes=list(placement.nodes), resuming=resuming)
                return
            delay = backoff_delay_s(attempt)
            if not resuming and \
                    self.sim.now + delay > queued_at + deadline_s:
                raise AdmissionRejected(
                    spec.job_id, deadline_s, reason, attempt + 1)
            attempt += 1
            yield self.sim.timeout(delay)

    def _warm_start(self, state: JobState) -> None:
        """Seed stream count from the most similar remembered tenant."""
        found = self.cache.lookup(
            self._fingerprints[state.spec.model],
            self._topologies[state.spec.job_id],
            max_distance=self.config.warm_start_max_distance)
        if found is None:
            return
        entry, _distance = found
        state.warm_start = entry.label
        state.streams = max(1, min(entry.best_point.num_streams,
                                   state.spec.num_streams))
        self._m_streams.set(state.streams, job=state.spec.job_id)

    def _store_settings(self, state: JobState) -> None:
        if not state.step_times:
            return
        mean_step = sum(state.step_times) / len(state.step_times)
        self.cache.store(
            label=state.spec.job_id,
            model=self._fingerprints[state.spec.model],
            topology=self._topologies[state.spec.job_id],
            best_point=ParameterPoint(
                num_streams=state.streams, granularity_bytes=4_000_000,
                algorithm="ring"),
            best_cost_s=mean_step)

    def _job_topology(self, spec: JobSpec) -> TopologyRecord:
        """Similarity key for the settings cache: the job's sub-fabric."""
        nodes = range(spec.num_nodes)
        return TopologyRecord(
            nodes=tuple((node, {"gpus": 1, "gpu": "V100"})
                        for node in nodes),
            edges=tuple((a, b, {"bandwidth": self.config.nic_bps})
                        for a in nodes for b in nodes[a + 1:]))

    # -- SLO sentinel + ladder ----------------------------------------------

    def _ring_step_s(self, spec: JobSpec, streams: int, cap_scale: float,
                     core_bps: float) -> float:
        """Compute plus the closed-form ring over the job's nodes, one GPU
        each: ``streams`` streams per hop at ``cap_scale`` times the cap,
        a ``core_bps`` share of the spine, and no latency (the fabric's
        links have none)."""
        m = spec.num_nodes
        params = CostParams(
            world_size=m, num_nodes=m,
            nic_stream_bps=self.fabric.stream_cap_bps * cap_scale,
            nic_total_bps=self.fabric.nic_bps,
            # One GPU per node: the ring never crosses NVLink.
            nvlink_bps=self.fabric.nic_bps,
            inter_alpha_s=0.0, intra_alpha_s=0.0, inter_latency_s=0.0,
            core_bps=core_bps)
        return spec.compute_s + ring_allreduce_time_s(
            spec.bytes_per_step, params, streams)

    def _slo_breached(self, state: JobState) -> bool:
        window = self.config.slo_window
        if len(state.step_times) < window:
            return False
        spec = state.spec
        observed = sum(state.step_times[-window:]) / window
        slos = job_slos(spec.job_id, self._baselines[spec.job_id],
                        slack_ratio=self.config.slo_slack)
        results = evaluate_slos(
            slos, {f"job:{spec.job_id}:step_time_s": observed})
        breached = [r for r in results if r.breached]
        if breached:
            self._finding(
                Severity.WARN, "job-slo-breach", spec.job_id,
                f"windowed step time {observed:.6g}s exceeds "
                f"{breached[0].limit:.6g}s",
                evidence=(("observed_s", observed),
                          ("limit_s", breached[0].limit),
                          ("window", window)))
        return bool(breached)

    def _shrink_streams(self, state: JobState) -> None:
        """Ladder stage 1: tuner-driven stream shrink."""
        spec = state.spec
        candidates = [s for s in SHRINK_STREAMS if s < state.streams] \
            or [1]
        space = SearchSpace(streams=candidates, granularities_mb=(4,),
                            algorithms=("ring",))
        tuner = AutoTuner(space, techniques=[GridSearch(space)],
                          budget=len(space), seed=spec.seed,
                          obs=self.obs)
        fair_core = self._fair_core_share_bps(spec)

        def evaluate(point: ParameterPoint) -> float:
            return self._ring_step_s(spec, point.num_streams,
                                     state.cap_scale, fair_core) \
                + point.num_streams * STREAM_OVERHEAD_S

        best = tuner.tune(evaluate).best_point
        previous = state.streams
        state.streams = best.num_streams
        state.ladder_stage = 1
        state.status = "degraded"
        self.scheduler.shrink_reservation(spec.job_id, state.streams,
                                          spec)
        self._m_streams.set(state.streams, job=spec.job_id)
        self._m_degradations.inc(job=spec.job_id, stage="streams")
        self._finding(
            Severity.WARN, "degrade-streams", spec.job_id,
            f"sustained SLO breach: stream count {previous} -> "
            f"{state.streams} (tuner-selected)",
            evidence=(("streams_before", previous),
                      ("streams_after", state.streams)))

    def _throttle_caps(self, state: JobState) -> None:
        """Ladder stage 2: halve the job's per-stream rate caps."""
        state.cap_scale *= 0.5
        state.ladder_stage = 2
        state.status = "degraded"
        self._m_degradations.inc(job=state.spec.job_id, stage="caps")
        self._finding(
            Severity.WARN, "degrade-caps", state.spec.job_id,
            f"sustained SLO breach persists: per-stream caps scaled "
            f"to {state.cap_scale:g}x",
            evidence=(("cap_scale", state.cap_scale),))

    def _preempt_and_requeue(self, state: JobState,
                             windows: NicWindows) -> t.Generator:
        """Ladder stage 3: quiescent-boundary preemption + readmission;
        the tenant's open NIC windows move with it."""
        spec = state.spec
        state.ladder_stage = 3
        departed = state.nodes
        state.transitions.append(EpochTransition(
            epoch=len(state.transitions) + 1, at_s=self.sim.now,
            kind="preempt", departed=departed, joined=(),
            world_before=spec.num_nodes, world_after=spec.num_nodes,
            live_continuation=True, broadcast_identical=None,
            resumed_iteration=state.steps_done, lr_scale=1.0,
            reconfigure_time_s=self.config.preempt_requeue_s))
        windows.lift_all()
        self.scheduler.release(spec.job_id)
        state.nodes = ()
        state.status = "preempted"
        self._m_degradations.inc(job=spec.job_id, stage="preempt")
        self.obs.timeline.instant(
            "cluster.preempt", "cluster", departed[0], self.sim.now,
            job=spec.job_id, step=state.steps_done)
        self._finding(
            Severity.ERROR, "preempt", spec.job_id,
            f"degradation exhausted at step {state.steps_done}: "
            f"preempted at the step boundary and requeued",
            evidence=(("step", state.steps_done),
                      ("nodes", list(departed))))
        yield self.sim.timeout(self.config.preempt_requeue_s)
        yield from self._admit(state, deadline_s=float("inf"),
                               resuming=True)
        windows.hold_all()
        state.transitions.append(EpochTransition(
            epoch=len(state.transitions) + 1, at_s=self.sim.now,
            kind="resume", departed=(), joined=state.nodes,
            world_before=spec.num_nodes, world_after=spec.num_nodes,
            live_continuation=True, broadcast_identical=None,
            resumed_iteration=state.steps_done, lr_scale=1.0,
            reconfigure_time_s=0.0))
        self._finding(
            Severity.INFO, "resume", spec.job_id,
            f"readmitted on nodes {list(state.nodes)} at "
            f"t={self.sim.now:.6g}s",
            evidence=(("nodes", list(state.nodes)),))

    def _fair_core_share_bps(self, spec: JobSpec) -> float:
        """The spine bandwidth this job's priority entitles it to now."""
        active = [s for s in self.specs
                  if self.states.get(s.job_id) is not None
                  and self.states[s.job_id].nodes]
        total_priority = sum(s.priority for s in active) or spec.priority
        return self.fabric.core_bps * spec.priority / total_priority

    # -- chaos ---------------------------------------------------------------

    def _arm_chaos(self, state: JobState) -> tuple[
            list[NodeCrash], list[Straggler], NicWindows]:
        """Read the tenant's plan once, at its first admission.

        Returns its crashes, which restart at step boundaries, its
        stragglers, which stretch compute while open, and its NIC
        windows, keyed by local node id and held on the fabric nodes
        the tenant sits on (on none while it is not placed).
        """
        job = state.spec.job_id

        def hold(fault: WindowFault) -> int | None:
            if not state.nodes:
                return None
            node = state.nodes[fault.node]
            self.fabric.scale_node_nic(node, fault.nic_factor)
            self.obs.timeline.instant("fault.inject", "fault", node,
                                      self.sim.now, job=job, kind=fault.event)
            return node

        def lift(fault: WindowFault, node: int) -> None:
            self.fabric.restore_node_nic(node)
            self.obs.timeline.instant("fault.restore", "fault", node,
                                      self.sim.now, job=job, kind=fault.event)

        crashes: list[NodeCrash] = []
        stragglers: list[Straggler] = []
        windows = NicWindows(self.sim, hold, lift)
        for fault in self.chaos.get(job, ()):
            if isinstance(fault, NodeCrash):
                crashes.append(fault)
            elif isinstance(fault, Straggler):
                stragglers.append(fault)
            elif isinstance(fault, WindowFault):
                windows.arm(fault, name=f"chaos:{fault.event}:{job}"
                                        f"@{fault.node}")
        return crashes, stragglers, windows

    # -- findings ------------------------------------------------------------

    def _finding(self, severity: Severity, kind: str, job_id: str,
                 message: str,
                 evidence: tuple[tuple[str, object], ...] = ()) -> None:
        self.findings.append(Finding(
            severity=severity, component="cluster", kind=kind,
            subject=f"job {job_id}", message=message,
            time_s=self.sim.now,
            evidence=evidence + (("job", job_id),)))

    def _interference_findings(self) -> None:
        """Cross-job interference: victims vs their spine entitlement."""
        suite = self.obs.diag
        if suite is None:
            return
        core_bytes: dict[str, float] = {}
        for (link, job, _algo), nbytes in suite.job_link_bytes().items():
            if link == self.fabric.core.name:
                core_bytes[job] = core_bytes.get(job, 0.0) + nbytes
        total = sum(core_bytes.values())
        if total <= 0:
            return
        victims = {state.spec.job_id for state in self.states.values()
                   if state.ladder_stage > 0}
        for job_id in sorted(victims):
            others = sorted(job for job in core_bytes if job != job_id)
            if not others:
                continue
            share = core_bytes.get(job_id, 0.0) / total
            self._finding(
                Severity.WARN, "interference", job_id,
                f"degraded while sharing the spine with "
                f"{', '.join(others)} (carried {share:.1%} of core "
                f"bytes)",
                evidence=(("core_share", share),
                          ("neighbors", others)))


# -- canonical scenario -------------------------------------------------------


def three_job_scenario(chaos: bool = True,
                       config: ClusterConfig | None = None
                       ) -> ClusterRuntime:
    """The committed 3-job contention scenario (CI smoke + tests).

    Three tenants share a six-node fabric with a 1.5x-oversubscribed
    spine.  With ``chaos=True``, tenant A additionally suffers a crash,
    a long straggler window and a bandwidth degradation — enough
    sustained SLO breach to walk the full degradation ladder — while B
    and C must come through numerically untouched.
    """
    specs = [
        JobSpec(job_id="jobA", model="resnet50", num_nodes=2,
                priority=1.0, arrival_s=0.0, steps=16, num_streams=8,
                seed=0, compute_s=0.04, bytes_per_step=48e6),
        JobSpec(job_id="jobB", model="vgg16", num_nodes=2,
                priority=2.0, arrival_s=0.1, steps=10, num_streams=4,
                seed=1, compute_s=0.04, bytes_per_step=48e6),
        JobSpec(job_id="jobC", model="resnet50", num_nodes=2,
                priority=1.0, arrival_s=0.2, steps=8, num_streams=2,
                seed=2, compute_s=0.05, bytes_per_step=32e6),
    ]
    plans = {}
    if chaos:
        plans["jobA"] = FaultPlan([
            Straggler(at_s=0.2, node=0, slowdown=6.0, duration_s=12.0),
            NodeCrash(at_s=1.0, node=1),
            BandwidthDegradation(at_s=2.0, node=0, fraction=0.3,
                                 duration_s=4.0),
        ])
    return ClusterRuntime(specs, config=config, chaos=plans)
