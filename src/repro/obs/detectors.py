"""Streaming anomaly detectors over the observability hooks.

The paper's evaluation is a catalogue of communication pathologies —
per-stream link-utilisation skew (Fig. 3), negotiation overhead at
scale, congested spines, tuner mis-convergence.  A
:class:`DetectorSuite` keeps O(1) aggregate state per rank / stream /
link and :meth:`DetectorSuite.finalize` folds it into a canonical tuple
of :class:`DetectorEvent`\\ s the diagnosis engine turns into findings.
The fluid network (link utilisation, flows, per-job bytes) and the
auto-tuner feed it live, as the run records that state nowhere else;
step windows, negotiation and stream spans are read from the timeline
(:meth:`DetectorSuite.replay_timeline`).

Determinism contract: the suite stores only sums and counts keyed by
stable identifiers and folds them in *sorted-key* order.
:func:`~repro.obs.diagnosis.diagnose` always finalizes a fresh suite
seeded from the registry (:meth:`DetectorSuite.publish` /
:meth:`DetectorSuite.seed_from_registry`) and fed the timeline; JSON
floats are lossless, so recorded artifacts diagnose bit-identically.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import typing as t

from repro.errors import ReproError

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.timeline import StepTimeline


class Severity(enum.IntEnum):
    """Ordered finding severity (numeric gaps leave room for levels)."""

    INFO = 10
    WARN = 20
    ERROR = 30
    CRITICAL = 40


def parse_severity(name: str) -> Severity:
    """Parse a severity by (case-insensitive) name."""
    try:
        return Severity[name.upper()]
    except KeyError:
        valid = ", ".join(s.name for s in Severity)
        raise ReproError(
            f"unknown severity {name!r} (valid: {valid})") from None


@dataclasses.dataclass(frozen=True)
class DetectorEvent:
    """One detector's verdict about one subject."""

    detector: str
    kind: str
    severity: Severity
    #: What the event is about: ``rank 2``, ``link core``, ``tuner``...
    subject: str
    time_s: float
    #: Observed value that tripped (or characterises) the detector.
    value: float
    #: The threshold it was compared against.
    threshold: float
    detail: str = ""


@dataclasses.dataclass(frozen=True)
class DetectorConfig:
    """Thresholds for every streaming detector.

    Defaults are deliberately conservative: a clean, balanced run of any
    committed scenario must produce *zero* events (the CI healthy gate
    enforces this), so each bound sits well outside the envelope healthy
    runs occupy and inside what the seeded fault scenarios produce.
    """

    #: A rank whose attributed compute exceeds the cohort median by this
    #: factor (plus the absolute margin) is a straggler.
    straggler_ratio: float = 1.25
    straggler_margin_s: float = 1e-3
    #: A stream carrying more than this share of its rank's total
    #: stream busy time (with >= 2 streams configured) is imbalance —
    #: the paper's Fig. 3 failure mode, one lane hauling everything.
    imbalance_share: float = 0.75
    imbalance_min_busy_s: float = 1e-3
    #: ...and only when the busiest stream was busy for at least this
    #: fraction of the run.  Serialized dispatch legitimately lands
    #: every unit on the lowest free stream id; that is only the
    #: paper's Fig. 3 pathology when communication dominates wall time.
    imbalance_busy_frac: float = 0.25
    #: Link utilisation at or above this fraction of capacity counts as
    #: saturated for the interval sampler.
    congestion_saturation: float = 0.9
    #: Fraction of observed (flow-active) time a link must spend
    #: saturated to be congestion-suspect...
    congestion_sustained: float = 0.5
    #: ...and the fraction of its bytes carried by flows that finished
    #: below their per-stream rate cap (i.e. actually throttled).  Both
    #: conditions must hold: a link running hot at full per-stream rate
    #: is healthy pipelining, not congestion.
    congestion_throttled_frac: float = 0.3
    #: Exposed negotiation above this fraction of total step time is a
    #: blowup (the paper hides negotiation behind backward compute).
    negotiate_frac: float = 0.35
    #: Tuner regression: recent mean trial cost must beat the
    #: SettingsCache warm-start cost within this relative margin.
    tuner_margin: float = 0.05
    #: Trailing trial window folded into the recent mean.
    tuner_window: int = 8
    #: Minimum recorded trials before the tuner rule may fire.
    tuner_min_trials: int = 3


#: Escalate WARN -> ERROR when the observed value reaches this multiple
#: of its threshold.
_ESCALATION_FACTOR = 2.0


def _severity_for(value: float, threshold: float) -> Severity:
    if threshold > 0 and value >= _ESCALATION_FACTOR * threshold:
        return Severity.ERROR
    return Severity.WARN


def _fmt(value: float) -> str:
    """Deterministic human-ish float formatting for detail strings."""
    return f"{value:.6g}"


class LinkUtilisationSampler:
    """Exact per-link utilisation integral from the fluid network.

    Between two ``_advance_progress`` calls the flow set *and* every
    flow's rate are constant, so sampling at each advance integrates
    utilisation exactly — no polling, no approximation.  State per link
    is three floats: flow-active observed seconds, saturated seconds
    (utilisation >= the saturation bound), and the utilisation-weighted
    second integral (for mean utilisation).
    """

    __slots__ = ("saturation", "links")

    def __init__(self, saturation: float = 0.9) -> None:
        self.saturation = saturation
        #: ``link name -> [observed_s, saturated_s, util_weighted_s]``.
        self.links: dict[str, list[float]] = {}

    def observe_interval(self, elapsed: float, flows: t.Iterable) -> None:
        """Credit one constant-rate interval of the fluid model.

        Bundled flow groups are unrolled member by member
        (:meth:`~repro.sim.network.Flow.member_link_sets`): each member's
        links are credited at the per-member rate, so the per-link
        integrals are identical whether or not the network bundled the
        fan-out.
        """
        if elapsed <= 0:
            return
        loads: dict[object, float] = {}
        for flow in flows:
            rate = flow.rate_bps
            if rate <= 0:
                continue
            for links in flow.member_link_sets():
                for link in links:
                    loads[link] = loads.get(link, 0.0) + rate
        for link, rate in loads.items():
            state = self.links.get(link.name)
            if state is None:
                state = [0.0, 0.0, 0.0]
                self.links[link.name] = state
            utilisation = min(1.0, rate / link.capacity_bps)
            state[0] += elapsed
            if utilisation >= self.saturation:
                state[1] += elapsed
            state[2] += elapsed * utilisation


class DetectorSuite:
    """All streaming detectors of one run, behind O(1)-state hooks.

    Hook methods are called from simulation hot paths and must stay
    cheap: a dict upsert of a few floats each.  All interpretation —
    cohort comparisons, ratios, thresholds — happens once, in
    :meth:`finalize`.
    """

    def __init__(self, config: DetectorConfig | None = None) -> None:
        self.config = config if config is not None else DetectorConfig()
        self.link_sampler = LinkUtilisationSampler(
            saturation=self.config.congestion_saturation)
        #: ``step -> {rank: (duration_s, end_s)}``.
        self._steps: dict[int, dict[int, tuple[float, float]]] = {}
        #: Raw (possibly overlapped) negotiation seconds per rank.
        self._negotiate: dict[int, float] = {}
        #: ``(rank, stream) -> [busy_s, bytes, units]``.
        self._streams: dict[tuple[int, int], list[float]] = {}
        #: ``link -> [bytes, throttled_bytes, flows, throttled_flows]``.
        self._link_flows: dict[str, list[float]] = {}
        #: ``(link, algorithm) -> bytes`` for per-algorithm attribution.
        self._link_algorithm_bytes: dict[tuple[str, str], float] = {}
        #: ``(link, job, label) -> bytes`` for per-tenant attribution on
        #: a shared fabric (populated only for job-tagged flows).
        self._link_job_bytes: dict[tuple[str, str, str], float] = {}
        self._tuner_warm_cost: float | None = None
        self._tuner_best_cost: float | None = None
        self._tuner_trials = 0
        self._tuner_recent: collections.deque[float] = collections.deque(
            maxlen=self.config.tuner_window)
        #: Latest simulated time any hook has seen (event timestamping).
        self._last_time = 0.0

    # -- hot-path hooks ------------------------------------------------------

    def observe_step(self, rank: int, step: int, duration_s: float,
                     end_s: float) -> None:
        self._steps.setdefault(step, {})[rank] = (duration_s, end_s)
        if end_s > self._last_time:
            self._last_time = end_s

    def observe_negotiation(self, rank: int, duration_s: float) -> None:
        self._negotiate[rank] = self._negotiate.get(rank, 0.0) + duration_s

    def observe_stream_span(self, rank: int, stream: int, busy_s: float,
                            nbytes: float) -> None:
        state = self._streams.get((rank, stream))
        if state is None:
            state = [0.0, 0.0, 0.0]
            self._streams[(rank, stream)] = state
        state[0] += busy_s
        state[1] += nbytes
        state[2] += 1.0

    def observe_flow(self, link_names: t.Sequence[str],
                     label: str | None, nbytes: float, duration_s: float,
                     throttled: bool, job: str | None = None) -> None:
        for name in link_names:
            state = self._link_flows.get(name)
            if state is None:
                state = [0.0, 0.0, 0.0, 0.0]
                self._link_flows[name] = state
            state[0] += nbytes
            state[2] += 1.0
            if throttled:
                state[1] += nbytes
                state[3] += 1.0
            key = (name, label if label is not None else "-")
            self._link_algorithm_bytes[key] = \
                self._link_algorithm_bytes.get(key, 0.0) + nbytes
            if job is not None:
                job_key = (name, job, label if label is not None else "-")
                self._link_job_bytes[job_key] = \
                    self._link_job_bytes.get(job_key, 0.0) + nbytes

    def observe_tuner_trial(self, index: int, name: str,
                            cost_s: float) -> None:
        if name == "cache" and self._tuner_warm_cost is None:
            self._tuner_warm_cost = cost_s
            return
        self._tuner_trials += 1
        self._tuner_recent.append(cost_s)
        if self._tuner_best_cost is None or cost_s < self._tuner_best_cost:
            self._tuner_best_cost = cost_s

    def job_link_bytes(self) -> dict[tuple[str, str, str], float]:
        """``(link, job, label) -> bytes`` for job-tagged flows.

        The cluster runtime's cross-job interference rule reads this to
        compare each tenant's achieved share of a shared link against
        its priority-weighted entitlement.
        """
        return dict(self._link_job_bytes)

    # -- registry round-trip -------------------------------------------------

    def publish(self, registry: "MetricsRegistry") -> None:
        """Persist the non-timeline detector state as ``diag_*`` gauges.

        Step windows, negotiation spans and stream spans replay exactly
        from the timeline (:meth:`replay_timeline`); link-utilisation
        integrals and tuner trials exist nowhere else, so they ride the
        registry.  Gauge ``set`` makes republishing idempotent.
        """
        observed = registry.gauge(
            "diag_link_observed_seconds",
            "Flow-active seconds per link (detector state)")
        saturated = registry.gauge(
            "diag_link_saturated_seconds",
            "Seconds per link at or above the saturation bound")
        weighted = registry.gauge(
            "diag_link_utilisation_weighted_seconds",
            "Integral of link utilisation over flow-active time")
        for name, (obs_s, sat_s, util_s) in self.link_sampler.links.items():
            observed.set(obs_s, link=name)
            saturated.set(sat_s, link=name)
            weighted.set(util_s, link=name)
        flow_bytes = registry.gauge(
            "diag_link_bytes", "Bytes across each traversed link")
        throttled_bytes = registry.gauge(
            "diag_link_throttled_bytes",
            "Bytes of flows that finished below their stream rate cap")
        flow_count = registry.gauge(
            "diag_link_flows", "Flows across each traversed link")
        throttled_count = registry.gauge(
            "diag_link_throttled_flows", "Throttled flows per link")
        for name, state in self._link_flows.items():
            flow_bytes.set(state[0], link=name)
            throttled_bytes.set(state[1], link=name)
            flow_count.set(state[2], link=name)
            throttled_count.set(state[3], link=name)
        algo_bytes = registry.gauge(
            "diag_link_algorithm_bytes",
            "Bytes per link per placing collective algorithm")
        for (name, algorithm), nbytes in self._link_algorithm_bytes.items():
            algo_bytes.set(nbytes, link=name, algorithm=algorithm)
        if self._link_job_bytes:
            job_bytes = registry.gauge(
                "diag_link_job_bytes",
                "Bytes per link per owning job (shared-fabric tenancy)")
            for (name, job, label), nbytes in self._link_job_bytes.items():
                job_bytes.set(nbytes, link=name, job=job, algorithm=label)
        if self._tuner_warm_cost is not None:
            registry.gauge(
                "diag_tuner_warm_cost_seconds",
                "SettingsCache warm-start trial cost").set(
                    self._tuner_warm_cost)
        if self._tuner_best_cost is not None:
            registry.gauge(
                "diag_tuner_best_cost_seconds",
                "Best non-warm-start trial cost").set(self._tuner_best_cost)
        registry.gauge(
            "diag_tuner_trials",
            "Non-warm-start tuner trials recorded").set(
                float(self._tuner_trials))
        trial_cost = registry.gauge(
            "diag_tuner_trial_cost_seconds",
            "Trailing tuner trial costs (slot = window position)")
        for slot, cost in enumerate(self._tuner_recent):
            trial_cost.set(cost, slot=slot)

    def seed_from_registry(self, registry: "MetricsRegistry") -> None:
        """Inverse of :meth:`publish`: rebuild state from ``diag_*`` gauges."""

        def gauge_samples(name: str) -> t.Iterator[tuple[dict, float]]:
            metric = registry.get(name)
            if metric is None:
                return
            yield from metric.labelled()

        for labels, value in gauge_samples("diag_link_observed_seconds"):
            self.link_sampler.links.setdefault(
                labels["link"], [0.0, 0.0, 0.0])[0] = value
        for labels, value in gauge_samples("diag_link_saturated_seconds"):
            self.link_sampler.links.setdefault(
                labels["link"], [0.0, 0.0, 0.0])[1] = value
        for labels, value in gauge_samples(
                "diag_link_utilisation_weighted_seconds"):
            self.link_sampler.links.setdefault(
                labels["link"], [0.0, 0.0, 0.0])[2] = value
        field_by_name = {"diag_link_bytes": 0, "diag_link_throttled_bytes": 1,
                         "diag_link_flows": 2, "diag_link_throttled_flows": 3}
        for name, field in field_by_name.items():
            for labels, value in gauge_samples(name):
                self._link_flows.setdefault(
                    labels["link"], [0.0, 0.0, 0.0, 0.0])[field] = value
        for labels, value in gauge_samples("diag_link_algorithm_bytes"):
            self._link_algorithm_bytes[
                (labels["link"], labels["algorithm"])] = value
        for labels, value in gauge_samples("diag_link_job_bytes"):
            self._link_job_bytes[
                (labels["link"], labels["job"], labels["algorithm"])] = value
        for _labels, value in gauge_samples("diag_tuner_warm_cost_seconds"):
            self._tuner_warm_cost = value
        for _labels, value in gauge_samples("diag_tuner_best_cost_seconds"):
            self._tuner_best_cost = value
        for _labels, value in gauge_samples("diag_tuner_trials"):
            self._tuner_trials = int(value)
        recent = sorted(
            (int(labels["slot"]), value) for labels, value
            in gauge_samples("diag_tuner_trial_cost_seconds"))
        for _slot, cost in recent:
            self._tuner_recent.append(cost)

    def replay_timeline(self, timeline: "StepTimeline") -> None:
        """Feed a recorded timeline through the step/sync/stream hooks.

        This is the only source of step, negotiation and stream state:
        every completed step window, every worker-side ``negotiate``
        span and every stream-bound ``network`` span, in recording
        order.  Link and tuner state comes from the registry instead,
        via :meth:`seed_from_registry`.
        """
        from repro.obs.timeline import NETWORK_RANK

        for rank, step, start, end in timeline.steps():
            self.observe_step(rank, step, end - start, end)
        for span in timeline.spans:
            if span.rank == NETWORK_RANK:
                continue
            if span.cat == "negotiate":
                self.observe_negotiation(span.rank, span.duration)
            elif span.cat == "network" and span.stream is not None:
                self.observe_stream_span(
                    span.rank, span.stream, span.duration,
                    float(t.cast(float, span.meta.get("bytes", 0.0))))

    # -- finalize ------------------------------------------------------------

    def finalize(self, attributions: t.Sequence | None = None
                 ) -> tuple[DetectorEvent, ...]:
        """Fold all streamed state into a canonical event tuple.

        Deterministic by construction: every aggregate is folded in
        sorted-key order, so live and replayed diagnoses of the same run
        produce bit-identical events.
        """
        events: list[DetectorEvent] = []
        stragglers = self._straggler_events(attributions)
        events.extend(stragglers)
        events.extend(self._imbalance_events())
        events.extend(self._congestion_events())
        if not stragglers:
            # Root-cause suppression: a straggler stalls every peer's
            # sync round, inflating exposed negotiation as a *symptom*.
            # The negotiation rule only speaks when no straggler already
            # explains the wait.
            events.extend(self._negotiation_events(attributions))
        events.extend(self._tuner_events())
        events.sort(key=lambda e: (e.detector, e.kind, e.subject, e.time_s))
        return tuple(events)

    # Each rule below folds its aggregate in sorted-key order and emits
    # at most one event per subject.

    def _straggler_events(self, attributions: t.Sequence | None
                          ) -> list[DetectorEvent]:
        cfg = self.config
        per_rank: dict[int, float] = {}
        if attributions:
            # Primary signal: attributed per-rank compute.  Collectives
            # synchronise ranks, so raw step windows equalise even with
            # a straggler — but the slow rank's *compute* share shows.
            for attribution in sorted(attributions,
                                      key=lambda a: (a.rank, a.step)):
                per_rank[attribution.rank] = \
                    per_rank.get(attribution.rank, 0.0) \
                    + attribution.compute_s
        else:
            # Fallback (no attributions available): raw step durations.
            for step in sorted(self._steps):
                for rank in sorted(self._steps[step]):
                    duration, _end = self._steps[step][rank]
                    per_rank[rank] = per_rank.get(rank, 0.0) + duration
        if len(per_rank) < 2:
            return []
        values = sorted(per_rank.values())
        median = values[len(values) // 2] if len(values) % 2 else \
            (values[len(values) // 2 - 1] + values[len(values) // 2]) / 2.0
        threshold = median * cfg.straggler_ratio + cfg.straggler_margin_s
        events = []
        for rank in sorted(per_rank):
            value = per_rank[rank]
            if value > threshold:
                events.append(DetectorEvent(
                    detector="straggler", kind="straggler",
                    severity=_severity_for(value, threshold),
                    subject=f"rank {rank}", time_s=self._last_time,
                    value=value, threshold=threshold,
                    detail=(f"rank {rank} compute {_fmt(value)}s vs cohort "
                            f"median {_fmt(median)}s "
                            f"(x{_fmt(value / median if median else 0.0)})")))
        return events

    def _imbalance_events(self) -> list[DetectorEvent]:
        cfg = self.config
        by_rank: dict[int, dict[int, float]] = {}
        for (rank, stream) in sorted(self._streams):
            by_rank.setdefault(rank, {})[stream] = \
                self._streams[(rank, stream)][0]
        significant = max(cfg.imbalance_min_busy_s,
                          cfg.imbalance_busy_frac * self._last_time)
        events = []
        for rank in sorted(by_rank):
            streams = by_rank[rank]
            if len(streams) < 2:
                continue
            busiest = max(streams.values())
            total = sum(streams[stream] for stream in sorted(streams))
            if busiest < significant or total <= 0:
                continue
            share = busiest / total
            if share > cfg.imbalance_share:
                shares = ", ".join(
                    f"s{stream}={_fmt(streams[stream])}s"
                    for stream in sorted(streams))
                # Escalate only when one lane is essentially alone.
                severity = Severity.ERROR if share >= 0.95 else Severity.WARN
                events.append(DetectorEvent(
                    detector="stream-imbalance", kind="stream-imbalance",
                    severity=severity,
                    subject=f"rank {rank}", time_s=self._last_time,
                    value=share, threshold=cfg.imbalance_share,
                    detail=(f"one stream carries {_fmt(share * 100)}% of "
                            f"rank {rank}'s stream busy time: {shares}")))
        return events

    def _congestion_events(self) -> list[DetectorEvent]:
        cfg = self.config
        events = []
        for name in sorted(self.link_sampler.links):
            observed_s, saturated_s, _util_s = self.link_sampler.links[name]
            if observed_s <= 0:
                continue
            sustained = saturated_s / observed_s
            if sustained < cfg.congestion_sustained:
                continue
            flow_state = self._link_flows.get(name)
            if flow_state is None or flow_state[0] <= 0:
                continue
            throttled_frac = flow_state[1] / flow_state[0]
            if throttled_frac < cfg.congestion_throttled_frac:
                continue
            algorithms = sorted(
                (algo, nbytes) for (link, algo), nbytes
                in self._link_algorithm_bytes.items() if link == name)
            by_algo = ", ".join(
                f"{algo}={_fmt(nbytes / 1e6)}MB"
                for algo, nbytes in algorithms)
            events.append(DetectorEvent(
                detector="congestion", kind="congestion",
                severity=_severity_for(sustained, cfg.congestion_sustained),
                subject=f"link {name}", time_s=self._last_time,
                value=sustained, threshold=cfg.congestion_sustained,
                detail=(f"link {name} saturated {_fmt(sustained * 100)}% of "
                        f"flow-active time; {_fmt(throttled_frac * 100)}% of "
                        f"bytes throttled below their stream rate cap"
                        + (f" (by algorithm: {by_algo})" if by_algo else ""))))
        return events

    def _negotiation_events(self, attributions: t.Sequence | None
                            ) -> list[DetectorEvent]:
        # Raw negotiate sums overlap with compute (that overlap is the
        # paper's design goal), so only *exposed* negotiation from the
        # critical-path attribution is trustworthy here.
        if not attributions:
            return []
        cfg = self.config
        negotiate_s = 0.0
        total_s = 0.0
        for attribution in sorted(attributions,
                                  key=lambda a: (a.rank, a.step)):
            negotiate_s += attribution.negotiate_s
            total_s += attribution.step_time_s
        if total_s <= 0:
            return []
        fraction = negotiate_s / total_s
        if fraction <= cfg.negotiate_frac:
            return []
        return [DetectorEvent(
            detector="negotiation-overhead", kind="negotiation-overhead",
            severity=_severity_for(fraction, cfg.negotiate_frac),
            subject="sync", time_s=self._last_time,
            value=fraction, threshold=cfg.negotiate_frac,
            detail=(f"exposed negotiation is {_fmt(fraction * 100)}% of "
                    f"total step time ({_fmt(negotiate_s)}s of "
                    f"{_fmt(total_s)}s)"))]

    def _tuner_events(self) -> list[DetectorEvent]:
        cfg = self.config
        if self._tuner_warm_cost is None or self._tuner_warm_cost <= 0:
            return []
        if self._tuner_trials < cfg.tuner_min_trials or not self._tuner_recent:
            return []
        recent_mean = sum(self._tuner_recent) / len(self._tuner_recent)
        threshold = self._tuner_warm_cost * (1.0 + cfg.tuner_margin)
        if recent_mean <= threshold:
            return []
        return [DetectorEvent(
            detector="tuner-regression", kind="tuner-regression",
            severity=_severity_for(recent_mean, threshold),
            subject="tuner", time_s=self._last_time,
            value=recent_mean, threshold=threshold,
            detail=(f"recent tuner trials average {_fmt(recent_mean)}s vs "
                    f"SettingsCache warm start {_fmt(self._tuner_warm_cost)}s "
                    f"(+{_fmt(cfg.tuner_margin * 100)}% margin) over "
                    f"{len(self._tuner_recent)} trials"))]
