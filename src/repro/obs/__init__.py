"""First-class observability: metrics, timelines, attribution, exporters.

The paper's whole evaluation is an observability exercise —
link-utilisation per stream (Fig. 3), scaling efficiency, negotiation
overhead at scale, tuner convergence.  This package gives the runtime the
instruments to *explain* its own throughput:

- :class:`MetricsRegistry` — labelled counters/gauges/histograms with a
  single-branch disabled path (:mod:`repro.obs.metrics`);
- :class:`StepTimeline` — per-rank / per-stream span recorder with step
  windows, instants and flow chains (:mod:`repro.obs.timeline`);
- :func:`attribute_step` — critical-path attribution of each step to
  compute / negotiate / network / straggler, summing to measured step
  time (:mod:`repro.obs.critical_path`);
- exporters — Perfetto/Chrome trace (pid = rank, tid = stream),
  Prometheus text, streaming JSONL (:mod:`repro.obs.exporters`).

:class:`Observability` bundles one registry + one timeline and is what
the engines, the network model and the tuner accept.  Attach a
:class:`~repro.obs.detectors.DetectorSuite` via
:meth:`Observability.attach_detectors` to run the streaming anomaly
detectors during simulation; :func:`~repro.obs.diagnosis.diagnose`
turns the recorded run into typed findings, and
:mod:`repro.obs.slo` / :mod:`repro.obs.baselines` give the regression
sentinel its objectives and reference points.
"""

from repro.errors import ReproError
from repro.obs.baselines import (
    Baseline,
    load_bench_baseline,
    load_campaign_baseline,
)
from repro.obs.critical_path import (
    CATEGORY_MAP,
    COMPONENTS,
    StepAttribution,
    attribute_all,
    attribute_step,
    attribute_window,
)
from repro.obs.detectors import (
    DetectorConfig,
    DetectorEvent,
    DetectorSuite,
    LinkUtilisationSampler,
    Severity,
    parse_severity,
)
from repro.obs.diagnosis import (
    DiagnosisReport,
    Finding,
    diagnose,
    load_artifacts,
    write_diagnosis_artifacts,
)
from repro.obs.exporters import (
    chrome_trace_events,
    jsonl_lines,
    jsonl_records,
    prometheus_text,
    write_artifacts,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
)
from repro.obs.slo import (
    DEFAULT_SLOS,
    SLO,
    SLOResult,
    evaluate_slos,
    load_slos,
)
from repro.obs.timeline import (
    NETWORK_RANK,
    StepTimeline,
    TimelineInstant,
    TimelineSpan,
)


#: Fault-lifecycle and detector events, one sample per ``kind`` label
#: (``inject``, ``suspect``, ``sync_timeout``, ``stalled_collectives``...).
FAULTS_TOTAL = "aiacc_faults_total"

#: Membership-epoch advances (scale-down, scale-up, failure).
EPOCH_ADVANCES_TOTAL = "aiacc_epoch_advances_total"


class Observability:
    """One run's metrics registry + step timeline, enabled together."""

    def __init__(self, enabled: bool = True,
                 registry: MetricsRegistry | None = None,
                 timeline: StepTimeline | None = None) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry(enabled=enabled)
        self.timeline = timeline if timeline is not None \
            else StepTimeline(enabled=enabled)
        #: Optional attached :class:`DetectorSuite`, fed live only by the
        #: network and the tuner; the rest of its state is read from the
        #: timeline when :func:`~repro.obs.diagnosis.diagnose` runs.
        self.diag: DetectorSuite | None = None

    def attach_detectors(self, suite: "DetectorSuite | None" = None
                         ) -> DetectorSuite:
        """Attach (and return) a detector suite to this recording run."""
        if not (self.registry.enabled and self.timeline.enabled):
            raise ReproError("attach_detectors needs an enabled registry "
                             "and timeline: diagnosis reads both")
        self.diag = suite if suite is not None else DetectorSuite()
        return self.diag

    @classmethod
    def disabled(cls) -> "Observability":
        """A no-op instance: every record call is one branch."""
        return cls(enabled=False)

    @property
    def enabled(self) -> bool:
        return self.registry.enabled or self.timeline.enabled

    # -- fault lifecycle and membership ------------------------------------

    def count_fault(self, kind: str) -> None:
        """Count one fault event that has no timeline instant."""
        faults = self.registry.counter(
            FAULTS_TOTAL, "Fault-lifecycle and detector events")
        faults.inc(kind=kind)

    def fault_event(self, kind: str, time: float, **meta: object) -> None:
        """Count a fault-lifecycle event and record it on the timeline."""
        self.count_fault(kind)
        self.timeline.fault_event(kind, time, **meta)

    def epoch_event(self, epoch: int, time: float, **meta: object) -> None:
        """Count a membership-epoch advance and record it on the timeline."""
        self.registry.counter(
            EPOCH_ADVANCES_TOTAL, "Membership-epoch advances").inc()
        self.timeline.epoch_event(epoch, time, **meta)

    def fault_counts(self) -> dict[str, float]:
        """``kind -> count`` of every fault event counted so far."""
        metric = self.registry.get(FAULTS_TOTAL)
        if metric is None:
            return {}
        return {labels["kind"]: value for labels, value in metric.labelled()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return f"<Observability {state}: {len(self.registry)} metrics, " \
               f"{len(self.timeline.spans)} spans>"


__all__ = [
    "CATEGORY_MAP",
    "COMPONENTS",
    "DEFAULT_SLOS",
    "Baseline",
    "Counter",
    "DetectorConfig",
    "DetectorEvent",
    "DetectorSuite",
    "DiagnosisReport",
    "Finding",
    "Gauge",
    "Histogram",
    "LinkUtilisationSampler",
    "Metric",
    "MetricsRegistry",
    "NETWORK_RANK",
    "Observability",
    "SLO",
    "SLOResult",
    "Severity",
    "StepAttribution",
    "StepTimeline",
    "TimelineInstant",
    "TimelineSpan",
    "attribute_all",
    "attribute_step",
    "attribute_window",
    "chrome_trace_events",
    "diagnose",
    "evaluate_slos",
    "jsonl_lines",
    "jsonl_records",
    "load_artifacts",
    "load_bench_baseline",
    "load_campaign_baseline",
    "load_slos",
    "parse_severity",
    "prometheus_text",
    "write_artifacts",
    "write_diagnosis_artifacts",
]
