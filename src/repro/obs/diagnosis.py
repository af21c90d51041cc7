"""Rule-based diagnosis: detector events + attributions -> findings.

The diagnosis engine is the interpreting layer the ISSUE calls for: it
consumes the :class:`~repro.obs.detectors.DetectorSuite`'s canonical
event tuple plus the critical-path attributions and the recorded fault
lifecycle, and emits typed :class:`Finding`\\ s — severity, component,
machine-readable evidence, human-readable explanation — rendered as a
markdown report, JSONL records, and Perfetto instant annotations.

Determinism contract: findings are sorted canonically and their digest
(:attr:`DiagnosisReport.findings_digest`) is a SHA-256 over the
sorted-keys JSON of the finding records only, so the same run — live,
or re-diagnosed from recorded artifacts — produces a bit-identical
digest (pinned in the golden determinism matrix).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import typing as t

from repro.errors import ReproError
from repro.ioutil import atomic_write_text
from repro.obs.critical_path import StepAttribution, attribute_all
from repro.obs.detectors import (
    DetectorEvent,
    DetectorSuite,
    Severity,
)
from repro.obs.exporters import write_artifacts
from repro.obs.metrics import HistogramState, _label_key
from repro.obs.timeline import StepTimeline, TimelineFlowPoint

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability
    from repro.obs.slo import SLOResult

#: Detector kind -> diagnosed component.
_COMPONENT_OF = {
    "straggler": "runtime",
    "stream-imbalance": "streams",
    "congestion": "network",
    "negotiation-overhead": "sync",
    "tuner-regression": "autotune",
    "interference": "cluster",
}

#: Fault instants that close a recovery episode.
_RECOVERY_CLOSERS = ("fault.restore", "fault.recover")


@dataclasses.dataclass(frozen=True)
class Finding:
    """One diagnosed condition, typed and evidence-backed."""

    severity: Severity
    component: str
    kind: str
    subject: str
    message: str
    time_s: float
    #: Machine-readable evidence as ordered ``(key, value)`` pairs.
    evidence: tuple[tuple[str, object], ...] = ()

    def record(self) -> dict[str, object]:
        """JSON-safe dict form (severity by *name*, not number)."""
        return {
            "severity": self.severity.name,
            "component": self.component,
            "kind": self.kind,
            "subject": self.subject,
            "message": self.message,
            "time_s": self.time_s,
            "evidence": {key: value for key, value in self.evidence},
        }


def _finding_sort_key(finding: Finding) -> tuple:
    return (-int(finding.severity), finding.component, finding.kind,
            finding.subject, finding.time_s)


def findings_digest(findings: t.Sequence[Finding]) -> str:
    """SHA-256 over the canonical JSON of the findings alone."""
    payload = json.dumps([f.record() for f in findings], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclasses.dataclass(frozen=True)
class DiagnosisReport:
    """Findings + raw detector events + SLO verdicts for one run."""

    findings: tuple[Finding, ...]
    events: tuple[DetectorEvent, ...] = ()
    measurements: t.Mapping[str, float] = dataclasses.field(
        default_factory=dict)
    slo_results: tuple["SLOResult", ...] = ()

    @property
    def findings_digest(self) -> str:
        return findings_digest(self.findings)


    def findings_at(self, floor: Severity) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity >= floor)

    @property
    def breached_slos(self) -> tuple["SLOResult", ...]:
        return tuple(r for r in self.slo_results if r.breached)

    # -- rendering -----------------------------------------------------------

    def jsonl_records(self) -> t.Iterator[dict[str, object]]:
        # "record" discriminates the line type; findings keep their own
        # "kind" field (the detector kind, e.g. "straggler").
        for finding in self.findings:
            yield {"record": "finding", **finding.record()}
        for result in self.slo_results:
            yield {"record": "slo", **result.record()}

    def to_markdown(self) -> str:
        lines = ["# Diagnosis report", ""]
        if self.findings:
            lines += [f"## Findings ({len(self.findings)})", "",
                      "| severity | component | kind | subject | message |",
                      "| --- | --- | --- | --- | --- |"]
            for finding in self.findings:
                lines.append(
                    f"| {finding.severity.name} | {finding.component} "
                    f"| {finding.kind} | {finding.subject} "
                    f"| {finding.message} |")
        else:
            lines.append("No findings: every detector is quiet.")
        lines.append("")
        if self.slo_results:
            lines += ["## SLOs", "",
                      "| slo | observed | limit | verdict |",
                      "| --- | --- | --- | --- |"]
            for result in self.slo_results:
                lines.append(
                    f"| {result.slo.name} | {result.observed_text} "
                    f"| {result.limit_text} | {result.verdict} |")
            lines.append("")
        if self.measurements:
            lines += ["## Measurements", ""]
            for key in sorted(self.measurements):
                lines.append(f"- `{key}` = {self.measurements[key]!r}")
            lines.append("")
        lines.append(f"findings digest: `{self.findings_digest}`")
        lines.append("")
        return "\n".join(lines)

    def annotate(self, timeline: StepTimeline) -> None:
        """Add one ``diagnosis`` instant per finding to a timeline.

        Renders in Perfetto as flagged instants at the finding's time,
        so the report and the trace cross-reference each other.
        """
        for finding in self.findings:
            timeline.instant(
                f"finding.{finding.kind}", "diagnosis", 0, finding.time_s,
                severity=finding.severity.name, component=finding.component,
                subject=finding.subject, message=finding.message)


def _recovery_findings(timeline: StepTimeline) -> list[Finding]:
    """Pair ``fault.inject`` instants with their recovery closers."""
    faults = sorted(
        (i for i in timeline.instants if i.cat == "fault"),
        key=lambda i: (i.time, i.name))
    findings: list[Finding] = []
    open_inject = None
    for instant in faults:
        if instant.name == "fault.inject":
            if open_inject is not None:
                findings.append(_unrecovered(open_inject))
            open_inject = instant
        elif instant.name in _RECOVERY_CLOSERS and open_inject is not None:
            recovery_s = instant.time - open_inject.time
            findings.append(Finding(
                severity=Severity.WARN, component="resilience",
                kind="crash-recovery",
                subject=f"rank {open_inject.rank}",
                message=(f"injected fault at t={open_inject.time:.6g}s "
                         f"recovered in {recovery_s:.6g}s"),
                time_s=instant.time,
                evidence=(("injected_at_s", open_inject.time),
                          ("recovered_at_s", instant.time),
                          ("recovery_s", recovery_s))))
            open_inject = None
    if open_inject is not None:
        findings.append(_unrecovered(open_inject))
    return findings


def _unrecovered(instant) -> Finding:
    return Finding(
        severity=Severity.ERROR, component="resilience",
        kind="unrecovered-fault", subject=f"rank {instant.rank}",
        message=(f"fault injected at t={instant.time:.6g}s has no "
                 f"recorded recovery"),
        time_s=instant.time,
        evidence=(("injected_at_s", instant.time),))


def _event_finding(event: DetectorEvent) -> Finding:
    return Finding(
        severity=event.severity,
        component=_COMPONENT_OF.get(event.detector, "runtime"),
        kind=event.kind, subject=event.subject, message=event.detail,
        time_s=event.time_s,
        evidence=(("value", event.value), ("threshold", event.threshold),
                  ("detector", event.detector)))


def timeline_measurements(timeline: StepTimeline) -> dict[str, float]:
    """Derive SLO-relevant measurements from a recorded timeline."""
    measurements: dict[str, float] = {}
    durations = sorted(end - start
                       for _rank, _step, start, end in timeline.steps())
    if durations:
        # Exact nearest-rank p99 (no bucket interpolation error).
        index = max(0, -(-99 * len(durations) // 100) - 1)
        measurements["step_time_p99_s"] = durations[index]
    recoveries = [
        f.time_s - dict(f.evidence)["injected_at_s"]
        for f in _recovery_findings(timeline) if f.kind == "crash-recovery"]
    if recoveries:
        measurements["recovery_time_s"] = max(
            t.cast(float, r) for r in recoveries)
    return measurements


def diagnose(obs: "Observability",
             attributions: t.Sequence[StepAttribution] | None = None
             ) -> DiagnosisReport:
    """Diagnose one run's observability bundle, live or re-loaded.

    An attached suite (``obs.diag``) publishes into the registry; a
    fresh suite with its config is then seeded from the registry and
    fed the timeline, so findings are a function of the recording.
    """
    live = obs.diag
    if live is not None:
        live.publish(obs.registry)
    suite = DetectorSuite(live.config if live is not None else None)
    suite.seed_from_registry(obs.registry)
    suite.replay_timeline(obs.timeline)
    if attributions is None:
        attributions = attribute_all(obs.timeline)
    events = suite.finalize(attributions or None)
    findings = [_event_finding(event) for event in events]
    findings.extend(_recovery_findings(obs.timeline))
    findings.sort(key=_finding_sort_key)
    return DiagnosisReport(
        findings=tuple(findings), events=events,
        measurements=timeline_measurements(obs.timeline))


# -- artifact round-trip -----------------------------------------------------


def load_artifacts(directory: str | pathlib.Path) -> "Observability":
    """Rebuild an :class:`Observability` bundle from ``timeline.jsonl``.

    Inverse of :func:`repro.obs.exporters.write_artifacts` for the JSONL
    artifact (which carries both registry and timeline): counters,
    gauges, histogram states, step windows, spans, instants and flow
    points all round-trip exactly — JSON floats are lossless.
    """
    from repro.obs import Observability

    path = pathlib.Path(directory)
    jsonl = path / "timeline.jsonl" if path.is_dir() else path
    if not jsonl.exists():
        raise ReproError(f"no timeline.jsonl under {path} — "
                         f"was this directory written by write_artifacts?")
    obs = Observability(enabled=True)
    registry, timeline = obs.registry, obs.timeline
    for line_no, line in enumerate(jsonl.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReproError(
                f"{jsonl}:{line_no}: corrupt JSONL record: {exc}") from exc
        kind = record.get("kind")
        if kind == "counter":
            registry.counter(record["name"]).samples[
                _label_key(record["labels"])] = record["value"]
        elif kind == "gauge":
            registry.gauge(record["name"]).samples[
                _label_key(record["labels"])] = record["value"]
        elif kind == "histogram":
            metric = registry.histogram(record["name"],
                                        buckets=record["buckets"])
            metric.samples[_label_key(record["labels"])] = HistogramState(
                bucket_counts=list(record["bucket_counts"]),
                count=record["count"], sum=record["sum"])
        elif kind == "step":
            timeline.begin_step(record["rank"], record["step"],
                                record["start_s"])
            timeline.end_step(record["rank"], record["step"],
                              record["end_s"])
        elif kind == "span":
            timeline.span(record["name"], record["cat"], record["rank"],
                          record["start_s"], record["end_s"],
                          stream=record["stream"], **record["meta"])
        elif kind == "instant":
            timeline.instant(record["name"], record["cat"], record["rank"],
                             record["time_s"], **record["meta"])
        elif kind == "flow":
            timeline.flow_points.append(TimelineFlowPoint(
                record["id"], record["phase"], record["name"],
                record["rank"], record["time_s"], record["stream"]))
        else:
            raise ReproError(
                f"{jsonl}:{line_no}: unknown record kind {kind!r}")
    return obs


def write_diagnosis_artifacts(directory: str | pathlib.Path,
                              report: DiagnosisReport,
                              obs: "Observability | None" = None
                              ) -> dict[str, pathlib.Path]:
    """Persist a diagnosis under a directory (atomically, like obs).

    Writes ``findings.md`` / ``findings.jsonl`` / ``measurements.json``;
    with an observability bundle, also annotates its timeline with the
    findings and writes the standard obs artifacts next to them, so the
    Perfetto trace carries the diagnosis instants.
    """
    out = pathlib.Path(directory)
    written = {
        "findings_md": atomic_write_text(
            out / "findings.md", report.to_markdown()),
        "findings_jsonl": atomic_write_text(
            out / "findings.jsonl",
            "".join(json.dumps(record, sort_keys=True) + "\n"
                    for record in report.jsonl_records())),
        "measurements": atomic_write_text(
            out / "measurements.json",
            json.dumps({"measurements": dict(report.measurements),
                        "findings_digest": report.findings_digest},
                       sort_keys=True, indent=2) + "\n"),
    }
    if obs is not None:
        report.annotate(obs.timeline)
        written.update(write_artifacts(out, obs.registry, obs.timeline))
    return written
