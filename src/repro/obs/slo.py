"""Declarative SLOs and the regression sentinel that evaluates them.

An :class:`SLO` binds one measurement key (``step_time_p99_s``,
``scaling_efficiency``, ``recovery_time_s``, ``obs_overhead_frac``) to
absolute bounds and/or a *relative* bound against a baseline value
(e.g. ``<= 1.10 x`` the ``simulated_step_s`` pinned in
``BENCH_simulator.json``).  :func:`evaluate_slos` turns measurements +
an optional :class:`~repro.obs.baselines.Baseline` into
:class:`SLOResult` verdicts; an unmeasurable objective is *skipped*
(with a reason), never silently passed or failed.

SLO files are JSON: ``{"slos": [{"name": ..., "metric": ...,
"max_value": ..., "min_value": ..., "baseline_key": ...,
"baseline_ratio": ...}, ...]}`` — see ``docs/observability.md``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import typing as t

from repro.errors import ReproError, require_real

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.baselines import Baseline
    from repro.obs.metrics import MetricsRegistry


@dataclasses.dataclass(frozen=True)
class SLO:
    """One declarative objective over one measurement."""

    name: str
    #: Key into the measurements mapping.
    metric: str
    #: Absolute upper bound (breach when observed exceeds it).
    max_value: float | None = None
    #: Absolute lower bound (breach when observed falls below it).
    min_value: float | None = None
    #: Baseline value key + ratio: relative upper bound
    #: ``baseline[baseline_key] * baseline_ratio``.
    baseline_key: str | None = None
    baseline_ratio: float | None = None
    #: Histogram fallback: when the measurement key is absent, read this
    #: quantile of this histogram family from the registry instead.
    histogram: str | None = None
    quantile: float | None = None
    description: str = ""

    def __post_init__(self) -> None:
        for field in ("max_value", "min_value", "baseline_ratio"):
            if getattr(self, field) is not None:
                require_real(f"SLO {self.name!r}: {field}",
                             getattr(self, field), ReproError)
        if self.quantile is not None and require_real(
                f"SLO {self.name!r}: quantile", self.quantile, ReproError,
                positive=True) >= 1:
            raise ReproError(
                f"SLO {self.name!r}: quantile must lie in (0, 1), "
                f"got {self.quantile!r}")
        if (self.max_value is None and self.min_value is None
                and (self.baseline_key is None
                     or self.baseline_ratio is None)):
            raise ReproError(
                f"SLO {self.name!r} declares no bound: set max_value, "
                f"min_value, or baseline_key + baseline_ratio")


@dataclasses.dataclass(frozen=True)
class SLOResult:
    """The sentinel's verdict on one SLO."""

    slo: SLO
    observed: float | None
    #: Effective upper limit after folding baseline + absolute bounds.
    limit: float | None
    breached: bool
    skipped: bool = False
    reason: str = ""

    @property
    def verdict(self) -> str:
        if self.skipped:
            return f"SKIP ({self.reason})"
        return "BREACH" if self.breached else "ok"

    @property
    def observed_text(self) -> str:
        return "-" if self.observed is None else f"{self.observed:.6g}"

    @property
    def limit_text(self) -> str:
        parts = []
        if self.limit is not None:
            parts.append(f"<= {self.limit:.6g}")
        if self.slo.min_value is not None:
            parts.append(f">= {self.slo.min_value:.6g}")
        return " and ".join(parts) if parts else "-"

    def record(self) -> dict[str, object]:
        return {
            "name": self.slo.name, "metric": self.slo.metric,
            "observed": self.observed, "limit": self.limit,
            "min_value": self.slo.min_value, "breached": self.breached,
            "skipped": self.skipped, "reason": self.reason,
        }


#: The sentinel's stock objectives.  ``step_time_p99_s`` is relative to
#: the benchmark baseline; the rest are absolute envelopes sized to the
#: committed scenario suite.
DEFAULT_SLOS: tuple[SLO, ...] = (
    SLO(name="step_time_p99", metric="step_time_p99_s",
        baseline_key="simulated_step_s", baseline_ratio=1.10,
        histogram="aiacc_step_seconds", quantile=0.99,
        description="p99 simulated step time within 10% of the pinned "
                    "benchmark baseline"),
    SLO(name="scaling_efficiency", metric="scaling_efficiency",
        min_value=0.5,
        description="measured scaling efficiency vs the single-GPU ideal"),
    SLO(name="recovery_time", metric="recovery_time_s", max_value=60.0,
        description="worst crash-to-resume recovery latency (the restart "
                    "overhead alone is 30 simulated seconds)"),
    SLO(name="obs_overhead", metric="obs_overhead_frac", max_value=1.5,
        description="wall-clock overhead factor of full observability + "
                    "detectors vs a disabled-obs run"),
)


def job_slos(job_id: str, baseline_step_s: float,
             slack_ratio: float = 1.25) -> tuple[SLO, ...]:
    """Per-tenant step-time objectives for one job on a shared fabric.

    The cluster overload controller evaluates these against the job's
    own measurements (keys are namespaced ``job:<id>:...``): the step
    time of a healthy, uncontended run of the same job anchors the
    limit, and ``slack_ratio`` is the contention the tenant is expected
    to absorb before the degradation ladder engages.
    """
    require_real(f"job {job_id!r}: baseline_step_s", baseline_step_s,
                 ReproError, positive=True)
    if require_real(f"job {job_id!r}: slack_ratio", slack_ratio,
                    ReproError) <= 1:
        raise ReproError(
            f"job {job_id!r}: slack_ratio must exceed 1.0")
    return (
        SLO(name=f"job:{job_id}:step_time",
            metric=f"job:{job_id}:step_time_s",
            max_value=baseline_step_s * slack_ratio,
            description=f"job {job_id} per-step latency within "
                        f"{slack_ratio:g}x its uncontended baseline"),
    )


def evaluate_slos(slos: t.Sequence[SLO],
                  measurements: t.Mapping[str, float],
                  baseline: "Baseline | None" = None,
                  registry: "MetricsRegistry | None" = None
                  ) -> tuple[SLOResult, ...]:
    """Evaluate every SLO; unmeasurable objectives are skipped."""
    results = []
    for slo in slos:
        observed = measurements.get(slo.metric)
        if observed is None and slo.histogram and registry is not None:
            metric = registry.get(slo.histogram)
            if metric is not None and hasattr(metric, "quantile"):
                observed = metric.quantile(slo.quantile or 0.99)
        limits = []
        if slo.max_value is not None:
            limits.append(slo.max_value)
        if slo.baseline_key is not None and slo.baseline_ratio is not None:
            if baseline is not None:
                base = baseline.values.get(slo.baseline_key)
                if base is not None:
                    limits.append(base * slo.baseline_ratio)
        limit = min(limits) if limits else None
        if observed is None:
            results.append(SLOResult(
                slo=slo, observed=None, limit=limit, breached=False,
                skipped=True, reason=f"no measurement for {slo.metric!r}"))
            continue
        if limit is None and slo.min_value is None:
            reason = ("baseline value missing"
                      if slo.baseline_key is not None else "no bound")
            results.append(SLOResult(
                slo=slo, observed=observed, limit=None, breached=False,
                skipped=True, reason=reason))
            continue
        breached = bool(
            (limit is not None and observed > limit)
            or (slo.min_value is not None and observed < slo.min_value))
        results.append(SLOResult(
            slo=slo, observed=observed, limit=limit, breached=breached))
    return tuple(results)


def load_slos(path: str | pathlib.Path) -> tuple[SLO, ...]:
    """Load SLOs from a JSON file (typed errors on any malformation)."""
    slo_path = pathlib.Path(path)
    if not slo_path.exists():
        raise ReproError(f"SLO file not found: {slo_path}")
    try:
        payload = json.loads(slo_path.read_text())
    except json.JSONDecodeError as exc:
        raise ReproError(f"corrupt SLO file {slo_path}: {exc}") from exc
    entries = payload.get("slos") if isinstance(payload, dict) else payload
    if not isinstance(entries, list):
        raise ReproError(
            f"SLO file {slo_path} must hold a list (or {{'slos': [...]}})")
    slos = []
    valid = {field.name for field in dataclasses.fields(SLO)}
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ReproError(f"{slo_path}: SLO #{index} is not an object")
        unknown = set(entry) - valid
        if unknown:
            raise ReproError(
                f"{slo_path}: SLO #{index} has unknown keys "
                f"{sorted(unknown)}")
        try:
            slos.append(SLO(**entry))
        except TypeError as exc:
            raise ReproError(
                f"{slo_path}: SLO #{index} is malformed: {exc}") from exc
    return tuple(slos)
