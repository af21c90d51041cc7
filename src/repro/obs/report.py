"""Builds the ``python -m repro report`` attribution report.

Runs one fully-instrumented message-level AIACC iteration (a real
simulated process per worker, real readiness messages, real per-unit
rings on the cluster links) and distils the recorded timeline into:

* a per-rank step-time attribution table (compute / negotiate / network
  / straggler, summing to the measured step time);
* a per-stream lane summary (how each rank's CUDA streams were used);
* a per-link flow summary whose single-stream utilisation reproduces
  the paper's §III observation that one TCP stream reaches ≤30% of the
  link bandwidth.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.obs import Observability
from repro.obs.critical_path import StepAttribution, attribute_all
from repro.obs.timeline import NETWORK_RANK, StepTimeline

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import AIACCConfig


@dataclasses.dataclass(frozen=True)
class ObsReport:
    """Everything the report CLI renders and persists."""

    model: str
    world_size: int
    iteration_time_s: float
    attributions: tuple[StepAttribution, ...]
    stream_rows: tuple[dict, ...]
    link_rows: tuple[dict, ...]
    obs: Observability

    @property
    def max_conservation_error(self) -> float:
        """Worst relative |sum(components) - step_time| across ranks."""
        worst = 0.0
        for attribution in self.attributions:
            if attribution.step_time_s <= 0:
                continue
            error = abs(attribution.total_s - attribution.step_time_s) \
                / attribution.step_time_s
            worst = max(worst, error)
        return worst


def link_utilisation_rows(timeline: StepTimeline) -> list[dict]:
    """Summarize per-flow network spans, grouped by (link, algorithm).

    ``utilisation`` is the duration-weighted mean of each flow's
    achieved rate over its bottleneck link capacity — the per-stream
    share of the physical link, which the TCP transport caps at the
    paper's single-stream efficiency (≤30%).  Flows placed by a named
    collective algorithm (the timed collectives tag each flow's
    ``label``) get their own row per link, so a
    planner run attributes each link's busy-time per algorithm;
    unlabelled flows group under ``"-"``.
    """
    grouped: dict[tuple[str, str], list] = {}
    for span in timeline.spans:
        if span.rank != NETWORK_RANK or span.cat != "net":
            continue
        key = (str(span.meta.get("lane", "?")),
               str(span.meta.get("algorithm", "-")))
        grouped.setdefault(key, []).append(span)
    rows = []
    for lane, algorithm in sorted(grouped):
        spans = grouped[(lane, algorithm)]
        total_duration = sum(s.duration for s in spans)
        weighted = sum(
            float(t.cast(float, s.meta["utilisation"])) * s.duration
            for s in spans)
        rows.append({
            "link": lane,
            "algorithm": algorithm,
            "flows": len(spans),
            "mbytes": sum(float(t.cast(float, s.meta["bytes"]))
                          for s in spans) / 1e6,
            "utilisation": weighted / total_duration
            if total_duration > 0 else 0.0,
            "peak_utilisation": max(
                float(t.cast(float, s.meta["utilisation"]))
                for s in spans),
            "capped": any(bool(s.meta.get("capped")) for s in spans),
        })
    return rows


def stream_lane_rows(timeline: StepTimeline) -> list[dict]:
    """Per-(rank, stream) occupancy summary of network-category spans."""
    grouped: dict[tuple[int, int], list] = {}
    for span in timeline.spans:
        if span.stream is None or span.rank == NETWORK_RANK:
            continue
        grouped.setdefault((span.rank, span.stream), []).append(span)
    rows = []
    for (rank, stream), spans in sorted(grouped.items()):
        rows.append({
            "rank": rank,
            "stream": stream,
            "units": len(spans),
            "busy_ms": sum(s.duration for s in spans) * 1e3,
            "mbytes": sum(float(t.cast(float, s.meta.get("bytes", 0.0)))
                          for s in spans) / 1e6,
        })
    return rows


def build_step_report(model: str = "resnet50", num_nodes: int = 2,
                      gpus_per_node: int = 2,
                      config: "AIACCConfig | None" = None,
                      batch_per_gpu: int | None = None,
                      seed: int = 0,
                      obs: Observability | None = None,
                      compute_skew: t.Mapping[int, float] | None = None
                      ) -> ObsReport:
    """Run one instrumented message-level iteration and distil it.

    Pass a prepared ``obs`` (e.g. with a detector suite attached via
    :meth:`Observability.attach_detectors`) to diagnose the run;
    ``compute_skew`` scales one or more ranks' backward duration (the
    straggler scenario — see ``run_message_level_iteration``).
    """
    from repro.core.message_engine import run_message_level_iteration
    from repro.core.runtime import AIACCConfig
    from repro.models.base import ModelSpec
    from repro.models.zoo import get_model
    from repro.sim.cuda import GPUDevice, V100

    spec = get_model(model) if isinstance(model, str) \
        else t.cast(ModelSpec, model)
    config = config or AIACCConfig()
    batch = batch_per_gpu or spec.default_batch_size
    # Spread the gradient schedule over a realistic backward duration so
    # overlap (and therefore attribution) is meaningful.
    compute_time_s = GPUDevice(V100).compute_time_s(
        spec.backward_flops * batch)

    obs = obs if obs is not None else Observability(enabled=True)
    result = run_message_level_iteration(
        spec, num_nodes=num_nodes, gpus_per_node=gpus_per_node,
        config=config, compute_time_s=compute_time_s, seed=seed, obs=obs,
        compute_skew=compute_skew)

    return ObsReport(
        model=spec.name,
        world_size=num_nodes * gpus_per_node,
        iteration_time_s=result.iteration_time_s,
        attributions=tuple(attribute_all(obs.timeline)),
        stream_rows=tuple(stream_lane_rows(obs.timeline)),
        link_rows=tuple(link_utilisation_rows(obs.timeline)),
        obs=obs,
    )
