"""Step-time attribution along the critical path.

Shi et al.'s DAG model of synchronous SGD decomposes a training step
into compute and communication tasks whose longest chain bounds step
time.  This analyzer recovers that decomposition from a recorded
:class:`~repro.obs.timeline.StepTimeline`: each instant of a rank's step
window is attributed to exactly one component, so the per-component
durations **sum to the measured step time** by construction.

Attribution rule (a priority sweep over the span coverage):

1. ``compute`` — any compute/pack/apply span covers the instant; work
   the GPU would do regardless of communication.
2. ``negotiate`` — otherwise, a readiness-synchronization span covers
   it; the decentralized bit-vector round exposed outside compute.
3. ``network`` — otherwise, an all-reduce unit / staging / flow span
   covers it; gradient bytes serializing on the wire.
4. ``straggler`` — nothing covers it: the rank is waiting on peers, a
   free stream, or recovery — exposed wait, the paper's scaling killer.

Overlap therefore never double-counts: negotiation hidden behind
backward compute is *not* charged (it is off the critical path, exactly
the paper's design goal), and only exposed network time is charged to
the network.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import ReproError, require_real
from repro.obs.timeline import StepTimeline, TimelineSpan

#: Attribution components, highest priority first (``straggler`` is the
#: residual and has no spans of its own).
COMPONENTS = ("compute", "negotiate", "network", "straggler")

#: Span category -> attribution component.
CATEGORY_MAP: dict[str, str] = {
    "compute": "compute",
    "pack": "compute",
    "apply": "compute",
    "negotiate": "negotiate",
    "network": "network",
    "staging": "network",
    "net": "network",
}


@dataclasses.dataclass(frozen=True)
class StepAttribution:
    """One rank's step time, partitioned over the four components."""

    rank: int
    step: int
    start: float
    end: float
    compute_s: float
    negotiate_s: float
    network_s: float
    straggler_s: float

    @property
    def step_time_s(self) -> float:
        return self.end - self.start

    @property
    def total_s(self) -> float:
        """Sum of the components; equals :attr:`step_time_s` by design."""
        return (self.compute_s + self.negotiate_s + self.network_s
                + self.straggler_s)

    def as_row(self) -> dict[str, object]:
        """Row-dict form for :func:`repro.harness.format_table`."""
        return {
            "rank": self.rank,
            "step": self.step,
            "step_ms": self.step_time_s * 1e3,
            "compute_ms": self.compute_s * 1e3,
            "negotiate_ms": self.negotiate_s * 1e3,
            "network_ms": self.network_s * 1e3,
            "straggler_ms": self.straggler_s * 1e3,
        }


def _component_of(span: TimelineSpan) -> str | None:
    return CATEGORY_MAP.get(span.cat)


def attribute_window(timeline: StepTimeline, rank: int, start: float,
                     end: float, step: int = 0) -> StepAttribution:
    """Attribute an arbitrary ``[start, end]`` window of one rank."""
    require_real("window start", start, ReproError)
    if require_real("window end", end, ReproError) < start:
        raise ReproError("attribution window ends before it starts")
    by_component: dict[str, list[tuple[float, float]]] = {
        "compute": [], "negotiate": [], "network": []}
    boundaries = {start, end}
    for span in timeline.spans:
        component = _component_of(span)
        if component is None or span.rank != rank:
            continue
        lo, hi = max(span.start, start), min(span.end, end)
        if hi <= lo:
            continue
        by_component[component].append((lo, hi))
        boundaries.add(lo)
        boundaries.add(hi)

    totals = {"compute": 0.0, "negotiate": 0.0, "network": 0.0}
    cuts = sorted(boundaries)
    for lo, hi in zip(cuts, cuts[1:]):
        if hi <= lo:
            continue
        mid = (lo + hi) / 2.0
        for component in ("compute", "negotiate", "network"):
            if any(s <= mid < e for s, e in by_component[component]):
                totals[component] += hi - lo
                break
    covered = totals["compute"] + totals["negotiate"] + totals["network"]
    straggler = max(0.0, (end - start) - covered)
    return StepAttribution(
        rank=rank, step=step, start=start, end=end,
        compute_s=totals["compute"], negotiate_s=totals["negotiate"],
        network_s=totals["network"], straggler_s=straggler,
    )


def attribute_step(timeline: StepTimeline, rank: int,
                   step: int) -> StepAttribution:
    """Attribute one recorded step of one rank."""
    start, end = timeline.step_window(rank, step)
    return attribute_window(timeline, rank, start, end, step=step)


def attribute_all(timeline: StepTimeline) -> list[StepAttribution]:
    """Attribute every completed step window, ordered by (step, rank)."""
    rows = [attribute_step(timeline, rank, step)
            for rank, step, _start, _end in timeline.steps()]
    rows.sort(key=lambda a: (a.step, a.rank))
    return rows
