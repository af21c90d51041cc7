"""The step timeline: a per-rank, per-stream record of simulated time.

Where the :mod:`~repro.obs.metrics` registry answers *how much*, the
timeline answers *when and where*: every span carries its rank, an
optional CUDA-stream index, and a category (``compute`` / ``pack`` /
``negotiate`` / ``network`` / ``staging`` / ``apply`` / ...).  The
critical-path analyzer (:mod:`repro.obs.critical_path`) partitions each
recorded step over these categories, and the exporters render the same
record as a multi-track Perfetto trace (pid = rank, tid = stream or
activity lane) or JSONL.

Fault-lifecycle events (inject / suspect / confirm / rebuild / restore)
arrive through :meth:`StepTimeline.fault_event` — called by
:meth:`repro.obs.Observability.fault_event`, which also counts them —
and are chained into *flow* episodes so a recovery reads as one
connected arrow across the trace.

Every record method begins with a single ``enabled`` branch; a disabled
timeline is one comparison per call.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing as t

from repro.errors import ReproError

#: Pseudo-rank used for fabric-level records (per-flow network spans)
#: that belong to no worker; exporters render it as a "network" process.
NETWORK_RANK = -1

#: Fault kinds that open a new recovery episode / close the open one.
#: ``leave``/``join`` announcements open a membership episode that the
#: next epoch advance (or ``restore``/``recover``) closes.
_EPISODE_OPENERS = frozenset({"inject", "leave", "join"})
_EPISODE_CLOSERS = frozenset({"restore", "recover", "epoch"})


@dataclasses.dataclass(frozen=True)
class TimelineSpan:
    """A named interval attributed to one rank (and optionally a stream)."""

    name: str
    cat: str
    rank: int
    start: float
    end: float
    stream: int | None = None
    meta: t.Mapping[str, object] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclasses.dataclass(frozen=True)
class TimelineInstant:
    """A point event on one rank's track."""

    name: str
    cat: str
    rank: int
    time: float
    meta: t.Mapping[str, object] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class TimelineFlowPoint:
    """One anchor of a flow chain (Chrome ``s``/``t``/``f`` events)."""

    flow_id: int
    phase: str  # "start" | "step" | "end"
    name: str
    rank: int
    time: float
    stream: int | None = None


class StepTimeline:
    """Collects spans, instants, flow chains and step windows."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[TimelineSpan] = []
        self.instants: list[TimelineInstant] = []
        self.flow_points: list[TimelineFlowPoint] = []
        #: ``(rank, step_index) -> [start, end|None]``.
        self._steps: dict[tuple[int, int], list[float | None]] = {}
        self._flow_ids = itertools.count(1)
        #: Open fault-recovery episode flow id, if any.
        self._fault_episode: int | None = None

    # -- spans / instants ----------------------------------------------------

    def span(self, name: str, cat: str, rank: int, start: float, end: float,
             stream: int | None = None, **meta: object) -> None:
        if not self.enabled:
            return
        if end < start:
            raise ReproError(f"span {name!r} ends before it starts")
        self.spans.append(TimelineSpan(name, cat, rank, start, end,
                                       stream, meta))

    def instant(self, name: str, cat: str, rank: int, time: float,
                **meta: object) -> None:
        if not self.enabled:
            return
        self.instants.append(TimelineInstant(name, cat, rank, time, meta))

    # -- step windows --------------------------------------------------------

    def begin_step(self, rank: int, step: int, at: float) -> None:
        if not self.enabled:
            return
        self._steps[(rank, step)] = [at, None]

    def end_step(self, rank: int, step: int, at: float) -> None:
        if not self.enabled:
            return
        window = self._steps.get((rank, step))
        if window is None:
            raise ReproError(f"end_step before begin_step for "
                             f"rank {rank} step {step}")
        window[1] = at

    def step_window(self, rank: int, step: int) -> tuple[float, float]:
        """The ``[start, end]`` window of one completed step."""
        window = self._steps.get((rank, step))
        if window is None or window[1] is None:
            raise ReproError(f"no completed step {step} for rank {rank}")
        return t.cast(float, window[0]), t.cast(float, window[1])

    def steps(self) -> t.Iterator[tuple[int, int, float, float]]:
        """Iterate completed ``(rank, step, start, end)`` windows."""
        for (rank, step), (start, end) in self._steps.items():
            if end is not None:
                yield rank, step, t.cast(float, start), end

    def ranks(self) -> list[int]:
        """Worker ranks with any recorded data, sorted."""
        seen = {rank for rank, _step in self._steps}
        seen.update(s.rank for s in self.spans)
        seen.update(i.rank for i in self.instants)
        seen.discard(NETWORK_RANK)
        return sorted(seen)

    # -- flow chains ---------------------------------------------------------

    def flow_start(self, name: str, rank: int, time: float,
                   stream: int | None = None) -> int:
        """Open a new flow chain; returns its id (0 when disabled)."""
        if not self.enabled:
            return 0
        flow_id = next(self._flow_ids)
        self.flow_points.append(TimelineFlowPoint(
            flow_id, "start", name, rank, time, stream))
        return flow_id

    def flow_step(self, flow_id: int, name: str, rank: int, time: float,
                  stream: int | None = None) -> None:
        if not self.enabled or flow_id == 0:
            return
        self.flow_points.append(TimelineFlowPoint(
            flow_id, "step", name, rank, time, stream))

    def flow_end(self, flow_id: int, name: str, rank: int, time: float,
                 stream: int | None = None) -> None:
        if not self.enabled or flow_id == 0:
            return
        self.flow_points.append(TimelineFlowPoint(
            flow_id, "end", name, rank, time, stream))

    # -- fault lifecycle -----------------------------------------------------

    def fault_event(self, kind: str, time: float, rank: int = 0,
                    **meta: object) -> None:
        """Record one fault-lifecycle event as an instant + flow anchor.

        Consecutive events chain into an *episode*: ``inject`` opens a
        flow, intermediate kinds (``suspect``, ``confirm``, ``rebuild``)
        extend it, and ``restore``/``recover`` close it — so a recovery
        renders as one connected arrow from the crash to the resume,
        next to the rings it aborted.
        """
        if not self.enabled:
            return
        name = f"fault.{kind}"
        self.instant(name, "fault", rank, time, **meta)
        if kind in _EPISODE_CLOSERS:
            # A closer with no open episode is a lone instant (e.g. an
            # epoch advance after the crash's restore already closed the
            # recovery arrow) — never open a dangling flow for it.
            if self._fault_episode is not None:
                self.flow_end(self._fault_episode, name, rank, time)
                self._fault_episode = None
        elif kind in _EPISODE_OPENERS or self._fault_episode is None:
            # Close a dangling episode rather than braiding two together.
            if self._fault_episode is not None:
                self.flow_end(self._fault_episode, "fault.episode",
                              rank, time)
            self._fault_episode = self.flow_start(name, rank, time)
        else:
            self.flow_step(self._fault_episode, name, rank, time)

    # -- membership epochs ---------------------------------------------------

    def epoch_event(self, epoch: int, time: float, rank: int = 0,
                    **meta: object) -> None:
        """Record a membership-epoch advance.

        Emits an ``epoch.advance`` instant (category ``membership``)
        carrying the new epoch number plus caller metadata (world size,
        transition kind, ...), and closes any open fault/membership
        episode so the announce→admit arrow ends at the epoch boundary.
        """
        if not self.enabled:
            return
        self.instant("epoch.advance", "membership", rank, time,
                     epoch=epoch, **meta)
        if self._fault_episode is not None:
            self.flow_end(self._fault_episode, "epoch.advance", rank, time)
            self._fault_episode = None
