"""Labeled metrics registry: counters, gauges and histograms.

The registry is the quantitative half of :mod:`repro.obs` (the
:mod:`~repro.obs.timeline` is the temporal half).  Components create
their metric handles once — at construction or warm-up — and record
against the handle on the hot path.  Every record method starts with a
single ``enabled`` branch, so a disabled registry costs one predictable
comparison per call and nothing else: no label-key allocation, no dict
lookup.

Labels follow the Prometheus model: a metric name identifies a family,
and each distinct label combination (``rank``, ``stream``, ``unit``,
``technique``, ...) owns an independent sample.  Exporters render the
same registry as Prometheus text or self-describing JSONL
(:mod:`repro.obs.exporters`).
"""

from __future__ import annotations

import dataclasses
import logging
import re
import typing as t

from repro.errors import ReproError, require_count, require_real

logger = logging.getLogger("repro.obs")

#: Prometheus-compatible metric/label name charset.
_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")

#: A concrete label set, canonicalized to a sorted tuple of pairs.
LabelKey = t.Tuple[t.Tuple[str, str], ...]

#: Default histogram bucket upper bounds (seconds-ish decades; callers
#: with byte-sized observations pass their own).
DEFAULT_BUCKETS = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0)

#: Denser decade subdivision for step-time histograms (1 ms .. 100 s,
#: ~10 buckets per decade).  The default decade buckets are too coarse
#: for the SLO engine's quantile fallback: a p99 read from a x10-wide
#: bucket cannot support a 1.10x regression bound.
STEP_TIME_BUCKETS = tuple(
    round(mantissa * 10.0 ** exponent, 6)
    for exponent in range(-3, 2)
    for mantissa in (1.0, 1.25, 1.6, 2.0, 2.5, 3.2, 4.0, 5.0, 6.3, 8.0)
) + (100.0,)

#: Default per-family cardinality bound.  Sized for the 1024-4096-rank
#: roadmap item (per-rank labels) with headroom; a runaway label source
#: (e.g. a value accidentally used as a label) trips the guard instead
#: of exhausting memory.
DEFAULT_MAX_LABEL_SETS = 8192


def _label_key(labels: t.Mapping[str, object]) -> LabelKey:
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


class Metric:
    """Base class: a named family of labelled samples."""

    kind = "untyped"

    __slots__ = ("name", "help", "enabled", "samples", "max_label_sets",
                 "dropped_label_sets", "_cardinality_warned")

    def __init__(self, name: str, help: str = "", enabled: bool = True,
                 max_label_sets: int = DEFAULT_MAX_LABEL_SETS) -> None:
        if not _NAME_RE.match(name):
            raise ReproError(f"invalid metric name {name!r}")
        require_count(f"metric {name!r} max_label_sets", max_label_sets, 1,
                      ReproError)
        self.name = name
        self.help = help
        #: Toggled by the owning registry; every record method checks
        #: this exactly once before doing any work.
        self.enabled = enabled
        self.samples: dict[LabelKey, t.Any] = {}
        #: Cardinality guard: new label sets beyond this bound are
        #: dropped (existing sets keep recording) with a single warning.
        self.max_label_sets = max_label_sets
        #: New label sets refused by the guard so far.
        self.dropped_label_sets = 0
        self._cardinality_warned = False

    def _admit(self, key: LabelKey) -> bool:
        """May a *new* label set join this family?  (Guard, warn-once.)"""
        if len(self.samples) < self.max_label_sets:
            return True
        self.dropped_label_sets += 1
        if not self._cardinality_warned:
            self._cardinality_warned = True
            logger.warning(
                "metric %s hit its label-set bound (%d); new label sets "
                "are dropped from here on (first dropped: %r)",
                self.name, self.max_label_sets, dict(key))
        return False

    def labelled(self) -> t.Iterator[tuple[dict[str, str], t.Any]]:
        """Iterate ``(labels, value)`` pairs in first-recorded order."""
        for key, value in self.samples.items():
            yield dict(key), value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} ({len(self.samples)})>"


class Counter(Metric):
    """A monotonically increasing sum per label set."""

    kind = "counter"
    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self.enabled:
            return
        if amount < 0:
            raise ReproError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        current = self.samples.get(key)
        if current is None:
            if not self._admit(key):
                return
            current = 0.0
        self.samples[key] = current + amount

    def value(self, **labels: object) -> float:
        return float(self.samples.get(_label_key(labels), 0.0))


class Gauge(Metric):
    """A value that can move both ways per label set."""

    kind = "gauge"
    __slots__ = ()

    def set(self, value: float, **labels: object) -> None:
        if not self.enabled:
            return
        key = _label_key(labels)
        if key not in self.samples and not self._admit(key):
            return
        self.samples[key] = float(value)

    def add(self, amount: float, **labels: object) -> None:
        if not self.enabled:
            return
        key = _label_key(labels)
        current = self.samples.get(key)
        if current is None:
            if not self._admit(key):
                return
            current = 0.0
        self.samples[key] = current + amount

    def value(self, **labels: object) -> float:
        return float(self.samples.get(_label_key(labels), 0.0))


@dataclasses.dataclass
class HistogramState:
    """Cumulative distribution of one label set's observations."""

    bucket_counts: list[int]
    count: int = 0
    sum: float = 0.0


class Histogram(Metric):
    """Bucketed distribution (Prometheus-style cumulative buckets)."""

    kind = "histogram"
    __slots__ = ("buckets",)

    def __init__(self, name: str, help: str = "", enabled: bool = True,
                 buckets: t.Sequence[float] = DEFAULT_BUCKETS,
                 max_label_sets: int = DEFAULT_MAX_LABEL_SETS) -> None:
        super().__init__(name, help, enabled, max_label_sets=max_label_sets)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ReproError(f"histogram {name} needs at least one bucket")
        self.buckets = bounds

    def observe(self, value: float, **labels: object) -> None:
        if not self.enabled:
            return
        key = _label_key(labels)
        state = self.samples.get(key)
        if state is None:
            if not self._admit(key):
                return
            state = HistogramState([0] * len(self.buckets))
            self.samples[key] = state
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                state.bucket_counts[index] += 1
                break
        state.count += 1
        state.sum += value

    def state(self, **labels: object) -> HistogramState | None:
        return self.samples.get(_label_key(labels))

    def quantile(self, q: float, **labels: object) -> float | None:
        """Estimate the ``q``-quantile for one label set from bucket state.

        Linear interpolation inside the containing bucket (Prometheus
        ``histogram_quantile`` semantics); observations above the last
        finite bound clamp to it.  Deterministic: reads only the stored
        integer bucket counts.  Returns ``None`` when the label set has
        no observations.
        """
        if require_real(f"histogram {self.name}: quantile", q, ReproError) > 1:
            raise ReproError(
                f"histogram {self.name}: quantile {q} outside [0, 1]")
        state = self.samples.get(_label_key(labels))
        if state is None or state.count == 0:
            return None
        target = q * state.count
        cumulative = 0
        previous = 0.0
        for bound, count in zip(self.buckets, state.bucket_counts):
            if count and cumulative + count >= target:
                fraction = (target - cumulative) / count
                return previous + (bound - previous) * max(0.0, fraction)
            cumulative += count
            previous = bound
        # Overflow observations (> last bound) clamp to the last bound.
        return self.buckets[-1]


class MetricsRegistry:
    """Holds every metric of one run, in registration order.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call registers the family, later calls return the same handle (and
    reject a kind mismatch).  Disabling the registry flips every
    handle's ``enabled`` flag, so already-distributed handles go quiet
    without their holders re-checking anything but their own single
    branch.
    """

    def __init__(self, enabled: bool = True,
                 max_label_sets: int = DEFAULT_MAX_LABEL_SETS) -> None:
        self._metrics: dict[str, Metric] = {}
        self._enabled = bool(enabled)
        self._max_label_sets = max_label_sets

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def dropped_label_sets(self) -> int:
        """Total label sets refused by cardinality guards, all families."""
        return sum(m.dropped_label_sets for m in self._metrics.values())


    # -- family registration -------------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        return t.cast(Counter, self._get_or_create(Counter, name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return t.cast(Gauge, self._get_or_create(Gauge, name, help))

    def histogram(self, name: str, help: str = "",
                  buckets: t.Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        existing = self._metrics.get(name)
        if existing is None:
            metric = Histogram(name, help, enabled=self._enabled,
                               buckets=buckets,
                               max_label_sets=self._max_label_sets)
            self._metrics[name] = metric
            return metric
        if not isinstance(existing, Histogram):
            raise ReproError(
                f"metric {name!r} already registered as {existing.kind}"
            )
        return existing

    def _get_or_create(self, cls: type, name: str, help: str) -> Metric:
        existing = self._metrics.get(name)
        if existing is None:
            metric = t.cast(Metric, cls(
                name, help, enabled=self._enabled,
                max_label_sets=self._max_label_sets))
            self._metrics[name] = metric
            return metric
        if type(existing) is not cls:
            raise ReproError(
                f"metric {name!r} already registered as {existing.kind}"
            )
        return existing

    # -- inspection ----------------------------------------------------------

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def collect(self) -> t.Iterator[Metric]:
        """Iterate every registered metric in registration order."""
        yield from self._metrics.values()

    def __len__(self) -> int:
        return len(self._metrics)
