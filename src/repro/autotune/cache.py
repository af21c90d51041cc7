"""Best-setting cache keyed by deployment similarity (paper §VI).

"When used in a GPU cloud, AIACC-Training also stores the
previously-found best parameter setting for a given DNN computation
graph, cloud instance and network topology.  It then uses this setting as
a starting point for a similar cloud instance deployment to boost the
search."
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import pathlib
import typing as t

from repro.errors import AutotuneError, require_count
from repro.autotune.graph_distance import (
    ModelFingerprint,
    TopologyRecord,
    deployment_distance,
)
from repro.autotune.space import ParameterPoint
from repro.ioutil import atomic_write_text
from repro.models.base import ModelSpec

logger = logging.getLogger(__name__)


@dataclasses.dataclass(frozen=True)
class CacheEntry:
    """One remembered deployment and its tuned parameters."""

    label: str
    model: ModelFingerprint
    topology: TopologyRecord
    best_point: ParameterPoint
    best_cost_s: float


class SettingsCache:
    """Nearest-deployment lookup of previously tuned parameters."""

    def __init__(self, max_entries: int = 256) -> None:
        self.max_entries = require_count("max_entries", max_entries, 1,
                                         AutotuneError)
        self._entries: list[CacheEntry] = []
        #: Corrupt persisted entries :meth:`load` skipped, as
        #: ``(entry_payload, reason)`` pairs — quarantined, not fatal.
        self.quarantined: list[tuple[object, str]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def store(self, label: str, model: ModelSpec | ModelFingerprint,
              topology: TopologyRecord, best_point: ParameterPoint,
              best_cost_s: float) -> None:
        """Remember a tuned deployment (oldest evicted beyond capacity)."""
        self._entries.append(CacheEntry(
            label=label, model=ModelFingerprint.of(model),
            topology=topology,
            best_point=best_point, best_cost_s=best_cost_s))
        if len(self._entries) > self.max_entries:
            self._entries.pop(0)

    def lookup(self, model: ModelSpec | ModelFingerprint,
               topology: TopologyRecord,
               max_distance: float | None = None
               ) -> tuple[CacheEntry, float] | None:
        """Most similar remembered deployment (entry, distance), or None.

        ``max_distance`` rejects matches that are too far away to be a
        useful warm start.
        """
        query = ModelFingerprint.of(model)
        best: CacheEntry | None = None
        best_distance = float("inf")
        for entry in self._entries:
            distance = deployment_distance(
                query, topology, entry.model, entry.topology)
            if distance < best_distance:
                best, best_distance = entry, distance
        if best is None:
            return None
        if max_distance is not None and best_distance > max_distance:
            return None
        return best, best_distance

    def starting_point(self, model: ModelSpec | ModelFingerprint,
                       topology: TopologyRecord,
                       max_distance: float | None = None
                       ) -> ParameterPoint | None:
        """The warm-start point for a new deployment, if any."""
        found = self.lookup(model, topology, max_distance=max_distance)
        return found[0].best_point if found else None

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | pathlib.Path) -> None:
        """Persist the cache as JSON (the production library stores tuned
        settings per cloud deployment so repeated jobs warm-start)."""
        payload = []
        for entry in self._entries:
            payload.append({
                "label": entry.label,
                "model": _fingerprint_payload(entry.model),
                "topology": entry.topology.node_link_data(),
                "best_point": {
                    "num_streams": entry.best_point.num_streams,
                    "granularity_bytes": entry.best_point.granularity_bytes,
                    "algorithm": entry.best_point.algorithm,
                },
                "best_cost_s": entry.best_cost_s,
            })
        # Atomic: a tuner killed mid-save must leave either the previous
        # cache or the new one, never a truncated JSON file.
        atomic_write_text(path, json.dumps(payload, indent=2))

    @classmethod
    def load(cls, path: str | pathlib.Path,
             max_entries: int = 256) -> "SettingsCache":
        """Restore a cache written by :meth:`save`.

        Models are restored as the :class:`ModelFingerprint` they were
        saved as: exactly the layer-size structure the similarity metric
        uses.  Topologies are parsed by networkx's node-link reader and
        kept as the :class:`TopologyRecord` of the graph it builds.

        A corrupt *entry* (missing keys, wrong types, an unparsable
        topology) is quarantined into :attr:`quarantined` and logged
        instead of poisoning the whole cache: losing one remembered
        deployment costs a warm start, losing the cache on every load
        costs the tuner its memory entirely.  An entry whose values no
        tuner could have stored (a negative or non-finite cost, fewer than
        one stream, a non-positive granularity) is quarantined the same
        way, as is a model fingerprint no :class:`ModelSpec` could have
        (a non-string name, a size that is not a whole number >= 0, a
        negative or non-finite FLOP count, size and FLOP lists of
        different lengths).  An unreadable or non-JSON *file* —
        including one nested too deeply to decode — still raises
        :class:`AutotuneError`.
        """
        try:
            payload = json.loads(pathlib.Path(path).read_text())
        except (OSError, ValueError, RecursionError) as exc:
            raise AutotuneError(f"cannot load settings cache: {exc}") \
                from exc
        if not isinstance(payload, list):
            raise AutotuneError(
                f"settings cache {path} is not a list of entries")
        import networkx as nx

        cache = cls(max_entries=max_entries)
        for item in payload:
            try:
                cache.store(
                    label=item["label"],
                    model=_fingerprint_from_payload(item["model"]),
                    topology=TopologyRecord.of_graph(nx.node_link_graph(
                        item["topology"], edges="links")),
                    best_point=_point_from_payload(item["best_point"]),
                    best_cost_s=_cost_from_payload(item["best_cost_s"]),
                )
            except Exception as exc:  # corrupt entry: quarantine it
                cache.quarantined.append((item, str(exc)))
                logger.warning(
                    "settings cache %s: quarantined corrupt entry "
                    "(%s): %r", path, exc, item)
        return cache


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _point_from_payload(data: dict) -> ParameterPoint:
    """A persisted :class:`ParameterPoint`, or ``ValueError`` if invalid."""
    point = ParameterPoint(**data)
    streams, granularity = point.num_streams, point.granularity_bytes
    if isinstance(streams, bool) or not isinstance(streams, int) \
            or streams < 1:
        raise ValueError(f"num_streams must be an integer >= 1, "
                         f"got {streams!r}")
    if not _is_number(granularity) or not math.isfinite(granularity) \
            or granularity <= 0:
        raise ValueError(f"granularity_bytes must be positive and finite, "
                         f"got {granularity!r}")
    if not isinstance(point.algorithm, str):
        raise ValueError(f"algorithm must be a string, "
                         f"got {point.algorithm!r}")
    return point


def _cost_from_payload(value: t.Any) -> float:
    """A persisted best cost, or ``ValueError`` unless finite and >= 0."""
    if not _is_number(value):
        raise ValueError(f"best_cost_s must be a number, got {value!r}")
    cost = float(value)
    if not math.isfinite(cost) or cost < 0:
        raise ValueError(f"best_cost_s must be finite and >= 0, "
                         f"got {cost!r}")
    return cost


def _fingerprint_payload(model: ModelFingerprint) -> dict:
    """The JSON form of a fingerprint, as :meth:`SettingsCache.save`
    writes it."""
    return {
        "name": model.name,
        "layer_sizes": list(model.layer_sizes),
        "layer_flops": list(model.layer_flops),
        "compute_occupancy": model.compute_occupancy,
    }


def _fingerprint_from_payload(data: dict) -> ModelFingerprint:
    """A persisted :class:`ModelFingerprint`, or ``ValueError`` if no
    :class:`ModelSpec` could have produced it."""
    name, sizes, flops = data["name"], data["layer_sizes"], \
        data["layer_flops"]
    occupancy = data["compute_occupancy"]
    if not isinstance(name, str):
        raise ValueError(f"model name must be a string, got {name!r}")
    if not isinstance(sizes, list) or not isinstance(flops, list) \
            or not sizes or len(sizes) != len(flops):
        raise ValueError(f"layer_sizes and layer_flops must be non-empty "
                         f"lists of one length, got {sizes!r} and "
                         f"{flops!r}")
    for size in sizes:
        if isinstance(size, bool) or not isinstance(size, int) or size < 0:
            raise ValueError(f"layer sizes must be integers >= 0, "
                             f"got {size!r}")
    for value in flops:
        if not _is_number(value) or not math.isfinite(value) or value < 0:
            raise ValueError(f"layer FLOPs must be finite and >= 0, "
                             f"got {value!r}")
    if not _is_number(occupancy) or not 0 < occupancy <= 1:
        raise ValueError(f"compute_occupancy must be in (0, 1], "
                         f"got {occupancy!r}")
    return ModelFingerprint(name=name, layer_sizes=tuple(sizes),
                            layer_flops=tuple(map(float, flops)),
                            compute_occupancy=occupancy)
