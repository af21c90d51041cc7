"""Placement scheduling with conservative admission control.

The scheduler answers one question per attempt: *can this job start
right now without destabilizing the tenants already running?*  The
check is deliberately conservative — free node slots AND a worst-case
core-bandwidth budget — because the cost of a wrong "yes" (every
tenant's SLO degrades) dwarfs the cost of a wrong "no" (one job waits
one backoff interval).

A job that does not fit queues with capped exponential backoff; the
runtime converts exhaustion of the admission deadline into the typed
:class:`~repro.errors.AdmissionRejected`.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import ClusterError, require_count

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.fabric import SharedFabric
    from repro.cluster.jobs import JobSpec

#: First retry delay after a failed admission attempt (seconds).
BACKOFF_BASE_S = 0.25
#: Ceiling on the exponential backoff (seconds).
BACKOFF_CAP_S = 4.0


def backoff_delay_s(attempt: int) -> float:
    """Capped exponential backoff: 0.25, 0.5, 1, 2, 4, 4, ... seconds."""
    attempt = require_count("attempt", attempt, 0, ClusterError)
    return min(BACKOFF_BASE_S * (2.0 ** attempt), BACKOFF_CAP_S)


@dataclasses.dataclass(frozen=True)
class Placement:
    """Granted node slots for one admitted job."""

    job_id: str
    nodes: tuple[int, ...]
    #: Conservative core-bandwidth demand reserved for the job (bps).
    core_demand_bps: float


class PlacementScheduler:
    """Slot + bandwidth admission over one shared fabric."""

    def __init__(self, fabric: "SharedFabric") -> None:
        self.fabric = fabric
        #: Free node indices, ascending — placement is deterministic.
        self._free = list(range(fabric.num_nodes))
        self._placements: dict[str, Placement] = {}


    def core_demand_bps(self, spec: "JobSpec", streams: int) -> float:
        """Worst-case spine demand of one job's ring traffic.

        Every member pushes one hop through the core at up to the
        per-stream cap times its stream count, bounded by its NIC — the
        peak the job could ever present, not its average.
        """
        per_member = min(self.fabric.nic_bps,
                         streams * self.fabric.stream_cap_bps)
        return spec.num_nodes * per_member

    def reserved_core_bps(self) -> float:
        """Core bandwidth already promised to admitted tenants."""
        return sum(p.core_demand_bps for p in self._placements.values())

    def try_admit(self, spec: "JobSpec",
                  streams: int) -> tuple[Placement | None, str]:
        """One admission attempt: a placement, or ``(None, reason)``."""
        if spec.job_id in self._placements:
            raise ClusterError(f"job {spec.job_id!r} is already placed")
        if spec.num_nodes > self.fabric.num_nodes:
            return None, (f"needs {spec.num_nodes} nodes but the fabric "
                          f"only has {self.fabric.num_nodes}")
        if spec.num_nodes > len(self._free):
            return None, (f"needs {spec.num_nodes} free nodes, "
                          f"{len(self._free)} available")
        demand = self.core_demand_bps(spec, streams)
        reserved = self.reserved_core_bps()
        if reserved + demand > self.fabric.core_bps:
            return None, (
                f"core budget exhausted: {reserved / 1e9:.2f} Gbps "
                f"reserved + {demand / 1e9:.2f} Gbps demanded exceeds "
                f"{self.fabric.core_bps / 1e9:.2f} Gbps")
        nodes = tuple(self._free[:spec.num_nodes])
        del self._free[:spec.num_nodes]
        placement = Placement(job_id=spec.job_id, nodes=nodes,
                              core_demand_bps=demand)
        self._placements[spec.job_id] = placement
        return placement, "admitted"

    def release(self, job_id: str) -> None:
        """Return a job's nodes to the free pool (preempt/complete)."""
        placement = self._placements.pop(job_id, None)
        if placement is None:
            raise ClusterError(f"job {job_id!r} holds no placement")
        self._free = sorted(self._free + list(placement.nodes))

    def shrink_reservation(self, job_id: str, streams: int,
                           spec: "JobSpec") -> None:
        """Re-price a degraded job's core reservation at fewer streams."""
        placement = self._placements.get(job_id)
        if placement is None:
            raise ClusterError(f"job {job_id!r} holds no placement")
        self._placements[job_id] = dataclasses.replace(
            placement, core_demand_bps=self.core_demand_bps(spec, streams))
