"""Topology-aware collective planner and in-network aggregation model.

The repo's first two all-reduce shapes (flat ring, hierarchical) are
hard-coded schedules that ignore the actual simulated topology.  This
module closes that gap along the lines of Blink (PAPERS.md): it takes
the concrete :class:`~repro.sim.topology.Cluster` — NVLink fabrics,
per-node NIC caps, an optionally oversubscribed spine — and *synthesizes*
an executable schedule per algorithm:

``halving-doubling``
    Recursive-halving reduce-scatter + recursive-doubling all-gather
    across nodes (power-of-two node counts).  Bandwidth-optimal like the
    ring but with ``2 log2(m)`` latency rounds instead of ``2 (m - 1)``.

``multi-tree``
    Blink-style packed reduction trees: chunk ``c``'s tree is a
    two-level star rooted at node ``c``; all ``m`` trees run
    concurrently, so both phases (reduce-to-roots, broadcast-from-roots)
    saturate every NIC at once and the whole collective needs only two
    inter-node rounds.

``ina``
    In-network aggregation (the FPGA SmartNIC model of PAPERS.md): each
    node ships its locally reduced gradient *once* to an aggregation
    point inside the fabric, which reduces at line rate and multicasts
    the result back.  Per-NIC volume drops from ``~2 S`` to ``S`` per
    direction, and the oversubscribed spine carries one multicast trunk
    copy instead of per-destination unicasts — the backend that wins
    when the spine, not the NIC, is the bottleneck.

Every schedule has two faces, mirroring the rest of
:mod:`repro.collectives`:

* a **timing face** — :class:`CollectiveSchedule` is a list of
  :class:`SchedulePhase` objects whose flows the timed executor places
  on the fluid network (:meth:`repro.collectives.timed.TimedCollectives.
  allreduce` dispatches planner algorithms here);
* a **numeric face** — :func:`planned_numeric_allreduce` executes the
  same data movement with real numpy arrays so property tests can prove
  each synthesized schedule reduces to bit-exactly the numeric ring's
  values (``tests/collectives/test_planner.py``).

Timing is differential-tested against the closed forms in
:mod:`repro.collectives.cost_model`
(``tests/collectives/test_differential_cost.py``).
"""

from __future__ import annotations

import dataclasses
import math
import typing as t

import numpy as np

from repro.errors import CollectiveError, require_real
from repro.collectives.cost_model import (
    INA_SWITCH_LATENCY_S,
    PHASE_SYNC_S,
    ring_volume_bytes,
)
from repro.collectives.primitives import (
    ReduceOp,
    apply_op,
    chunk_bounds,
    finalize_op,
)
from repro.collectives.runner import run_collective
from repro.sim.kernel import Simulator
from repro.sim.mpi import Communicator
from repro.sim.network import Link
from repro.sim.topology import Cluster

#: Algorithms the planner can synthesize (beyond the legacy ring /
#: hierarchical schedules hard-coded in ``timed.py``).  The macro-phase
#: sync and aggregator latency constants (``PHASE_SYNC_S``,
#: ``INA_SWITCH_LATENCY_S``) are shared with
#: :mod:`repro.collectives.cost_model` so the closed forms and the
#: synthesized schedules charge identical constants.
PLANNER_ALGORITHMS = ("halving-doubling", "multi-tree", "ina")

_TAG_HD = 13 << 20
_TAG_MT = 14 << 20


@dataclasses.dataclass(frozen=True)
class FlowSpec:
    """One transport-stream bundle inside a schedule phase.

    ``weight`` bundles that many identical streams (the fluid network
    gives the bundle ``weight`` fair shares and applies ``rate_cap_bps``
    per stream); ``size_bytes`` is the bundle total.
    """

    links: tuple[Link, ...]
    size_bytes: float
    rate_cap_bps: float | None
    weight: int = 1

    def as_request(self) -> tuple[tuple[Link, ...], float, float | None,
                                  int]:
        return (self.links, self.size_bytes, self.rate_cap_bps,
                self.weight)


@dataclasses.dataclass(frozen=True)
class SchedulePhase:
    """Concurrent flows plus the latency charged after they drain.

    ``latency_s`` bundles the phase's per-hop latency, exposed
    per-message software overhead, and (at macro boundaries) the
    device-wide phase sync.
    """

    name: str
    flows: tuple[FlowSpec, ...]
    latency_s: float = 0.0


@dataclasses.dataclass(frozen=True)
class CollectiveSchedule:
    """An executable, topology-derived collective schedule."""

    algorithm: str
    size_bytes: float
    phases: tuple[SchedulePhase, ...]


class CollectivePlanner:
    """Synthesizes collective schedules for one concrete cluster.

    Parameters
    ----------
    cluster:
        The simulated topology the schedules will run on.
    ina_agg_bps:
        Aggregate reduction throughput of the in-network aggregator.
        Defaults to line rate on every port (``num_nodes x`` effective
        NIC capacity) — a non-blocking FPGA aggregator; pass a lower
        value to model a constrained switch pipeline.
    """

    def __init__(self, cluster: Cluster,
                 ina_agg_bps: float | None = None) -> None:
        self.cluster = cluster
        spec = cluster.spec
        line_rate = spec.transport.effective_capacity_bps(
            spec.nic_bandwidth_bps)
        if ina_agg_bps is None:
            ina_agg_bps = cluster.num_nodes * line_rate
        self.ina_agg_bps = require_real("ina_agg_bps", ina_agg_bps,
                                        CollectiveError, positive=True)
        #: The aggregation point inside the fabric.  A free-standing
        #: link: every up-phase flow traverses it, so a constrained
        #: aggregator pipeline becomes a real shared bottleneck in the
        #: fluid model rather than a bolted-on delay.
        self._ina_link: Link | None = None

    # -- public API -------------------------------------------------------

    def plan(self, algorithm: str, size_bytes: float,
             cap_scale: float = 1.0) -> CollectiveSchedule:
        """Synthesize the schedule for one all-reduce.

        Raises :class:`~repro.errors.CollectiveError` for unknown
        algorithms, negative or non-finite sizes, and shapes the
        algorithm cannot run on (e.g. halving-doubling on a
        non-power-of-two node count).
        """
        if algorithm not in PLANNER_ALGORITHMS:
            raise CollectiveError(
                f"unknown planner algorithm {algorithm!r}; "
                f"expected one of {PLANNER_ALGORITHMS}"
            )
        if not 0 <= size_bytes < math.inf:
            raise CollectiveError(
                f"size_bytes must be finite and non-negative, got "
                f"{size_bytes!r}")
        if not 0 < cap_scale <= 1:
            raise CollectiveError("cap_scale must be in (0, 1]")
        if size_bytes == 0 or self.cluster.world_size == 1:
            return CollectiveSchedule(algorithm, size_bytes, ())
        if self.cluster.num_nodes == 1:
            return CollectiveSchedule(
                algorithm, size_bytes,
                (self._single_node_ring(size_bytes),))
        if algorithm == "halving-doubling":
            phases = self._halving_doubling(size_bytes, cap_scale)
        elif algorithm == "multi-tree":
            phases = self._multi_tree(size_bytes, cap_scale)
        else:
            phases = self._ina(size_bytes, cap_scale)
        return CollectiveSchedule(algorithm, size_bytes, tuple(phases))

    # -- shared building blocks ----------------------------------------------

    def _cap(self, node: int, cap_scale: float) -> float:
        return self.cluster.stream_cap_bps(node) * cap_scale

    def _hop(self, src: int, dst: int) -> tuple[Link, ...]:
        """NIC links crossed by one inter-node transfer."""
        cluster = self.cluster
        links: list[Link] = [cluster.nic_out[src]]
        if cluster.core is not None:
            links.append(cluster.core)
        links.append(cluster.nic_in[dst])
        return tuple(links)

    def _uplink(self, src: int) -> tuple[Link, ...]:
        """Links from a node up to the in-network aggregation point."""
        cluster = self.cluster
        links: list[Link] = [cluster.nic_out[src]]
        if cluster.core is not None:
            links.append(cluster.core)
        links.append(self._ina_port())
        return tuple(links)

    def _ina_port(self) -> Link:
        if self._ina_link is None:
            self._ina_link = Link("ina.agg", self.ina_agg_bps)
        return self._ina_link

    def _exposed_s(self, per_stream_bytes: float, cap_bps: float) -> float:
        """Per-message software overhead not hidden behind the wire time."""
        overhead = self.cluster.spec.transport.per_message_overhead_s
        return max(0.0, overhead - per_stream_bytes * 8.0 / cap_bps)

    def _min_cap(self, cap_scale: float) -> float:
        """Per-stream cap of the slowest NIC (heterogeneous clusters)."""
        return min(self._cap(node, cap_scale)
                   for node in range(self.cluster.num_nodes))

    def _single_node_ring(self, size_bytes: float) -> SchedulePhase:
        cluster = self.cluster
        n = cluster.world_size
        hop_bytes = ring_volume_bytes(size_bytes, n)
        alpha = 2 * (n - 1) * cluster.spec.intra_node_latency_s
        return SchedulePhase(
            "nvlink-ring",
            (FlowSpec((cluster.nvlink[0],), hop_bytes, None),),
            latency_s=alpha)

    def _intra_phase(self, name: str, size_bytes: float,
                     sync_after: bool) -> SchedulePhase | None:
        """Intra-node reduce-scatter or all-gather over every fabric."""
        cluster = self.cluster
        g = cluster.spec.gpus_per_node
        if g == 1:
            return None
        phase_bytes = size_bytes * (g - 1) / g
        flows = tuple(FlowSpec((fabric,), phase_bytes, None)
                      for fabric in cluster.nvlink)
        latency = (g - 1) * cluster.spec.intra_node_latency_s
        if sync_after:
            latency += PHASE_SYNC_S
        return SchedulePhase(name, flows, latency_s=latency)

    # -- algorithms ---------------------------------------------------------

    def _halving_doubling(self, size_bytes: float,
                          cap_scale: float) -> list[SchedulePhase]:
        """Recursive halving/doubling across nodes on per-rank shards."""
        cluster = self.cluster
        m = cluster.num_nodes
        if not _is_power_of_two(m):
            raise CollectiveError(
                f"halving-doubling requires a power-of-two node count, "
                f"got {m} nodes"
            )
        g = cluster.spec.gpus_per_node
        spec = cluster.spec
        shard = size_bytes / g  # per-local-rank inter-node payload
        phases: list[SchedulePhase] = []
        intra_rs = self._intra_phase("intra-rs", size_bytes,
                                     sync_after=True)
        if intra_rs is not None:
            phases.append(intra_rs)

        rounds = m.bit_length() - 1
        min_cap = self._min_cap(cap_scale)

        def exchange(name: str, round_idx: int,
                     per_stream_bytes: float) -> SchedulePhase:
            stride = 1 << round_idx
            flows = []
            for node in range(m):
                partner = node ^ stride
                flows.append(FlowSpec(
                    self._hop(node, partner), per_stream_bytes * g,
                    self._cap(node, cap_scale), weight=g))
            latency = spec.inter_node_latency_s + \
                self._exposed_s(per_stream_bytes, min_cap)
            return SchedulePhase(name, tuple(flows), latency_s=latency)

        # Recursive-halving reduce-scatter: round k exchanges the half
        # of the currently owned range, so per-stream bytes halve each
        # round: S/g / 2, S/g / 4, ...
        for k in range(rounds):
            phases.append(exchange(f"rs-round{k}", k,
                                   shard / (1 << (k + 1))))
        # Recursive-doubling all-gather mirrors the sizes in reverse.
        for k in reversed(range(rounds)):
            phases.append(exchange(f"ag-round{k}", k,
                                   shard / (1 << (k + 1))))

        intra_ag = self._intra_phase("intra-ag", size_bytes,
                                     sync_after=False)
        if intra_ag is not None:
            phases[-1] = dataclasses.replace(
                phases[-1], latency_s=phases[-1].latency_s + PHASE_SYNC_S)
            phases.append(intra_ag)
        return phases

    def _multi_tree(self, size_bytes: float,
                    cap_scale: float) -> list[SchedulePhase]:
        """Packed star trees: chunk ``c`` reduces at (and re-broadcasts
        from) node ``c``; all ``m`` trees run concurrently."""
        cluster = self.cluster
        m = cluster.num_nodes
        g = cluster.spec.gpus_per_node
        spec = cluster.spec
        shard = size_bytes / g
        chunk = shard / m  # per-stream payload of one (node, root) edge
        phases: list[SchedulePhase] = []
        intra_rs = self._intra_phase("intra-rs", size_bytes,
                                     sync_after=True)
        if intra_rs is not None:
            phases.append(intra_rs)

        min_cap = self._min_cap(cap_scale)

        def star(name: str, toward_roots: bool) -> SchedulePhase:
            flows = []
            for node in range(m):
                for root in range(m):
                    if root == node:
                        continue
                    src, dst = (node, root) if toward_roots \
                        else (root, node)
                    flows.append(FlowSpec(
                        self._hop(src, dst), chunk * g,
                        self._cap(src, cap_scale), weight=g))
            latency = spec.inter_node_latency_s + \
                self._exposed_s(chunk, min_cap)
            return SchedulePhase(name, tuple(flows), latency_s=latency)

        phases.append(star("tree-reduce", toward_roots=True))
        last = star("tree-broadcast", toward_roots=False)
        intra_ag = self._intra_phase("intra-ag", size_bytes,
                                     sync_after=False)
        if intra_ag is not None:
            last = dataclasses.replace(
                last, latency_s=last.latency_s + PHASE_SYNC_S)
        phases.append(last)
        if intra_ag is not None:
            phases.append(intra_ag)
        return phases

    def _ina(self, size_bytes: float,
             cap_scale: float) -> list[SchedulePhase]:
        """In-network aggregation: one uplink copy, one multicast copy."""
        cluster = self.cluster
        m = cluster.num_nodes
        g = cluster.spec.gpus_per_node
        spec = cluster.spec
        phases: list[SchedulePhase] = []
        intra_rs = self._intra_phase("intra-rs", size_bytes,
                                     sync_after=True)
        if intra_rs is not None:
            phases.append(intra_rs)

        min_cap = self._min_cap(cap_scale)
        per_stream = size_bytes / g
        up = tuple(FlowSpec(self._uplink(node), size_bytes,
                            self._cap(node, cap_scale), weight=g)
                   for node in range(m))
        phases.append(SchedulePhase(
            "ina-up", up,
            latency_s=spec.inter_node_latency_s
            + self._exposed_s(per_stream, min_cap)
            + INA_SWITCH_LATENCY_S))

        # Multicast down: the aggregated result crosses the spine once
        # (replication happens at the switch egress), then fans out over
        # every node's NIC-in concurrently.
        down: list[FlowSpec] = []
        if cluster.core is not None:
            down.append(FlowSpec((cluster.core,), size_bytes, None))
        down.extend(FlowSpec((cluster.nic_in[node],), size_bytes,
                             self._cap(node, cap_scale), weight=g)
                    for node in range(m))
        latency = spec.inter_node_latency_s + \
            self._exposed_s(per_stream, min_cap)
        intra_ag = self._intra_phase("intra-ag", size_bytes,
                                     sync_after=False)
        if intra_ag is not None:
            latency += PHASE_SYNC_S
        phases.append(SchedulePhase("ina-down", tuple(down),
                                    latency_s=latency))
        if intra_ag is not None:
            phases.append(intra_ag)
        return phases


def _is_power_of_two(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


# --------------------------------------------------------------------------
# Numeric face
# --------------------------------------------------------------------------

def halving_doubling_allreduce_worker(
    sim: Simulator,
    comm: Communicator,
    rank: int,
    data: np.ndarray,
    op: ReduceOp = ReduceOp.SUM,
) -> t.Generator:
    """Recursive halving/doubling all-reduce over the simulated MPI layer.

    Requires a power-of-two world size.  Step ``k`` of the
    reduce-scatter pairs rank ``r`` with ``r ^ 2^k`` and exchanges the
    half of the currently owned index range the partner is responsible
    for; the all-gather mirrors the exchanges in reverse.
    """
    n = comm.size
    if data.ndim != 1:
        raise CollectiveError("halving-doubling expects a flat array")
    if n == 1:
        return finalize_op(op, data.copy(), 1)
        yield  # pragma: no cover - makes this a generator
    if not _is_power_of_two(n):
        raise CollectiveError(
            f"halving-doubling requires a power-of-two world size, got {n}"
        )
    work = data.copy()
    bounds = chunk_bounds(len(work), n)
    itemsize = work.itemsize

    def span(lo_chunk: int, hi_chunk: int) -> tuple[int, int]:
        """Element range covered by chunks [lo_chunk, hi_chunk)."""
        return bounds[lo_chunk][0], bounds[hi_chunk - 1][1]

    # Reduce-scatter: the owned chunk range narrows by half per round.
    own_lo, own_hi = 0, n
    rounds = n.bit_length() - 1
    for k in range(rounds):
        stride = 1 << k
        partner = rank ^ stride
        mid = (own_lo + own_hi) // 2
        if rank & stride:
            send_chunks, keep = (own_lo, mid), (mid, own_hi)
        else:
            send_chunks, keep = (mid, own_hi), (own_lo, mid)
        lo, hi = span(*send_chunks)
        comm.send(rank, partner, work[lo:hi].copy(),
                  nbytes=(hi - lo) * itemsize, tag=_TAG_HD + k)
        incoming = yield comm.recv(rank, partner, tag=_TAG_HD + k)
        lo, hi = span(*keep)
        work[lo:hi] = apply_op(op, work[lo:hi], incoming)
        own_lo, own_hi = keep

    # All-gather: mirror the exchanges, widening the owned range.
    for k in reversed(range(rounds)):
        stride = 1 << k
        partner = rank ^ stride
        lo, hi = span(own_lo, own_hi)
        comm.send(rank, partner, work[lo:hi].copy(),
                  nbytes=(hi - lo) * itemsize, tag=_TAG_HD + rounds + k)
        incoming = yield comm.recv(rank, partner,
                                   tag=_TAG_HD + rounds + k)
        if rank & stride:
            other = (own_lo - (own_hi - own_lo), own_lo)
        else:
            other = (own_hi, own_hi + (own_hi - own_lo))
        lo, hi = span(*other)
        work[lo:hi] = incoming
        own_lo, own_hi = min(own_lo, other[0]), max(own_hi, other[1])

    return finalize_op(op, work, n)


def multi_tree_allreduce_worker(
    sim: Simulator,
    comm: Communicator,
    rank: int,
    data: np.ndarray,
    op: ReduceOp = ReduceOp.SUM,
) -> t.Generator:
    """Packed star trees: chunk ``c`` reduces at rank ``c``, then
    re-broadcasts.  Contributions are applied in ascending sender order
    so the association order is rank-deterministic."""
    n = comm.size
    if data.ndim != 1:
        raise CollectiveError("multi-tree expects a flat array")
    if n == 1:
        return finalize_op(op, data.copy(), 1)
        yield  # pragma: no cover - makes this a generator
    work = data.copy()
    bounds = chunk_bounds(len(work), n)
    itemsize = work.itemsize

    # Phase 1: every rank sends chunk c to its root c.
    for root in range(n):
        if root == rank:
            continue
        lo, hi = bounds[root]
        if hi > lo:
            comm.send(rank, root, work[lo:hi].copy(),
                      nbytes=(hi - lo) * itemsize, tag=_TAG_MT + rank)
    lo, hi = bounds[rank]
    if hi > lo:
        for sender in range(n):
            if sender == rank:
                continue
            incoming = yield comm.recv(rank, sender, tag=_TAG_MT + sender)
            work[lo:hi] = apply_op(op, work[lo:hi], incoming)

    # Phase 2: each root broadcasts its reduced chunk.
    if hi > lo:
        for target in range(n):
            if target == rank:
                continue
            comm.send(rank, target, work[lo:hi].copy(),
                      nbytes=(hi - lo) * itemsize, tag=_TAG_MT + n + rank)
    for root in range(n):
        if root == rank:
            continue
        rlo, rhi = bounds[root]
        if rhi > rlo:
            work[rlo:rhi] = yield comm.recv(rank, root,
                                            tag=_TAG_MT + n + root)

    return finalize_op(op, work, n)


def ina_allreduce(arrays: t.Sequence[np.ndarray],
                  op: ReduceOp = ReduceOp.SUM) -> list[np.ndarray]:
    """Numeric model of in-network aggregation.

    The aggregator is fabric hardware, not a worker process: it folds
    the contributions in ascending rank order (the deterministic order
    the FPGA pipeline sees them on its ports) and multicasts one result.
    """
    if not arrays:
        raise CollectiveError("ina_allreduce requires at least one array")
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise CollectiveError(f"workers disagree on shape: {shapes}")
    accumulator = arrays[0].copy()
    for incoming in arrays[1:]:
        accumulator = apply_op(op, accumulator, incoming)
    reduced = finalize_op(op, accumulator, len(arrays))
    return [reduced.copy() for _ in arrays]


def _run_numeric(worker: t.Callable[..., t.Generator],
                 arrays: t.Sequence[np.ndarray],
                 op: ReduceOp) -> list[np.ndarray]:
    if not arrays:
        raise CollectiveError("all-reduce requires at least one array")
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise CollectiveError(f"workers disagree on shape: {shapes}")
    return run_collective(
        lambda sim, comm, rank: worker(sim, comm, rank, arrays[rank], op=op),
        len(arrays), "planned")


def halving_doubling_allreduce(arrays: t.Sequence[np.ndarray],
                               op: ReduceOp = ReduceOp.SUM
                               ) -> list[np.ndarray]:
    """Run a complete halving-doubling all-reduce (numeric face)."""
    return _run_numeric(halving_doubling_allreduce_worker, arrays, op)


def multi_tree_allreduce(arrays: t.Sequence[np.ndarray],
                         op: ReduceOp = ReduceOp.SUM) -> list[np.ndarray]:
    """Run a complete multi-tree all-reduce (numeric face)."""
    return _run_numeric(multi_tree_allreduce_worker, arrays, op)


def planned_numeric_allreduce(algorithm: str,
                              arrays: t.Sequence[np.ndarray],
                              op: ReduceOp = ReduceOp.SUM
                              ) -> list[np.ndarray]:
    """Numeric execution of a planner algorithm's data movement.

    Halving-doubling needs a power-of-two world size and raises
    :class:`~repro.errors.CollectiveError` on any other.
    """
    if algorithm == "halving-doubling":
        if _is_power_of_two(len(arrays)):
            return halving_doubling_allreduce(arrays, op=op)
        raise CollectiveError(
            "halving-doubling numeric face requires a power-of-two "
            f"world size, got {len(arrays)}"
        )
    if algorithm == "multi-tree":
        return multi_tree_allreduce(arrays, op=op)
    if algorithm == "ina":
        return ina_allreduce(arrays, op=op)
    raise CollectiveError(
        f"unknown planner algorithm {algorithm!r}; "
        f"expected one of {PLANNER_ALGORITHMS}"
    )


__all__ = [
    "PLANNER_ALGORITHMS",
    "PHASE_SYNC_S",
    "INA_SWITCH_LATENCY_S",
    "CollectivePlanner",
    "CollectiveSchedule",
    "FlowSpec",
    "SchedulePhase",
    "halving_doubling_allreduce",
    "halving_doubling_allreduce_worker",
    "ina_allreduce",
    "multi_tree_allreduce",
    "multi_tree_allreduce_worker",
    "planned_numeric_allreduce",
]
