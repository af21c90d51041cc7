"""Timed collective execution over the simulated network.

This is the bridge between the collective algorithms and the fluid network
model.  A timed all-reduce creates the flows its algorithm would place on
the cluster links (each flow is one transport stream, subject to the
per-stream rate cap) and completes when the slowest flow drains plus the
α/pipeline-fill latency of the ring schedule.

Every timed collective is a list of *phases*, and one sequencing rule
runs them (:meth:`TimedCollectives._chain`): a phase launches its runs
as one fan-out; once the fan-out drains, the phase's delay passes and
the next phase launches; the last delay fires the collective's event.
The flat ring, the half-ring primitives and all-to-all are one phase,
the hierarchical all-reduce three and the planner schedules one per
:class:`~repro.collectives.planner.SchedulePhase`.  The chain runs on
event callbacks, not a process.

Every fan-out launches the same way (:meth:`TimedCollectives.
_launch_runs`): consecutive flows sharing (bytes, cap, weight) form a
*uniform run*.  The members of a run split into classes of
capacity-identical members
(:meth:`~repro.sim.network.FluidNetwork.bundle_classes`): each class of
two or more enters as one :class:`~repro.sim.network.GroupFlow`, every
other member as a plain flow, so one congested hop no longer unbundles
the rest of its ring.  Hops that all cross an oversubscribed core, or
the planner's ``ina.agg`` trunk, bundle too: the group weighs once per
member on those shared links.  The whole fan-out enters the network in
one :meth:`~repro.sim.network.FluidNetwork.start_flows` insert.  This
is exact at every scale: bundled members are capacity-identical and
the solver counts and debits a shared link once per member, so each
member's rate is bit-equal to the group's, and no simulated time passes
between a launch's same-instant arrivals.

Every all-reduce, half-ring and all-to-all builds its phase list once
per ``(algorithm, size_bytes, cap_scale)`` (:meth:`TimedCollectives.
_phases`) and replays it on every later call with that key.  A launch
is classified once per member structure (:meth:`TimedCollectives.
_classify`), so every size of one algorithm launches the same
:class:`~repro.sim.network.FlowBundle` handles and a steady-state
relaunch keeps their claims.  Both memos are exact: a phase list is a
pure function of its key and of state fixed at construction (the
topology, the per-node stream caps and the planner's aggregation link),
and runtime capacity changes reach only ``Link.capacity_bps``, which
the solver reads at solve time and each bundle's claim re-checks when
it registers.
"""

from __future__ import annotations

import math
import typing as t

from repro.errors import CollectiveError
from repro.collectives.cost_model import PHASE_SYNC_S, ring_volume_bytes
from repro.collectives.planner import PLANNER_ALGORITHMS, CollectivePlanner
from repro.obs import NETWORK_RANK, Observability
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.network import FlowBundle, FluidNetwork, Link
from repro.sim.topology import Cluster

#: Supported all-reduce algorithm names: the two legacy hard-coded
#: schedules (paper Section V-B) plus the topology-synthesized planner
#: backends (halving-doubling, multi-tree, in-network aggregation).
ALGORITHMS = ("ring", "hierarchical") + PLANNER_ALGORITHMS

#: One flow of a launch: ``(links, bytes, per-stream cap, weight)``.
_Spec = tuple[t.Sequence[Link], float, "float | None", int]
#: One uniform run of a launch: its members (link sets, or their
#: :class:`_Classes`) plus their shared bytes, per-stream cap and weight.
_Run = tuple["_Classes | t.Sequence[t.Sequence[Link]]", float,
             "float | None", int]
#: One phase of a collective: the runs it launches as one fan-out, the
#: delay that follows their drain, and the name of its
#: ``collective.<name>`` timeline span (``None`` records none).
_Phase = tuple[t.Sequence[_Run], float, "str | None"]
#: A built collective: its phases and the label its chain runs under.
_Plan = tuple[list[_Phase], str]


def _check_size(size_bytes: float) -> None:
    """Reject a negative or non-finite collective size."""
    if not 0 <= size_bytes < math.inf:
        raise CollectiveError(
            f"size_bytes must be finite and non-negative, got "
            f"{size_bytes!r}")


def _uniform_runs(specs: t.Iterable[tuple]) -> list[list]:
    """Group consecutive specs that share everything but their links.

    Returns ``[members, *shared]`` per run, e.g. a ring launch is one run
    of NIC hops followed by one run of NVLink fabrics.
    """
    runs: list[list] = []
    for links, *shared in specs:
        if runs and runs[-1][1:] == shared:
            runs[-1][0].append(links)
        else:
            runs.append([[links], *shared])
    return runs


class _Classes(tuple):
    """A uniform run's member link sets and the entries they launch as.

    A tuple of the member link sets, so it stands wherever a run's
    members do; ``parts`` are the run's
    :meth:`~repro.sim.network.FluidNetwork.start_flows` entries — a
    :class:`~repro.sim.network.FlowBundle` per class of two or more
    capacity-identical members and the bare links of each lone member
    (see :meth:`~repro.sim.network.FluidNetwork.bundle_classes`).
    """

    parts: list["FlowBundle | tuple[Link, ...]"]

    @classmethod
    def of(cls, members: t.Iterable[t.Sequence[Link]],
           parts: list["FlowBundle | tuple[Link, ...]"]) -> "_Classes":
        classes = cls(members)
        classes.parts = parts
        return classes


class _WirePlan(t.NamedTuple):
    """Launch skeleton of the node-level wire fan-outs.

    The flat ring and the half-ring primitives place the identical flow
    pattern every launch — one NIC hop per node plus the NVLink fabrics
    — and the hierarchical all-reduce places the same NVLink fabrics
    (phases 1 and 3) and the same hops with ``g`` streams each (phase
    2).  The pattern depends only on the (immutable) topology and the
    static per-node stream caps, so it is built once per collectives
    instance and every new ``(size_bytes, cap_scale)`` of these
    collectives builds its phase list from it in O(runs), not
    O(nodes).  ``hops`` holds ``(members, base cap)`` per uniform hop
    run and ``nvlink`` the one run of NVLink fabrics (empty when none
    is launched), each already classified: hop and NVLink links never
    meet, so classifying them apart equals classifying a launch of
    both.  Caps are stored unscaled; builders multiply by their
    ``cap_scale``.
    """

    hops: list[list]
    nvlink: list[list]
    slowest_base: float | None


class TimedCollectives:
    """Schedules timed collectives on a cluster.

    Parameters
    ----------
    sim, network, cluster:
        The simulation context.
    """

    def __init__(self, sim: Simulator, network: FluidNetwork,
                 cluster: Cluster, obs: Observability | None = None) -> None:
        self.sim = sim
        self.network = network
        self.cluster = cluster
        #: Observability sink for collective telemetry.
        self.obs = obs or Observability.disabled()
        registry = self.obs.registry
        self._m_allreduce = registry.counter(
            "allreduce_total", "Completed timed all-reduces")
        self._m_allreduce_bytes = registry.histogram(
            "allreduce_bytes", "Payload size of timed all-reduces",
            buckets=(1e6, 4e6, 16e6, 64e6, 256e6, 1e9))
        self._m_allreduce_seconds = registry.histogram(
            "allreduce_seconds", "Wall-clock duration of timed all-reduces",
            buckets=(1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0))
        #: Lazily built topology-aware planner (halving-doubling,
        #: multi-tree, ina).
        self._planner: CollectivePlanner | None = None
        #: Lazily built wire-flow launch skeleton (see :class:`_WirePlan`).
        self._wire_cache: _WirePlan | None = None
        #: Built phase lists by ``(algorithm, size_bytes, cap_scale)``
        #: (see :meth:`_phases`).
        self._plans: dict[tuple[str, float, float], _Plan] = {}
        #: Classified members of each launch structure, one entry per
        #: run, by the runs' link sets (see :meth:`_classify`).
        self._classes: dict[tuple, list] = {}
        #: Phase lists built so far: one per distinct memo key.
        self.phase_plans_built = 0

    # -- public API -------------------------------------------------------

    def _stalled(self, name: str) -> Event | None:
        """A never-firing event when a participating node is dead.

        Real NCCL collectives do not error when a ring member dies —
        they hang until an external watchdog fires.  Modelling that
        honestly (instead of raising) is what gives the engine's
        timeout-based failure detector something real to detect.
        Returns ``None`` when every node is alive.
        """
        if not self.cluster.failed_nodes:
            return None
        self.obs.count_fault("stalled_collectives")
        return self.sim.event(name=f"{name}.stalled")

    def allreduce(self, size_bytes: float, algorithm: str = "ring",
                  cap_scale: float = 1.0) -> Event:
        """Start a timed all-reduce of ``size_bytes`` across all workers.

        Parameters
        ----------
        algorithm:
            ``"ring"`` — flat topology-aware ring over all GPUs;
            ``"hierarchical"`` — intra-node reduce-scatter, ``g`` parallel
            inter-node rings, intra-node all-gather;
            ``"halving-doubling"`` / ``"multi-tree"`` / ``"ina"`` —
            planner-synthesized schedules (see
            :mod:`repro.collectives.planner`).
        cap_scale:
            Multiplier on the transport's per-stream rate cap.  1.0 models
            a well-tuned stack (Horovod's documented NCCL socket tuning);
            PyTorch-DDP v1.10 shipped with NCCL's default socket
            configuration and reaches a lower single-stream ceiling, which
            its backend models with ``cap_scale < 1``.

        Returns the collective's own event, triggering at completion;
        its value is the duration in seconds.
        """
        if algorithm not in ALGORITHMS:
            raise CollectiveError(
                f"unknown all-reduce algorithm {algorithm!r}; "
                f"expected one of {ALGORITHMS}"
            )
        _check_size(size_bytes)
        if not 0 < cap_scale <= 1:
            raise CollectiveError("cap_scale must be in (0, 1]")
        stalled = self._stalled(f"allreduce.{algorithm}")
        if stalled is not None:
            return stalled
        start = self.sim.now
        if size_bytes == 0 or self.cluster.world_size == 1:
            # Degenerate all-reduce: nothing crosses any link.  Complete
            # at zero cost rather than launching empty flows (which would
            # still pay link latencies and α terms).
            done = self.sim.timeout(0.0, 0.0)
        else:
            done = self._chain(*self._phases(algorithm, size_bytes,
                                             cap_scale), bytes=size_bytes)

        def _observe(_ev: Event) -> None:
            self._m_allreduce.inc(algorithm=algorithm)
            self._m_allreduce_bytes.observe(size_bytes,
                                            algorithm=algorithm)
            self._m_allreduce_seconds.observe(self.sim.now - start,
                                              algorithm=algorithm)

        # Registered first, so the metrics are in before any waiter runs.
        done.add_callback(_observe)
        return done

    def control_roundtrip(self, payload_bytes: float = 64.0) -> Event:
        """A decentralized control-plane ring pass (readiness bit vector).

        AIACC's gradient synchronization all-reduces an ``n``-bit vector
        among the MPI daemons (paper Fig. 8b).  The payload is tiny, so the
        cost is pure latency: ``2 (m - 1)`` inter-node hops.
        """
        _check_size(payload_bytes)
        stalled = self._stalled("control_roundtrip")
        if stalled is not None:
            return stalled
        m = self.cluster.num_nodes
        spec = self.cluster.spec
        if m == 1:
            delay = 2 * max(spec.gpus_per_node - 1, 1) * \
                spec.intra_node_latency_s
        else:
            per_hop = spec.inter_node_latency_s + \
                spec.transport.per_message_overhead_s
            delay = 2 * (m - 1) * per_hop
            delay += payload_bytes * 8.0 * 2 * (m - 1) / \
                self.cluster.stream_cap_bps()
        return self.sim.timeout(delay)

    def broadcast(self, size_bytes: float) -> Event:
        """Timed pipelined broadcast from rank 0 to all workers."""
        _check_size(size_bytes)
        stalled = self._stalled("broadcast")
        if stalled is not None:
            return stalled
        if size_bytes == 0 or self.cluster.world_size == 1:
            # Nothing to move (or nobody to move it to): zero-cost, no
            # flows — a single-worker "broadcast" is a no-op, not an
            # NVLink transfer of the full payload to itself.
            return self.sim.timeout(0.0)
        if self.cluster.num_nodes == 1:
            return self._launch([([self.cluster.nvlink[0]], size_bytes,
                                  None, 1)])[0]
        return self.sim.all_of(self._launch([
            (hop, size_bytes, self.cluster.stream_cap_bps(src_node), 1)
            for src_node, hop in self._nic_hops()]))

    def alltoall(self, size_bytes: float) -> Event:
        """Timed all-to-all: each worker exchanges ``size_bytes`` split
        evenly across all ``n`` workers (staggered-partner schedule).

        Returns an event triggering at completion.
        """
        return self._one_phase("alltoall", size_bytes)

    def reduce_scatter(self, size_bytes: float) -> Event:
        """Timed ring reduce-scatter of ``size_bytes`` (half a ring
        all-reduce: ``n - 1`` steps, ``S (n-1)/n`` bytes per hop)."""
        return self._one_phase("reduce_scatter", size_bytes)

    def allgather(self, size_bytes: float) -> Event:
        """Timed ring all-gather of ``size_bytes`` (the other half)."""
        return self._one_phase("allgather", size_bytes)

    def _one_phase(self, kind: str, size_bytes: float) -> Event:
        """Start an all-to-all or half ring: checks, then its phase list."""
        _check_size(size_bytes)
        stalled = self._stalled(kind)
        if stalled is not None:
            return stalled
        if size_bytes == 0 or self.cluster.world_size == 1:
            return self.sim.timeout(0.0)
        return self._chain(*self._phases(kind, size_bytes))

    # -- algorithm schedules -------------------------------------------------

    def _phases(self, kind: str, size_bytes: float,
                cap_scale: float = 1.0) -> _Plan:
        """The phase list and chain label of one collective, built once.

        ``kind`` is an all-reduce algorithm, ``"alltoall"``,
        ``"reduce_scatter"`` or ``"allgather"``.  The first call with a
        ``(kind, size_bytes, cap_scale)`` key builds the list and every
        later one replays it: a builder reads only its arguments and
        state fixed at construction, so the replayed launches are the
        ones a rebuild would make.  Callers validate the key and handle
        the degenerate sizes first.
        """
        key = (kind, size_bytes, cap_scale)
        plan = self._plans.get(key)
        if plan is None:
            if kind == "ring":
                plan = self._ring(size_bytes, cap_scale)
            elif kind == "hierarchical":
                plan = self._hierarchical(size_bytes, cap_scale)
            elif kind == "alltoall":
                plan = self._alltoall(size_bytes)
            elif kind in PLANNER_ALGORITHMS:
                plan = self._planned(kind, size_bytes, cap_scale)
            else:
                plan = self._half_ring(kind, size_bytes)
            self._plans[key] = plan
            self.phase_plans_built += 1
        return plan

    def _alltoall(self, size_bytes: float) -> _Plan:
        """Staggered-partner all-to-all: one phase."""
        n = self.cluster.world_size
        m = self.cluster.num_nodes
        g = self.cluster.spec.gpus_per_node
        spec = self.cluster.spec
        specs: list[tuple[list[Link], float, float | None, int]] = []
        # Bytes leaving node i for other nodes: g senders x (n - g)/n of
        # their payload each.
        if m > 1:
            inter_bytes = g * size_bytes * (n - g) / n
            for src_node, hop in self._nic_hops():
                cap = self.cluster.stream_cap_bps(src_node)
                specs.append((hop, inter_bytes, cap, g))
            alpha = (n - 1) * spec.inter_node_latency_s
        else:
            alpha = (n - 1) * spec.intra_node_latency_s
        if g > 1:
            intra_bytes = g * size_bytes * (g - 1) / n
            for fabric in self.cluster.nvlink:
                specs.append(([fabric], intra_bytes, None, 1))
        return [(self._classify(_uniform_runs(specs)), alpha, None)], \
            "alltoall"

    def _half_ring(self, name: str, size_bytes: float) -> _Plan:
        """Reduce-scatter or all-gather: half a ring, one phase."""
        n = self.cluster.world_size
        m = self.cluster.num_nodes
        spec = self.cluster.spec
        hop_bytes = ring_volume_bytes(size_bytes, n) / 2.0
        if m > 1:
            alpha = (n - 1) * spec.inter_node_latency_s
        else:
            alpha = (n - 1) * spec.intra_node_latency_s
        runs = self._wire_runs(self._wire_plan(), hop_bytes, 1.0)
        return [(runs, alpha, None)], name

    def _nic_hops(self) -> list[tuple[int, list[Link]]]:
        """Directed inter-node NIC hops of the node-level ring.

        Returns ``(source_node, links)`` pairs; the source node determines
        the per-stream rate cap (a congested node's NIC caps lower).
        """
        m = self.cluster.num_nodes
        core = [self.cluster.core] if self.cluster.core is not None else []
        return [
            (i, [self.cluster.nic_out[i], *core,
                 self.cluster.nic_in[(i + 1) % m]])
            for i in range(m)
        ]

    def _launch(self, specs: t.Sequence[_Spec],
                label: str | None = None) -> list[Event]:
        """Start one flow per ``(links, bytes, cap, weight)`` spec."""
        return self._launch_runs(self._classify(_uniform_runs(specs)),
                                 label)

    def _classify(self, runs: list[list]) -> list[list]:
        """Split a launch's uniform runs into their bundle classes.

        A run with a class of two or more members gets its members as
        :class:`_Classes`; every other run, and every run of a launch of
        lone members (which skips the scan), keeps its members as they
        are.  Classes depend on the member link sets only, never on
        bytes, so each structure is classified once: later launches of
        it reuse its :class:`~repro.sim.network.FlowBundle` handles,
        whose claims then persist across launches.
        """
        if all(len(run[0]) == 1 for run in runs):
            return runs
        key = tuple(tuple(map(tuple, run[0])) for run in runs)
        classes = self._classes.get(key)
        if classes is None:
            classes = self._classes[key] = [
                _Classes.of(run[0], parts)
                if any(part.__class__ is FlowBundle for part in parts)
                else run[0]
                for run, parts in zip(runs, self.network.bundle_classes(
                    [run[0] for run in runs]))]
        return [[members, *run[1:]] for members, run in zip(classes, runs)]

    def _launch_runs(self, runs: t.Sequence[_Run],
                     label: str | None) -> list[Event]:
        """Launch a same-instant fan-out in one insert: the launch rule.

        Runs whose members were classified (:class:`_Classes`) enter as
        their classes — a flow group per class of two or more, a plain
        flow per lone member; other members enter one flow each.
        ``label`` names the algorithm for telemetry.
        """
        return self.network.start_flows(
            [(part, size_bytes, cap, weight)
             for members, size_bytes, cap, weight in runs
             for part in (members.parts if members.__class__ is _Classes
                          else members)], label=label)

    def _chain(self, phases: t.Sequence[_Phase], label: str,
               **span_meta: object) -> Event:
        """Run ``phases`` back to back: the one sequencing rule.

        A phase launches its runs as one fan-out (a phase with no runs
        is only its delay); once the fan-out drains, the phase's delay
        passes and the next phase launches.  The last delay schedules
        the returned event directly, with the chain's duration in
        seconds as its value.  A fan-out of one flow entity is waited
        on directly, with no barrier around it.  Each delay is
        ``now + delay`` taken at the drain instant, and a zero delay
        between phases launches the next one at once.  A named phase
        records its ``collective.<name>`` span, from its launch to the
        end of its delay, with ``algorithm=label`` and ``span_meta``.  A fan-out
        that never drains — a cancelled flow — stalls the chain: no
        later phase launches and the event never fires.
        """
        sim = self.sim
        timeline = self.obs.timeline
        done = sim.event(name=label)
        start = sim.now
        last = len(phases) - 1

        def launch(index: int) -> None:
            runs, delay_s, span = phases[index]
            phase_start = sim.now

            def finish(_ev: Event | None = None) -> None:
                if span is not None:
                    timeline.span(f"collective.{span}", "collective",
                                  NETWORK_RANK, phase_start, sim.now,
                                  algorithm=label, **span_meta)
                if index < last:
                    launch(index + 1)

            def drained(_ev: Event | None = None) -> None:
                if index == last:
                    if span is not None:
                        done.add_callback(finish)
                    end = sim.now + delay_s
                    sim._schedule_at(end, done, end - start)
                elif delay_s:
                    sim.timeout(delay_s).add_callback(finish)
                else:
                    finish()

            if runs:
                flows = self._launch_runs(runs, label)
                fan_out = flows[0] if len(flows) == 1 \
                    else sim.all_of(flows)
                fan_out.add_callback(drained)
            else:
                drained()

        launch(0)
        return done

    def _wire_plan(self) -> _WirePlan:
        """Build (once) the launch skeleton of the wire fan-outs.

        Safe to keep for the instance lifetime: hop structure and
        NVLink fabrics are fixed by the topology, and per-node stream
        caps come from the static cluster spec and build-time congestion
        map — runtime capacity degradation (``set_link_capacity``) does
        not alter them, it only breaks bundle exactness, which the
        cached :class:`~repro.sim.network.FlowBundle` handles re-check
        through their claim channels on every launch.
        """
        plan = self._wire_cache
        if plan is not None:
            return plan
        cluster = self.cluster
        m = cluster.num_nodes
        hops: list[tuple[list[Link], float]] = []
        slowest_base: float | None = None
        if m > 1:
            hops = [(hop, cluster.stream_cap_bps(src_node))
                    for src_node, hop in self._nic_hops()]
            slowest_base = min(cap for _hop, cap in hops)
        nvlink: list[tuple[list[Link]]] = []
        if m == 1 or cluster.spec.gpus_per_node > 1:
            nvlink = [([fabric],) for fabric in self.cluster.nvlink]
        plan = self._wire_cache = _WirePlan(
            self._classify(_uniform_runs(hops)),
            self._classify(_uniform_runs(nvlink)), slowest_base)
        return plan

    def _wire_runs(self, plan: _WirePlan, hop_bytes: float,
                   cap_scale: float) -> list[_Run]:
        """One ``hop_bytes`` run per wire-plan run, hops then NVLink.

        The plan's unscaled caps are multiplied by ``cap_scale``.
        """
        runs = [(members, hop_bytes, base * cap_scale, 1)
                for members, base in plan.hops]
        runs.extend((members, hop_bytes, None, 1)
                    for members, in plan.nvlink)
        return runs

    def _ring(self, size_bytes: float, cap_scale: float = 1.0) -> _Plan:
        """Flat topology-aware ring across all ``n`` GPUs: one phase."""
        n = self.cluster.world_size
        m = self.cluster.num_nodes
        spec = self.cluster.spec
        hop_bytes = ring_volume_bytes(size_bytes, n)
        steps = 2 * (n - 1)
        plan = self._wire_plan()

        if m > 1:
            # Per-chunk software overhead is pipelined behind chunk
            # transmission: only the part exceeding the chunk's wire time
            # is exposed on the critical path.  Small units at large n
            # (tiny chunks) therefore pay the overhead; big fusion
            # buffers hide it.  The wire time is set by the slowest hop
            # of the ring, not the default node's NIC.
            slowest = plan.slowest_base * cap_scale
            chunk_tx = (size_bytes / n) * 8.0 / slowest
            exposed = max(0.0,
                          spec.transport.per_message_overhead_s - chunk_tx)
            alpha = steps * exposed
            fill = m * spec.inter_node_latency_s + \
                (n - m) * spec.intra_node_latency_s
        else:
            alpha = steps * spec.intra_node_latency_s
            fill = 0.0

        runs = self._wire_runs(plan, hop_bytes, cap_scale)
        return [(runs, alpha + fill, None)], "ring"

    def _hierarchical(self, size_bytes: float,
                      cap_scale: float = 1.0) -> _Plan:
        """Intra-node RS, g parallel inter-node rings, intra-node AG.

        A single node or one GPU per node falls back to the flat ring,
        which chains as ``"ring"``.
        """
        m = self.cluster.num_nodes
        g = self.cluster.spec.gpus_per_node
        if m == 1 or g == 1:
            return self._ring(size_bytes, cap_scale)
        spec = self.cluster.spec
        plan = self._wire_plan()
        intra_latency = (g - 1) * spec.intra_node_latency_s

        # Phases 1 and 3: intra-node reduce-scatter and all-gather.
        intra_bytes = size_bytes * (g - 1) / g
        intra = [(members, intra_bytes, None, 1)
                 for members, in plan.nvlink]
        # Phase 2: g parallel inter-node rings on 1/g shards.  The g
        # rings of one hop are symmetric clones (same links, same cap),
        # so they run as one weighted flow per hop.
        shard_hop = ring_volume_bytes(size_bytes / g, m)
        rings = [(members, shard_hop * g, base * cap_scale, g)
                 for members, base in plan.hops]
        # Exposed overhead is paced by the slowest hop of the inter-node
        # rings, not the default node's NIC.
        shard_chunk_tx = (size_bytes / g / m) * 8.0 / \
            (plan.slowest_base * cap_scale)
        exposed = max(0.0, spec.transport.per_message_overhead_s
                      - shard_chunk_tx)
        return [
            (intra, intra_latency + PHASE_SYNC_S, None),
            (rings, 2 * (m - 1) * (spec.inter_node_latency_s + exposed)
             + PHASE_SYNC_S, None),
            (intra, intra_latency, None),
        ], "hierarchical"

    def _planned(self, algorithm: str, size_bytes: float,
                 cap_scale: float) -> _Plan:
        """A planner-synthesized schedule, one phase per schedule phase."""
        planner = self._planner
        if planner is None:
            planner = self._planner = CollectivePlanner(self.cluster)
        schedule = planner.plan(algorithm, size_bytes, cap_scale)
        return [
            (self._classify(_uniform_runs(
                flow.as_request() for flow in phase.flows
                if flow.size_bytes > 0)), phase.latency_s, phase.name)
            for phase in schedule.phases], algorithm
