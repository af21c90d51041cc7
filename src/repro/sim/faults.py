"""Event-driven fault injection for the simulated AIACC runtime.

The paper sells AIACC-Training as a production library whose fault
tolerance, elastic deployment and restart-from-checkpoint support are
first-class features (§IV).  This module injects the failures those
features exist to survive, *inside* the discrete-event simulator rather
than as closed-form time corrections:

:class:`NodeCrash`
    A node dies at a simulated instant.  Its NIC and NVLink capacities
    collapse (in-flight flows stall) and the cluster marks it failed (new
    collectives never complete); training learns of it only through the
    engine's failure detector.
:class:`LinkFlap`
    A node's NIC goes down for a bounded window, then recovers.
:class:`BandwidthDegradation`
    A node's NIC runs at a fraction of capacity for a window —
    the bursty cross-tenant traffic of §VII, but time-varying.
:class:`Straggler`
    A node slows by a factor for a window, modelling the slow-worker
    effect that motivates event-level (not average-rate) failure
    modelling in the S-SGD DAG literature.
:class:`NodeLeave`
    A *clean* scheduled departure: the node announces at ``at_s`` and is
    excised at the next membership-epoch boundary.  Unlike a crash its
    links stay healthy until then, so survivors continue from live
    parameters with no checkpoint restore.
:class:`NodeJoin`
    A node (a brand-new identity, or a previously crashed/departed one
    rejoining) requests admission at ``at_s``; it is admitted at the next
    epoch boundary via a pipelined live-parameter broadcast.

Flaps, degradations and stragglers are :class:`WindowFault` types.
Each states its window length, NIC capacity factor, event name and
random parameter ranges once; the plan checker, both plan generators,
the injector and the cluster runtime (:mod:`repro.cluster.runtime`)
read them.  The two interpreters read two kinds differently.  The
injector scales a straggler's NIC by ``1/slowdown``, while the cluster
stretches the tenant's compute phase by ``slowdown``.  A flap takes the
NIC to :data:`DEAD_LINK_BPS` in the injector and to
``DEAD_NIC_FRACTION`` (1e-4) of base capacity in the cluster.

A :class:`FaultPlan` is an immutable, time-sorted schedule of faults;
a :class:`FaultInjector` arms the plan against a live simulator/cluster/
network triple and survives communicator rebuilds via :meth:`retarget`.

Faults are *delivered through the event queue* (one timeout per
fault), so injection is deterministic and ordered with all other
simulation activity.
"""

from __future__ import annotations

import dataclasses
import random
import typing as t

from repro.errors import FaultInjectionError, require_count, require_real
from repro.obs import Observability
from repro.sim.kernel import Simulator
from repro.sim.network import FluidNetwork, Link
from repro.sim.topology import Cluster

#: Capacity a dead node's links are squashed to.  The fluid network
#: requires strictly positive capacities; at 1e-3 bit/s any in-flight
#: flow's remaining transfer takes geological time, which is how a dead
#: NIC looks to its peers: the connection does not error, it stalls.
DEAD_LINK_BPS = 1e-3


@dataclasses.dataclass(frozen=True)
class Fault:
    """Base class for scheduled faults.

    ``at_s`` is the absolute simulated injection time; ``node`` is the
    index of the victim node *in the original cluster* (the injector
    keeps the mapping to post-rebuild indices).
    """

    at_s: float
    node: int

    def __post_init__(self) -> None:
        require_real("at_s", self.at_s, FaultInjectionError)
        require_count("node", self.node, 0, FaultInjectionError)


@dataclasses.dataclass(frozen=True)
class NodeCrash(Fault):
    """The node dies permanently at ``at_s``."""


@dataclasses.dataclass(frozen=True)
class WindowFault(Fault):
    """A fault that holds one node's NIC in a changed state for a window.

    Each subtype states once what the plan checker, the generators, the
    injector and the cluster read: :attr:`window_s`, how long the window
    stays open; :attr:`nic_factor`, the fraction of NIC capacity the node
    keeps meanwhile (0 for a link that is down); :attr:`event`, the name
    recorded as the window opens and closes; and :attr:`draws`, the
    uniform range of each parameter a generator draws, in draw order.
    """

    event: t.ClassVar[str]
    draws: t.ClassVar[tuple[tuple[str, float, float], ...]]

    @property
    def window_s(self) -> float:
        raise NotImplementedError

    @property
    def nic_factor(self) -> float:
        raise NotImplementedError

    @property
    def end_s(self) -> float:
        """When the window closes."""
        return self.at_s + self.window_s


@dataclasses.dataclass(frozen=True)
class LinkFlap(WindowFault):
    """The node's NIC goes down at ``at_s`` and recovers after ``down_s``."""

    down_s: float = 1.0
    event = "link_flap"
    draws = (("down_s", 0.2, 2.0),)

    def __post_init__(self) -> None:
        super().__post_init__()
        require_real("down_s", self.down_s, FaultInjectionError, positive=True)

    @property
    def window_s(self) -> float:
        return self.down_s

    @property
    def nic_factor(self) -> float:
        return 0.0


@dataclasses.dataclass(frozen=True)
class BandwidthDegradation(WindowFault):
    """The node's NIC runs at ``fraction`` of capacity for ``duration_s``."""

    fraction: float = 0.5
    duration_s: float = 1.0
    event = "degrade"
    draws = (("fraction", 0.2, 0.8), ("duration_s", 0.5, 5.0))

    def __post_init__(self) -> None:
        super().__post_init__()
        if require_real("fraction", self.fraction, FaultInjectionError,
                        positive=True) > 1:
            raise FaultInjectionError("fraction must be in (0, 1]")
        require_real("duration_s", self.duration_s, FaultInjectionError,
                     positive=True)

    @property
    def window_s(self) -> float:
        return self.duration_s

    @property
    def nic_factor(self) -> float:
        return self.fraction


@dataclasses.dataclass(frozen=True)
class Straggler(WindowFault):
    """The node runs ``slowdown``x slower for ``duration_s`` seconds.

    The injector reads this as a NIC slowdown (:attr:`nic_factor` is
    ``1/slowdown``); the cluster runtime stretches the tenant's compute
    phase by ``slowdown`` instead and leaves the NIC alone.
    """

    slowdown: float = 4.0
    duration_s: float = 1.0
    event = "straggler"
    draws = (("slowdown", 2.0, 8.0), ("duration_s", 0.5, 5.0))

    def __post_init__(self) -> None:
        super().__post_init__()
        if require_real("slowdown", self.slowdown, FaultInjectionError) <= 1:
            raise FaultInjectionError("slowdown must be finite and > 1")
        require_real("duration_s", self.duration_s, FaultInjectionError,
                     positive=True)

    @property
    def window_s(self) -> float:
        return self.duration_s

    @property
    def nic_factor(self) -> float:
        return 1.0 / self.slowdown


@dataclasses.dataclass(frozen=True)
class NodeLeave(Fault):
    """The node departs cleanly at the next epoch boundary after ``at_s``."""


@dataclasses.dataclass(frozen=True)
class NodeJoin(Fault):
    """Node identity ``node`` asks to join at the next epoch boundary.

    ``node`` may name a brand-new identity (>= the initial cluster size)
    or a previously crashed/departed node rejoining at a later epoch.
    """


#: Fault kinds that change membership when *applied* (crash) or at the
#: next epoch boundary (leave/join).
MEMBERSHIP_FAULTS = (NodeCrash, NodeLeave, NodeJoin)
#: Fault kinds that hold a node's NIC in a changed state for a window.
WINDOW_FAULTS = (LinkFlap, BandwidthDegradation, Straggler)


def check_windows(faults: t.Iterable[Fault]) -> None:
    """Reject a window that opens before its node's last one closes.

    ``faults`` must be in time order.  Capacity save/restore does not
    nest, so the first window's restore would cut the second one short.
    """
    last: dict[int, WindowFault] = {}
    for fault in faults:
        if isinstance(fault, WindowFault):
            prior = last.get(fault.node)
            if prior is not None and fault.at_s < prior.end_s:
                raise FaultInjectionError(
                    f"{type(fault).__name__} at t={fault.at_s:g}s overlaps "
                    f"the {type(prior).__name__} window on node "
                    f"{fault.node}, which runs until t={prior.end_s:g}s")
            last[fault.node] = fault


def _draw_window(kind: t.Any, rng: random.Random, at_s: float, node: int,
                 busy_until: dict[int, float]) -> WindowFault:
    """Draw a window fault for a generator; mark its node busy."""
    if kind not in WINDOW_FAULTS:
        raise FaultInjectionError(f"unknown fault kind {kind!r}")
    fault: WindowFault = kind(at_s, node, **{
        name: rng.uniform(low, high) for name, low, high in kind.draws})
    busy_until[node] = fault.end_s
    return fault


def _require_kinds(kinds: t.Sequence[type]) -> tuple[type, ...]:
    """A generator's fault kinds as a tuple; an empty one has nothing to
    draw from."""
    kinds = tuple(kinds)
    if not kinds:
        raise FaultInjectionError("kinds must name at least one fault type")
    return kinds


class FaultPlan:
    """An immutable, time-ordered schedule of faults."""

    def __init__(self, faults: t.Iterable[Fault]) -> None:
        faults = tuple(faults)
        for fault in faults:
            if not isinstance(fault, Fault):
                raise FaultInjectionError(
                    f"plan entries must be Fault instances, got {fault!r}"
                )
        self.faults: tuple[Fault, ...] = tuple(
            sorted(faults, key=lambda f: (f.at_s, f.node)))

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> t.Iterator[Fault]:
        return iter(self.faults)

    def validate_for(self, cluster: Cluster) -> None:
        """Up-front, typed validation of the whole schedule.

        Walks the plan in time order tracking the membership set it
        implies (crashes and leaves remove a node, joins add one) and
        rejects, with :class:`~repro.errors.FaultInjectionError` instead
        of a mid-run ``KeyError``:

        * crashes/leaves targeting a node that is not a member at that
          point of the schedule (out-of-range ranks included);
        * joins targeting a node that is already a member;
        * window faults (flap/degradation/straggler) targeting an
          identity the schedule never knows about — former members are
          allowed (the fault is a runtime no-op, like today);
        * any point where the group would drop below one worker;
        * overlapping windows on the same node (:func:`check_windows`).
        """
        self.membership_bounds(cluster.num_nodes)

    def membership_bounds(self, initial_nodes: int) -> tuple[int, int]:
        """Validate the schedule; return ``(min, final)`` member counts.

        ``initial_nodes`` is the size of the cluster the plan is armed
        against; node identities ``0..initial_nodes-1`` are the initial
        members.  Raises :class:`~repro.errors.FaultInjectionError` on
        the first inconsistency (see :meth:`validate_for`).
        """
        initial_nodes = require_count("initial_nodes", initial_nodes, 1,
                                      FaultInjectionError)
        members = set(range(initial_nodes))
        known = set(members)
        minimum = len(members)
        for fault in self.faults:
            name = type(fault).__name__
            if isinstance(fault, NodeJoin):
                if fault.node in members:
                    raise FaultInjectionError(
                        f"{name} at t={fault.at_s:g}s: node {fault.node} "
                        "is already a member"
                    )
                members.add(fault.node)
                known.add(fault.node)
            elif isinstance(fault, (NodeCrash, NodeLeave)):
                if fault.node not in members:
                    raise FaultInjectionError(
                        f"{name} at t={fault.at_s:g}s targets node "
                        f"{fault.node}, which is not a member at that "
                        "point of the schedule"
                    )
                members.discard(fault.node)
                if not members:
                    raise FaultInjectionError(
                        f"{name} at t={fault.at_s:g}s would drop the "
                        "group below one worker"
                    )
                minimum = min(minimum, len(members))
            elif fault.node not in known:
                raise FaultInjectionError(
                    f"{name} targets node {fault.node} but the "
                    f"schedule only ever knows nodes {sorted(known)}"
                )
        check_windows(self.faults)
        return minimum, len(members)

    @property
    def crash_count(self) -> int:
        """Number of permanent node crashes in the plan."""
        return sum(1 for f in self.faults if isinstance(f, NodeCrash))

    @property
    def membership_event_count(self) -> int:
        """Scheduled crashes, leaves and joins (epoch-changing events)."""
        return sum(1 for f in self.faults
                   if isinstance(f, MEMBERSHIP_FAULTS))

    @classmethod
    def poisson(cls, mtbf_s: float, horizon_s: float, num_nodes: int,
                seed: int = 0, kinds: t.Sequence[type] = (NodeCrash,),
                ) -> "FaultPlan":
        """Draw a fault schedule from a Poisson process.

        Inter-arrival times are exponential with mean ``mtbf_s``; each
        arrival picks a uniform victim node and a uniform fault kind
        from ``kinds``.  Crashes never target an already-crashed node
        (the schedule is over distinct victims), and windowed NIC
        faults never overlap an open window on the same node (the draw
        is skipped instead), so a plan can be checked against the
        cluster size up front.
        """
        require_real("mtbf_s", mtbf_s, FaultInjectionError, positive=True)
        require_real("horizon_s", horizon_s, FaultInjectionError,
                     positive=True)
        num_nodes = require_count("num_nodes", num_nodes, 1,
                                  FaultInjectionError)
        kinds = _require_kinds(kinds)
        rng = random.Random(seed)
        faults: list[Fault] = []
        crashed: set[int] = set()
        busy_until: dict[int, float] = {}
        clock = 0.0
        while True:
            clock += rng.expovariate(1.0 / mtbf_s)
            if clock >= horizon_s:
                break
            candidates = [n for n in range(num_nodes) if n not in crashed]
            if not candidates:
                break
            node = rng.choice(candidates)
            kind = kinds[rng.randrange(len(kinds))]
            if kind is NodeCrash:
                crashed.add(node)
                faults.append(NodeCrash(at_s=clock, node=node))
            elif clock >= busy_until.get(node, 0.0):  # else skip the draw
                faults.append(_draw_window(kind, rng, clock, node,
                                           busy_until))
        return cls(faults)

    @classmethod
    def chaos(cls, seed: int, num_nodes: int, horizon_s: float,
              mtbf_s: float | None = None, min_nodes: int = 1,
              max_extra_nodes: int = 2,
              kinds: t.Sequence[type] | None = None) -> "FaultPlan":
        """Draw a membership-aware random schedule for chaos soaking.

        Like :meth:`poisson` but mixes *membership* events (crashes,
        clean leaves, joins of new or previously-lost identities) with
        link-level faults, while tracking the implied membership set so
        the resulting plan always passes :meth:`validate_for`: the group
        never drops below ``min_nodes``, joins never target a current
        member, and windowed NIC faults never overlap an open window on
        the same node.  ``max_extra_nodes`` bounds brand-new identities
        beyond the initial cluster.
        """
        num_nodes = require_count("num_nodes", num_nodes, 1,
                                  FaultInjectionError)
        require_real("horizon_s", horizon_s, FaultInjectionError,
                     positive=True)
        min_nodes = require_count("min_nodes", min_nodes, 1,
                                  FaultInjectionError)
        if min_nodes > num_nodes:
            raise FaultInjectionError(
                "min_nodes must be within [1, num_nodes]")
        max_extra_nodes = require_count("max_extra_nodes", max_extra_nodes,
                                        0, FaultInjectionError)
        kinds = _require_kinds(kinds if kinds is not None else (
            NodeCrash, LinkFlap, BandwidthDegradation, Straggler,
            NodeLeave, NodeJoin))
        mean = mtbf_s if mtbf_s is not None else horizon_s / 6.0
        require_real("mtbf_s", mean, FaultInjectionError, positive=True)
        rng = random.Random(seed)
        members = set(range(num_nodes))
        gone: set[int] = set()  # crashed or departed, eligible to rejoin
        next_new = num_nodes
        busy_until: dict[int, float] = {}
        faults: list[Fault] = []
        clock = 0.0
        while True:
            clock += rng.expovariate(1.0 / mean)
            if clock >= horizon_s:
                break
            kind = kinds[rng.randrange(len(kinds))]
            if kind in (NodeCrash, NodeLeave):
                if len(members) <= min_nodes:
                    continue  # would shrink below the floor; skip draw
                node = rng.choice(sorted(members))
                members.discard(node)
                gone.add(node)
                faults.append(kind(at_s=clock, node=node))
            elif kind is NodeJoin:
                fresh = next_new < num_nodes + max_extra_nodes
                candidates = sorted(gone) + ([next_new] if fresh else [])
                if not candidates:
                    continue
                node = rng.choice(candidates)
                if node == next_new:
                    next_new += 1
                gone.discard(node)
                members.add(node)
                faults.append(NodeJoin(at_s=clock, node=node))
            else:
                idle = [n for n in sorted(members)
                        if clock >= busy_until.get(n, 0.0)]
                if not idle:
                    continue  # every member's NIC window is open
                node = rng.choice(idle)
                faults.append(_draw_window(kind, rng, clock, node,
                                           busy_until))
        return cls(faults)


class FaultInjector:
    """Arms a :class:`FaultPlan` against a live simulation.

    The injector owns the mapping from *original* node indices (the
    coordinates the plan is written in) to indices in the *current*
    cluster, which shrinks as crashed nodes are excised by elastic
    rebuilds.  After each rebuild the driver calls :meth:`retarget` with
    the new cluster/network; pending faults whose victim has already
    crashed become no-ops.
    """

    def __init__(self, sim: Simulator, cluster: Cluster,
                 network: FluidNetwork,
                 obs: Observability | None = None) -> None:
        self.sim = sim
        self.cluster = cluster
        self.network = network
        #: The run's observability; fault events are counted and put on
        #: its timeline.
        self.obs = obs or Observability.disabled()
        #: Original node ids of the nodes present in the current cluster,
        #: in cluster order: ``_current[i]`` is the original identity of
        #: current node ``i``.
        self._current: list[int] = list(range(cluster.num_nodes))
        #: Original ids of permanently crashed nodes.
        self._crashed: set[int] = set()
        #: Original ids of nodes that departed cleanly (scale-down).
        self._departed: set[int] = set()
        #: Every identity the injector has ever known (initial members
        #: plus admitted joiners); joins of unknown ids extend it.
        self._known: set[int] = set(self._current)
        #: Crashes not yet consumed by the recovery driver
        #: (:meth:`take_pending_dead`), in original-node coordinates.
        self._pending_dead: list[int] = []
        #: Clean departures announced but not yet excised at an epoch
        #: boundary (:meth:`take_pending_leaves`).
        self._pending_leaves: list[int] = []
        #: Join requests awaiting admission at an epoch boundary
        #: (:meth:`take_pending_joins`).
        self._pending_joins: list[int] = []
        #: Injection time per crashed original node.
        self.crash_times: dict[int, float] = {}
        #: Announce time per departed original node.
        self.leave_times: dict[int, float] = {}
        #: Request time per joined original node (latest join wins).
        self.join_times: dict[int, float] = {}
        #: Original capacities of links we have squashed, for restore.
        self._saved_caps: dict[Link, float] = {}

    # -- wiring ---------------------------------------------------------------

    def arm(self, plan: FaultPlan) -> None:
        """Schedule every fault in ``plan`` for delivery."""
        plan.validate_for(self.cluster)
        for fault in plan:
            self.sim.spawn(self._deliver(fault),
                           name=f"fault:{type(fault).__name__}@{fault.at_s:g}")

    def retarget(self, cluster: Cluster, network: FluidNetwork) -> None:
        """Point the injector at the post-rebuild cluster.

        Must be called with *no intervening sim-time advancement* after
        the new cluster is built, so no fault can land in between.  The
        surviving original node ids, in order, become the new cluster's
        node indices — the same survivor ordering the rebuild uses.
        Nodes excised by :meth:`depart` or added by :meth:`admit` are
        already reflected in the current membership.
        """
        survivors = [n for n in self._current if n not in self._crashed]
        if len(survivors) != cluster.num_nodes:
            raise FaultInjectionError(
                f"retarget: cluster has {cluster.num_nodes} nodes but "
                f"{len(survivors)} original nodes survive"
            )
        self._current = survivors
        self.cluster = cluster
        self.network = network
        self._saved_caps.clear()

    # -- membership transitions (epoch boundaries) ----------------------------

    @property
    def membership(self) -> tuple[int, ...]:
        """Current members, original ids, in cluster-index order."""
        return tuple(n for n in self._current if n not in self._crashed)

    def depart(self, nodes: t.Sequence[int]) -> None:
        """Excise cleanly departing ``nodes`` (original ids).

        Called by the elastic driver at an epoch boundary after draining
        :meth:`take_pending_leaves`; must be followed by a rebuild +
        :meth:`retarget` with no intervening simulated time.
        """
        for node in nodes:
            if node not in self._current:
                raise FaultInjectionError(
                    f"depart: node {node} is not a current member"
                )
            if node in self._crashed:
                raise FaultInjectionError(
                    f"depart: node {node} crashed; use the recovery path"
                )
            self._departed.add(node)
        self._current = [n for n in self._current if n not in set(nodes)]

    def admit(self, nodes: t.Sequence[int]) -> None:
        """Admit joining ``nodes`` (original ids) as new members.

        A previously crashed or departed identity may rejoin: its
        crashed/departed marks are cleared, and the rebuild that follows
        builds a fresh :class:`~repro.sim.topology.Cluster` with no
        failed marks.  Joiners are appended after the survivors, so
        existing members keep their cluster indices.
        """
        for node in nodes:
            if node in self._current:
                raise FaultInjectionError(
                    f"admit: node {node} is already a member"
                )
            self._crashed.discard(node)
            self._departed.discard(node)
            self._known.add(node)
            self._current.append(node)

    @property
    def has_pending_dead(self) -> bool:
        """True when crashes await the recovery driver.

        The elastic driver polls this between boundary transitions: a
        crash landing mid-reconfigure hands the boundary back to the
        crash-recovery path (remaining leaves/joins are re-queued).
        """
        return bool(self._pending_dead)

    def requeue_leaves(self, nodes: t.Sequence[int]) -> None:
        """Put drained-but-unprocessed departures back at queue front."""
        self._pending_leaves = [n for n in nodes
                                if n not in self._pending_leaves] + \
            self._pending_leaves

    def requeue_joins(self, nodes: t.Sequence[int]) -> None:
        """Put drained-but-unprocessed join requests back at queue front."""
        self._pending_joins = [n for n in nodes
                               if n not in self._pending_joins] + \
            self._pending_joins

    def take_pending_dead(self) -> list[int]:
        """Return-and-clear crashes not yet consumed by recovery.

        Coordinates are original node ids; the recovery driver drains
        this after catching :class:`~repro.errors.PeerDeadError` to
        learn who actually died (possibly more than one node, if
        crashes landed close together).
        """
        dead, self._pending_dead = self._pending_dead, []
        return dead

    def take_pending_leaves(self) -> list[int]:
        """Return-and-clear announced clean departures (original ids).

        Drained by the elastic driver at iteration boundaries; nodes
        that crashed between the announcement and the boundary are
        dropped (the crash recovery path owns them).
        """
        leaves, self._pending_leaves = self._pending_leaves, []
        return [n for n in leaves
                if n not in self._crashed and n in self._current]

    def take_pending_joins(self) -> list[int]:
        """Return admissible join requests (original ids).

        A rejoin request for a node that crashed but has not been excised
        yet (its recovery is still pending) stays queued for a later
        boundary; a request for a node that is already a live member is
        dropped as a no-op.
        """
        joins, self._pending_joins = self._pending_joins, []
        ready = [n for n in joins if n not in self._current]
        self._pending_joins = [n for n in joins
                               if n in self._current and n in self._crashed]
        return ready

    # -- delivery -------------------------------------------------------------

    def _deliver(self, fault: Fault) -> t.Generator:
        delay = fault.at_s - self.sim.now
        if delay < 0:
            raise FaultInjectionError(
                f"fault at t={fault.at_s:g}s scheduled after that time passed"
            )
        yield self.sim.timeout(delay)
        self.apply(fault)

    def apply(self, fault: Fault) -> None:
        """Apply ``fault`` right now (normally called via :meth:`arm`)."""
        if isinstance(fault, NodeJoin):
            self._apply_join(fault)
            return
        if fault.node in self._crashed:
            return  # victim already dead; nothing left to break
        if fault.node not in self._current:
            return  # defensive: unknown identity after a retarget
        if isinstance(fault, NodeLeave):
            self._apply_leave(fault)
            return
        index = self._current.index(fault.node)
        if isinstance(fault, NodeCrash):
            self._apply_crash(fault, index)
        elif isinstance(fault, WindowFault):
            self._apply_window(fault, index)
        else:
            raise FaultInjectionError(f"unknown fault {fault!r}")

    def _node_links(self, index: int) -> list[Link]:
        links = [self.cluster.nic_out[index], self.cluster.nic_in[index],
                 self.cluster.nvlink[index]]
        return links

    def _apply_crash(self, fault: NodeCrash, index: int) -> None:
        self._crashed.add(fault.node)
        self._pending_dead.append(fault.node)
        self.crash_times[fault.node] = self.sim.now
        self.cluster.fail_node(index)
        for link in self._node_links(index):
            self._squash(link, DEAD_LINK_BPS)
        self.obs.fault_event("inject", self.sim.now, fault="node_crash",
                             node=fault.node)

    def _apply_leave(self, fault: NodeLeave) -> None:
        """Announce a clean departure; excision waits for the boundary.

        The node keeps training (links healthy, collectives complete)
        until the elastic driver drains :meth:`take_pending_leaves` at
        the end of the current iteration — the live-state continuation
        that distinguishes scale-down from crash recovery.
        """
        if fault.node in self._pending_leaves:
            return  # duplicate announcement
        self._pending_leaves.append(fault.node)
        self.leave_times[fault.node] = self.sim.now
        self.obs.fault_event("leave", self.sim.now, node=fault.node)

    def _apply_join(self, fault: NodeJoin) -> None:
        """Record a join request; admission waits for the boundary."""
        if fault.node in self._current and fault.node not in self._crashed:
            return  # already a live member; nothing to admit
        if fault.node in self._pending_joins:
            return  # duplicate request
        self._pending_joins.append(fault.node)
        self.join_times[fault.node] = self.sim.now
        self.obs.fault_event("join", self.sim.now, node=fault.node)

    def _apply_window(self, fault: WindowFault, index: int) -> None:
        """Scale the node's NIC by the fault's factor, then restore.

        A factor of 0 (a flap) takes the NIC down to
        :data:`DEAD_LINK_BPS`.
        """
        nic_links = [self.cluster.nic_out[index], self.cluster.nic_in[index]]
        original = fault.node
        restore: list[tuple[Link, float]] = []
        for link in nic_links:
            before = self._saved_caps.get(link, link.capacity_bps)
            restore.append((link, before))
            self._squash(link, before * fault.nic_factor
                         if fault.nic_factor > 0 else DEAD_LINK_BPS)
        self.obs.fault_event("inject", self.sim.now, fault=fault.event,
                             node=original)

        def _recover() -> t.Generator:
            yield self.sim.timeout(fault.window_s)
            if original in self._crashed or original not in self._current:
                return  # node died/left during the window; stay squashed
            for link, capacity in restore:
                self.network.set_link_capacity(link, capacity)
                self._saved_caps.pop(link, None)
            self.obs.fault_event("recover", self.sim.now, fault=fault.event,
                                 node=original)

        self.sim.spawn(_recover(),
                       name=f"fault-recover:{fault.event}@{original}")

    def _squash(self, link: Link, capacity_bps: float) -> None:
        self._saved_caps.setdefault(link, link.capacity_bps)
        self.network.set_link_capacity(link, capacity_bps)
