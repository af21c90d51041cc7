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
read them, and both interpreters drive one :class:`NicWindows` record,
each with its own reading.  The injector scales a straggler's NIC by
``1/slowdown``, while the cluster stretches the tenant's compute phase
by ``slowdown``.  A flap takes the NIC to :data:`DEAD_LINK_BPS` in the
injector and to ``DEAD_NIC_FRACTION`` (1e-4) of base capacity in the
cluster.

A :class:`FaultPlan` is an immutable, time-sorted schedule of faults;
a :class:`FaultInjector` arms the plan against a live simulator/cluster/
network triple.  The injector keeps no record of the worker group: it
holds the membership announcements not yet applied and the NIC windows
still open, and the recovery driver hands it each rebuilt cluster with
the group's members via :meth:`FaultInjector.retarget`.

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
    victim's original node id: its index in the original cluster, or a
    new identity a join admits.  In a rebuilt cluster the victim's
    index is its position in the members passed to
    :meth:`FaultInjector.retarget`.
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

    The injector reads this as a NIC window (:attr:`nic_factor` is
    ``1/slowdown``).  The cluster runtime stretches the tenant's compute
    phase by ``slowdown`` instead; it opens no NIC window for it.
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
#: The injector's queue entry kind of each membership fault.
_ANNOUNCED = {NodeCrash: "crash", NodeLeave: "leave", NodeJoin: "join"}


def check_windows(faults: t.Iterable[Fault]) -> None:
    """Reject a window that opens before its node's last one closes.

    ``faults`` must be in time order.  :class:`NicWindows` holds one
    window per node, so a second open would cut the first window short.
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

    def membership_bounds(self, initial_nodes: int) -> tuple[int, int]:
        """Validate the schedule; return ``(min, final)`` member counts.

        ``initial_nodes`` is the size of the cluster the plan is armed
        against; node identities ``0..initial_nodes-1`` are the initial
        members.  Walks the plan in time order tracking the membership
        set it implies (crashes and leaves remove a node, joins add one)
        and raises :class:`~repro.errors.FaultInjectionError`, instead of
        a mid-run ``KeyError``, on the first of:

        * crashes/leaves targeting a node that is not a member at that
          point of the schedule (out-of-range ranks included);
        * joins targeting a node that is already a member;
        * window faults (flap/degradation/straggler) targeting an
          identity the schedule never knows about — former members are
          allowed (the window holds the node's NIC only while it is a
          member);
        * any point where the group would drop below one worker;
        * overlapping windows on the same node (:func:`check_windows`).
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
        the resulting plan always passes :meth:`membership_bounds`: the
        group never drops below ``min_nodes``, joins never target a
        current member, and windowed NIC faults never overlap an open
        window on the same node.  ``max_extra_nodes`` bounds brand-new
        identities beyond the initial cluster.
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


class NicWindows:
    """The open NIC windows of one worker group, at most one per node.

    The one record of when a window opens, ends and moves.  Its owner
    passes in its reading: ``hold(fault)`` puts the window on the node's
    NIC and returns what ``lift(fault, held)`` needs to take it off, or
    ``None`` when the node is not placed.  An open ends its node's
    earlier window (one may open at the instant the last one closes);
    a close ends only its own.  A window opened late closes at
    ``end_s``, one opened on time ``window_s`` later.
    """

    def __init__(self, sim: Simulator,
                 hold: t.Callable[[WindowFault], t.Any],
                 lift: t.Callable[[WindowFault, t.Any], None]) -> None:
        self.sim = sim
        self._hold = hold
        self._lift = lift
        #: Open windows by node id, with what ``hold`` returned.
        self._open: dict[int, tuple[WindowFault, t.Any]] = {}
        self._ended = False

    def arm(self, fault: WindowFault, name: str) -> None:
        """Open ``fault``'s window at ``at_s``, or now if that has passed."""
        def deliver() -> t.Generator:
            if fault.at_s > self.sim.now:
                yield self.sim.timeout(fault.at_s - self.sim.now)
            self.open(fault)
        self.sim.spawn(deliver(), name=name)

    def open(self, fault: WindowFault) -> t.Any:
        """Open ``fault``'s window now; return what ``hold`` returned."""
        now = self.sim.now
        if self._ended or now >= fault.end_s:
            return None
        self._end(fault.node)
        held = self._hold(fault)
        self._open[fault.node] = (fault, held)
        self.sim.spawn(
            self._close(fault, fault.window_s if now <= fault.at_s
                        else fault.end_s - now),
            name=f"fault-recover:{fault.event}@{fault.node}")
        return held

    def _close(self, fault: WindowFault, delay: float) -> t.Generator:
        yield self.sim.timeout(delay)
        if self._open.get(fault.node, (None,))[0] is fault:
            self._end(fault.node)

    def _end(self, node: int) -> None:
        fault, held = self._open.pop(node, (None, None))
        if held is not None:
            self._lift(fault, held)

    def lift_all(self) -> None:
        """Take every open window off the placement in use."""
        for node, (fault, held) in self._open.items():
            if held is not None:
                self._lift(fault, held)
            self._open[node] = (fault, None)

    def hold_all(self) -> None:
        """Put what is left of each open window on the placement in use."""
        for node, (fault, _held) in self._open.items():
            self._open[node] = (fault, self._hold(fault))

    def end_all(self) -> None:
        """End every open window and open no more: the group is gone."""
        self.lift_all()
        self._open.clear()
        self._ended = True


class FaultInjector:
    """Arms a :class:`FaultPlan` against a live simulation.

    The injector is not a record of the worker group.  It knows the
    cluster and network in use, the original node id of each cluster
    index (the ``members`` the driver passed to :meth:`retarget`), and
    what no other object knows:

    * the membership announcements not yet applied — crashes, leaves
      and joins, in delivery order.  An announcement that undoes a
      pending one for the same node withdraws both: a join after a
      pending leave (the node never left), a leave or crash after a
      pending join (the node was never admitted).  A crash voids its
      node's pending leave; a leave of a crashed member is dropped,
      since crash recovery owns that node;
    * the NIC windows still open (:attr:`windows`), keyed by original
      node id; each :meth:`retarget` holds what is left of them on the
      rebuilt cluster, so a joiner admitted mid-window gets the rest.

    The driver drains crashes with :meth:`take_crashes` and, at an
    iteration boundary, the net joins and then the net leaves; neither
    is handed out while a crash is pending.
    """

    def __init__(self, sim: Simulator, cluster: Cluster,
                 network: FluidNetwork,
                 obs: Observability | None = None) -> None:
        self.sim = sim
        #: The run's observability; fault events are counted and put on
        #: its timeline.
        self.obs = obs or Observability.disabled()
        #: Announcements not yet applied, in delivery order:
        #: ``(kind, node, at_s)`` with kind ``crash``, ``leave`` or
        #: ``join`` and ``node`` an original id.
        self._queue: list[tuple[str, int, float]] = []
        self.windows = NicWindows(sim, self._scale_nic, self._restore_nic)
        self.retarget(cluster, network, range(cluster.num_nodes))

    # -- wiring ---------------------------------------------------------------

    def arm(self, plan: FaultPlan) -> None:
        """Schedule every fault in ``plan`` for delivery."""
        plan.membership_bounds(self.cluster.num_nodes)
        for fault in plan:
            self.sim.spawn(self._deliver(fault),
                           name=f"fault:{type(fault).__name__}@{fault.at_s:g}")

    def retarget(self, cluster: Cluster, network: FluidNetwork,
                 members: t.Iterable[int]) -> None:
        """Point the injector at a rebuilt cluster.

        ``members`` holds the original node id of each of ``cluster``'s
        nodes, in index order (the group's membership view).  Every open
        window of a member is applied to the new cluster's NIC links.
        Call it with *no intervening sim-time advancement* after the
        cluster is built, so no fault can land in between.
        """
        members = tuple(members)
        if len(members) != cluster.num_nodes:
            raise FaultInjectionError(
                f"retarget: cluster has {cluster.num_nodes} nodes but "
                f"{len(members)} members were given"
            )
        self.cluster = cluster
        self.network = network
        #: Cluster index of each original node id in :attr:`cluster`.
        self._index = {node: i for i, node in enumerate(members)}
        self.windows.hold_all()

    # -- the driver's side of the queue ---------------------------------------

    def take_crashes(self) -> list[tuple[int, float]]:
        """Return-and-clear pending crashes as ``(node, at_s)`` pairs.

        The recovery driver drains this after catching
        :class:`~repro.errors.PeerDeadError` to learn who died and when
        (possibly more than one node, if crashes landed close together).
        """
        return [(node, at_s) for _, node, at_s in self._take("crash")]

    def take_joins(self) -> tuple[int, ...]:
        """Return-and-clear the net joins an iteration boundary admits.

        Nothing while a crash is pending.
        """
        return tuple(node for _, node, _ in self._take("join"))

    def take_leaves(self) -> tuple[int, ...]:
        """Return-and-clear the net leaves an iteration boundary removes.

        Nothing while a crash is pending.
        """
        return tuple(node for _, node, _ in self._take("leave"))

    def _take(self, kind: str) -> list[tuple[str, int, float]]:
        if kind != "crash" and any(k == "crash" for k, _, _ in self._queue):
            return []
        taken = [entry for entry in self._queue if entry[0] == kind]
        self._queue = [entry for entry in self._queue if entry[0] != kind]
        return taken

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
        if isinstance(fault, WindowFault):
            if self.windows.open(fault) is not None:
                self.obs.fault_event("inject", self.sim.now,
                                     fault=fault.event, node=fault.node)
            return
        kind = _ANNOUNCED.get(type(fault))
        if kind is None:
            raise FaultInjectionError(f"unknown fault {fault!r}")
        node = fault.node
        pending = next((k for k, n, _ in self._queue
                        if n == node and k != "crash"), None)
        index = self._live(node)
        if kind == "join" and pending == "leave":
            self._withdraw("leave", node)  # the node never left
        elif kind != "join" and pending == "join":
            self._withdraw("join", node)  # the node was never admitted
            if kind == "crash":
                return  # no node failed
        elif pending == kind:
            return  # a duplicate
        elif kind == "join" and index is not None:
            return  # a join of a live member
        elif kind != "join" and index is None:
            return  # a leave or crash of a node that is not a live member
        elif kind == "crash":
            self._withdraw("leave", node)  # recovery owns the node
            self.cluster.fail_node(index)
            for link in (self.cluster.nic_out[index],
                         self.cluster.nic_in[index],
                         self.cluster.nvlink[index]):
                self.network.set_link_capacity(link, DEAD_LINK_BPS)
            self._queue.append((kind, node, self.sim.now))
            self.obs.fault_event("inject", self.sim.now, fault="node_crash",
                                 node=node)
            return
        else:
            self._queue.append((kind, node, self.sim.now))
        self.obs.fault_event(kind, self.sim.now, node=node)

    def _withdraw(self, kind: str, node: int) -> None:
        self._queue = [e for e in self._queue if e[:2] != (kind, node)]

    def _live(self, node: int) -> int | None:
        """``node``'s index in the cluster in use, if it is a live member."""
        index = self._index.get(node)
        if index is None or index in self.cluster.failed_nodes:
            return None
        return index

    def _scale_nic(self, fault: WindowFault
                   ) -> tuple[tuple[Link, float], ...] | None:
        """Scale a live member's NIC links by ``fault.nic_factor`` (a
        flap: to :data:`DEAD_LINK_BPS`); return each link with the
        capacity to restore, or ``None`` when the node is not live."""
        index = self._live(fault.node)
        if index is None:
            return None
        held = tuple((link, link.capacity_bps) for link in
                     (self.cluster.nic_out[index], self.cluster.nic_in[index]))
        for link, capacity in held:
            self.network.set_link_capacity(
                link, capacity * fault.nic_factor or DEAD_LINK_BPS)
        return held

    def _restore_nic(self, fault: WindowFault,
                     held: tuple[tuple[Link, float], ...]) -> None:
        if self._live(fault.node) is None:
            return  # died: stay squashed
        for link, capacity in held:
            self.network.set_link_capacity(link, capacity)
        self.obs.fault_event("recover", self.sim.now, fault=fault.event,
                             node=fault.node)
