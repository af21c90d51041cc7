"""Flow-level (fluid) network model with max-min fair bandwidth sharing.

This module reproduces the mechanism at the heart of the paper: a single
TCP (or RDMA) stream cannot use the full capacity of a physical link, so
concurrent streams are required to saturate it.

Each :class:`Flow` transfers a fixed number of bytes across a set of
:class:`Link` objects.  Rates are assigned by progressive filling (max-min
fairness) subject to an optional **per-flow rate cap** — the per-stream
efficiency limit of the transport protocol.  Whenever a flow starts or
finishes, the allocation is recomputed and every in-flight flow's progress
is advanced.

Scaling to 1024–4096-rank clusters relies on three hot-path properties:

* **Incremental recomputation.**  A flow arrival/departure (or a capacity
  change) only re-solves the *bottleneck component* it touches: the links
  reachable from the changed links by hopping through shared flows.  In a
  non-blocking fabric each NIC pair and each NVLink fabric is its own
  component, so a 32-node cluster re-solves ~1/64th of the flow set per
  event.  Component-local progressive filling performs the *identical*
  floating-point operation sequence a from-scratch global solve would
  (components never interact), so rates — and therefore event times and
  replay digests — are bit-for-bit unchanged.
  :func:`solve_rates_reference` keeps the from-scratch solver alive as the
  oracle for the property-based equivalence tests.

* **Scalar hot state, one water-filling loop.**  Every flow's mutable
  solver state — bits remaining, assigned rate, seconds-to-completion —
  is a plain float attribute on the :class:`Flow`.  Progress
  advancement, the next-completion scan and the completion sweep are
  Python loops over :attr:`FluidNetwork.flows` in creation order: a
  multi-stream step is a long run of events that each see a handful of
  live flows, where per-call numpy dispatch costs more than the loop.
  A *same-path* component — flows sharing one links tuple, cap and
  tenant, alone on those links, such as the concurrent streams of one
  gradient unit over a NIC pair or a lone flow — has a closed form:
  each stream gets the least ``capacity / load`` along the path, or the
  cap.  The solver computes it without walking the component, with the
  same float operations the loop's single round would perform, so
  rates are bit-equal.  Every other component, single- or
  multi-tenant, goes through one job-aware water-filling loop
  (:meth:`FluidNetwork._solve_component`).

* **Flow bundling.**  The members of a collective fan-out split into
  *classes* of capacity-identical members
  (:meth:`FluidNetwork.bundle_classes`); each class of two or more
  collapses into a single :class:`GroupFlow` solver entity, and one
  completion event stands for the whole class.  A member's links are
  either *private* (crossed by no other member of the fan-out) or
  *shared* by every member of its class — an oversubscribed spine
  core, an in-network aggregation trunk.  The group sits on the
  *representative* member's links: it counts once on its private
  links and once per member on its shared links, so ``Link.load``,
  the per-link tenant weights and the water-filling debit all see the
  member-by-member fan-out.  The other members' private links carry
  claim markers.  A member that shares a link with only some of its
  class stays a plain flow, and groups and flows enter in one insert
  with one reallocation (:meth:`FluidNetwork.start_flows`).  A foreign
  flow or a capacity change on a claimed (private) link first splits
  the bundle back into per-member flows; one on a shared link splits
  nothing, since every member sees it alike.  So rates stay exact
  under faults and congestion: bundling thins the *event schedule*
  (fewer wakeups and completions) but never moves a completion time,
  and the timed collectives bundle every class of two or more members
  at any scale.

``start_flow(..., weight=k)`` models ``k`` identical transport streams as
one flow: the flow counts ``k`` toward every traversed link's load,
receives ``k`` fair shares, and its ``rate_cap_bps`` applies per stream.

Every flow-starting call takes its identity explicitly: ``label`` (the
collective algorithm that placed the flow; telemetry only) and ``job``
(the owning tenant; shapes inter-job fairness).  Both are stamped on the
flow at creation and never change.

Capacities and rates are in **bits per second**, sizes in **bits**,
consistent with the rest of :mod:`repro.sim` (time in seconds).
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
import typing as t

from repro.errors import NetworkError, require_real
from repro.sim.events import _PENDING, Event
from repro.sim.kernel import Simulator

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability

#: Relative tolerance used when comparing rates during water-filling.
_EPS = 1e-9

#: A flow with less than half a bit outstanding is complete.  Transfers are
#: at least one byte, so this absorbs floating-point residue from progress
#: accounting without ever completing a fresh flow early.
_COMPLETE_BITS = 0.5

#: A capped flow counts as fabric-throttled only below this fraction of
#: its per-stream rate cap (see ``FluidNetwork._record_flow``).
THROTTLE_DEPTH = 0.5

#: A link's ``(capacity_bps, latency_s)``: a bundle's members must match
#: link for link (see ``FluidNetwork.bundle_classes``).
_link_profile = operator.attrgetter("capacity_bps", "latency_s")


def _check_capacity(name: str, capacity_bps: float) -> None:
    if not math.isfinite(capacity_bps) or capacity_bps <= 0:
        raise NetworkError(
            f"link {name!r} capacity must be positive and finite, "
            f"got {capacity_bps!r}")


def _check_transfer(size_bytes: float, rate_cap_bps: float | None) -> None:
    """Reject a non-finite size or cap before it reaches the solver.

    NaN compares false against everything, so a NaN size, cap or
    capacity would otherwise stall the wakeup scan and hang ``run()``.
    """
    if not math.isfinite(size_bytes):
        raise NetworkError(f"flow size must be finite, got {size_bytes!r}")
    if rate_cap_bps is not None and (not math.isfinite(rate_cap_bps)
                                     or rate_cap_bps <= 0):
        raise NetworkError(
            f"flow rate cap must be positive and finite when given, "
            f"got {rate_cap_bps!r}")


def _check_path(links: t.Sequence["Link"]) -> None:
    """Reject an empty path or one that lists a link twice.

    ``Link.load`` and the solver count a flow once per occurrence of a
    link, so a repeated link would make the flow's rate depend on
    whether other flows share that link.
    """
    count = len(links)
    if not count:
        raise NetworkError("flow must traverse at least one link")
    # Most paths are one or two links: a set only pays off beyond that.
    if (links[0] is links[1] if count == 2
            else count > 2 and len(set(links)) != count):
        raise NetworkError(
            f"flow path lists a link twice: {[link.name for link in links]}")


def _joined(public: Event, count: int) -> t.Callable[[Event], None]:
    """A member-completion callback that fires ``public`` after ``count``.

    ``public`` takes the value of the last member to complete: the
    member transfer duration plus its tail latency.
    """
    pending = [count]

    def _member_done(ev: Event) -> None:
        pending[0] -= 1
        if pending[0] == 0:
            public.succeed(ev.value)

    return _member_done


class _WakeupTimer:
    """A network's one reusable completion wakeup.

    The kernel heap takes it like an event: its entries carry the
    allocation token they were scheduled with, every pop folds
    ``name`` into the replay digest and settles ``_scheduled``, and,
    since ``_value`` stays pending, hands the token to :meth:`succeed`.
    Superseded entries just carry stale tokens, so one object serves
    every reallocation: no event, callback list or bound method is
    allocated per wakeup.  Never yielded to processes.
    """

    __slots__ = ("name", "_scheduled", "_value", "_network")

    def __init__(self) -> None:
        self.name = "network.wakeup"
        #: Heap entries still pending (see :class:`Event`).
        self._scheduled = 0
        self._value = _PENDING
        #: The owning network while an entry is pending.  A timer at
        #: rest holds no reference back, so a finished network is freed
        #: by reference counting, not left to the cycle collector.
        self._network: FluidNetwork | None = None

    def succeed(self, token: int) -> None:
        network = self._network
        if not self._scheduled:
            self._network = None
        network._on_wakeup(token)


class Link:
    """A unidirectional network resource with finite capacity.

    A "link" may model a NIC transmit queue, a NIC receive queue, a switch
    uplink or an NVLink lane — anything whose capacity is shared by flows.
    """

    __slots__ = ("name", "capacity_bps", "latency_s", "flows", "load")

    def __init__(self, name: str, capacity_bps: float, latency_s: float = 0.0) -> None:
        _check_capacity(name, capacity_bps)
        require_real("latency_s", latency_s, NetworkError)
        self.name = name
        self.capacity_bps = float(capacity_bps)
        self.latency_s = float(latency_s)
        # Insertion-ordered (dict-as-set): flows hash by identity, so a
        # plain set would iterate in an address-dependent order and leak
        # run-to-run nondeterminism into rate assignment and completion
        # scheduling.
        self.flows: dict["Flow", None] = {}
        #: Cached total stream weight of the flows on this link — the
        #: water-filling load seed, maintained on flow add/remove so the
        #: solver never rebuilds it from scratch.  Weights are integers,
        #: so the cache is exact regardless of update order.
        self.load: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        gbps = self.capacity_bps / 1e9
        return f"<Link {self.name} {gbps:.1f}Gbps {len(self.flows)} flows>"


class Flow:
    """A single in-flight data transfer across one or more links.

    ``weight`` models a bundle of identical transport streams: the flow
    takes ``weight`` shares of every traversed link and its per-stream
    rate cap scales accordingly (``rate_bps`` is the bundle total).

    The mutable solver state — ``remaining_bits``, ``rate_bps``, the
    cached seconds-to-completion ``_finish_s`` (``inf`` while the rate
    is zero) and the delivered-bits multiplier ``_mult`` — is held in
    plain Python floats, never numpy scalars: kernel times are derived
    from it, and a numpy scalar's ``repr`` would corrupt replay digests.
    The network validates size and cap before it creates a flow.
    """

    __slots__ = ("flow_id", "links", "size_bits", "rate_cap_bps", "done",
                 "started_at", "tail_latency_s", "weight", "label", "job",
                 "remaining_bits", "rate_bps", "_finish_s", "_mult",
                 "_owner")

    _ids = itertools.count()

    #: Links the entity crosses once per member (see :class:`GroupFlow`):
    #: none for a plain flow, so the hot paths test one attribute.
    _shared: tuple[Link, ...] = ()

    def __init__(self, links: t.Sequence[Link],
                 size_bits: float, rate_cap_bps: float | None, done: Event,
                 now: float, tail_latency_s: float = 0.0, weight: int = 1,
                 label: str | None = None, job: str | None = None) -> None:
        _check_path(links)
        if not isinstance(weight, int) or weight < 1:
            raise NetworkError(
                f"flow weight must be a positive integer, got {weight!r}"
            )
        self.flow_id = next(Flow._ids)
        self.links = tuple(links)
        self.size_bits = float(size_bits)
        self.rate_cap_bps = None if rate_cap_bps is None \
            else float(rate_cap_bps)
        self.done = done
        self.started_at = now
        self.tail_latency_s = tail_latency_s
        self.weight = weight
        #: Optional provenance tag (e.g. the collective algorithm that
        #: placed this flow); surfaces in flow telemetry, never in rates.
        self.label = label
        #: Owning tenant (``job_id``) on a shared multi-job fabric.
        #: Unlike ``label`` this *does* shape rate assignment: a link
        #: carrying flows of two or more jobs is shared between the jobs
        #: first, weighted by :attr:`FluidNetwork.job_priorities`, then
        #: among each job's flows.  Untagged (``None``) flows form one
        #: tenant of their own.  On a link with a single tenant the
        #: split is plain per-stream max-min fairness.
        self.job = job
        self.remaining_bits = self.size_bits
        self.rate_bps = 0.0
        self._finish_s = math.inf
        self._mult = 1.0
        #: Public event of the flow group this flow is one member of
        #: (a split or unbundled group), so cancelling the group finds
        #: it; ``None`` for a flow started on its own.
        self._owner: Event | None = None

    def member_link_sets(self) -> tuple[tuple[Link, ...], ...]:
        """Link sets of the transfers this entity stands for.

        A plain flow stands for itself; a :class:`GroupFlow` yields one
        link set per bundled member.  Telemetry (completion records, the
        diagnosis link sampler) iterates these so per-link accounting is
        identical whether or not a fan-out was bundled.
        """
        return (self.links,)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Flow#{self.flow_id} {self.remaining_bits / 8e6:.2f}MB left "
                f"@ {self.rate_bps / 1e9:.2f}Gbps x{self.weight}>")


class GroupFlow(Flow):
    """A bundle of identical member transfers.

    Only the representative member (``member_links[0]``) participates in
    rate solving.  Its ``links`` are the representative's: *private*
    links, which no other member crosses, and the ``shared`` links every
    member crosses.  The group counts ``weight`` on a private link and
    ``n x weight`` on a shared one (``n`` members), and the solver
    debits a shared link once per member, so every residual is the one
    the member-by-member solve computes.  By construction every other
    member would see exactly the same capacities and competitors on its
    own private links (competing entities there are themselves aligned
    group members), so the representative's rate trajectory is exact
    for all members.  ``size_bits`` and ``rate_bps`` are **per member**;
    the delivered-bits multiplier ``_mult`` (the member count) accounts
    for the full fan-out.

    ``member_links`` passed as a tuple is trusted to already be a tuple
    of link tuples (the canonical form) so that repeated launches off a
    cached :class:`FlowBundle` skip the per-member normalisation;
    ``shared`` comes from that handle too (:attr:`FlowBundle.shared`).
    """

    __slots__ = ("member_links", "_shared", "_channel")

    def __init__(self, member_links: t.Sequence[t.Sequence[Link]],
                 size_bits: float, rate_cap_bps: float | None, done: Event,
                 now: float, tail_latency_s: float = 0.0, weight: int = 1,
                 label: str | None = None, job: str | None = None,
                 shared: tuple[Link, ...] = ()) -> None:
        members = member_links if isinstance(member_links, tuple) \
            else tuple(tuple(links) for links in member_links)
        if len(members) < 2:
            raise NetworkError("a flow group needs at least two members")
        self.member_links = members
        self._shared = shared
        #: The :class:`_BundleChannel` whose claim this group rides
        #: (set by the network right after construction).
        self._channel: "_BundleChannel | None" = None
        super().__init__(members[0], size_bits, rate_cap_bps, done,
                         now, tail_latency_s=tail_latency_s, weight=weight,
                         label=label, job=job)
        self._mult = float(len(members))

    def member_link_sets(self) -> tuple[tuple[Link, ...], ...]:
        return self.member_links

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<GroupFlow#{self.flow_id} x{len(self.member_links)} members "
                f"{self.remaining_bits / 8e6:.2f}MB left each "
                f"@ {self.rate_bps / 1e9:.2f}Gbps>")


class FlowBundle:
    """Reusable handle for the member structure of one bundled fan-out.

    Created once by :meth:`FluidNetwork.bundle` or
    :meth:`FluidNetwork.bundle_classes` (which perform the *structural*
    half of bundling validation — member shape, and every link either
    private to one member or crossed by all of them, none of which can
    change at runtime) and then passed to
    :meth:`FluidNetwork.start_flows` on every launch.  ``shared`` holds
    the links every member crosses, in the representative's order,
    found once here rather than on every launch.  The *dynamic* half —
    identical capacity profiles and unoccupied private links — is
    checked when the handle first registers a claim channel, and the
    claim then persists across launches: a steady-state ring unit
    relaunches in O(representative links) instead of revalidating all
    members each step.  Iterates (and sizes) as its member link sets.
    ``bundles=False`` marks a fan-out whose structure can never bundle
    (:meth:`FluidNetwork.start_flow_group` on members of which only some
    share a link): it always launches per member, joined into one event.
    """

    __slots__ = ("members", "shared", "bundles", "_channel")

    def __init__(self, members: tuple[tuple[Link, ...], ...],
                 shared: tuple[Link, ...] = (),
                 bundles: bool = True) -> None:
        self.members = members
        self.shared = shared
        self.bundles = bundles
        self._channel: _BundleChannel | None = None

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> t.Iterator[tuple[Link, ...]]:
        return iter(self.members)


class _BundleChannel:
    """Live claim on one bundle's private links, shared by aligned handles.

    One channel owns each claimed link exclusively (channels are
    link-disjoint by registration), so a foreign touch on any claimed
    link identifies exactly the set of groups whose symmetry it breaks:
    the channel's.  Shared links are never claimed.  ``claimed`` drops
    when the channel is deregistered; handles pointing at a dead channel
    re-register on their next launch.
    """

    __slots__ = ("members", "groups", "claimed")

    def __init__(self, members: tuple[tuple[Link, ...], ...]) -> None:
        self.members = members
        #: Live groups riding this claim, in creation order.
        self.groups: dict[GroupFlow, None] = {}
        self.claimed = True


def solve_rates_reference(flows: t.Iterable[Flow]) -> dict[Flow, float]:
    """From-scratch global max-min fair allocation (the oracle solver).

    This is the pre-incremental algorithm, kept verbatim (modulo weight
    support) as the reference the property-based tests compare the
    incremental solver against.  It does not mutate any flow; it returns
    the rate every active flow *should* carry given the current link
    capacities and memberships.
    """
    unassigned: dict[Flow, None] = dict.fromkeys(flows)
    residual = {link: link.capacity_bps
                for flow in unassigned for link in flow.links}
    load = {link: 0 for link in residual}
    for flow in unassigned:
        for link in flow.links:
            load[link] += flow.weight
    rates: dict[Flow, float] = {}

    def fix(flow: Flow, per_stream_rate: float) -> None:
        rate = max(0.0, per_stream_rate)
        rates[flow] = rate if flow.weight == 1 else rate * flow.weight
        unassigned.pop(flow, None)
        for link in flow.links:
            residual[link] = max(0.0, residual[link] - rates[flow])
            load[link] -= flow.weight

    while unassigned:
        share = math.inf
        for link, cap in residual.items():
            if load[link] > 0:
                share = min(share, cap / load[link])
        if share is math.inf:  # pragma: no cover - defensive
            raise NetworkError("active flows traverse no loaded link")
        capped = [f for f in unassigned
                  if f.rate_cap_bps is not None
                  and f.rate_cap_bps <= share * (1 + _EPS)]
        if capped:
            for flow in capped:
                fix(flow, flow.rate_cap_bps)
            continue
        bottlenecked = [
            f for f in unassigned
            if any(load[l] > 0
                   and residual[l] / load[l] <= share * (1 + _EPS)
                   for l in f.links)
        ]
        for flow in bottlenecked:
            fix(flow, share)
    return rates


class FluidNetwork:
    """Tracks active flows and assigns max-min fair rates with caps.

    Parameters
    ----------
    sim:
        Owning simulator.
    obs:
        Optional :class:`repro.obs.Observability` sink for per-flow
        telemetry and its detectors; a disabled sink is dropped so the
        completion path pays one ``None`` check.
    """

    def __init__(self, sim: Simulator,
                 obs: Observability | None = None) -> None:
        self.sim = sim
        # Insertion-ordered for the same reason as Link.flows: every
        # traversal (progress debits, water-filling, completion sweeps)
        # must visit flows in creation order so that identical runs
        # schedule identical event sequences.  Flows are inserted right
        # after they are created, so insertion order is creation order.
        self.flows: dict[Flow, None] = {}
        #: Links whose flow membership or capacity changed since the last
        #: rate assignment; the solver re-solves only the components
        #: reachable from these (insertion-ordered for reproducibility).
        self._dirty_links: dict[Link, None] = {}
        #: ``link -> channel`` claim markers for every private link a
        #: bundled fan-out stands on (representative links included;
        #: shared links are never claimed).  Each link
        #: is owned by at most one :class:`_BundleChannel`; any foreign
        #: touch on a claimed link splits the channel's groups back into
        #: per-member flows and releases the claim.
        self._claims: dict[Link, _BundleChannel] = {}
        #: Monotonic token used to invalidate stale wakeup entries.
        self._wakeup_token = 0
        #: The one timer every completion wakeup is scheduled on.
        self._timer = _WakeupTimer()
        #: Clock value of the last progress advance.  All flows advance
        #: in lockstep — every public operation advances before mutating
        #: the flow set — so one scalar timestamp replaces the per-flow
        #: ``_last_update`` field the scalar engine carried.
        self._progress_time = -1.0
        #: Raised when some flow may have crossed the completion
        #: threshold; gates the completion sweep in
        #: :meth:`_complete_finished`.
        self._maybe_finished = False
        #: Total bits delivered, for utilisation accounting.
        self.bits_delivered = 0.0
        #: Solver work counters (observability / benchmark forensics):
        #: rate assignments performed, and flows visited doing them.  A
        #: from-scratch solver visits ``len(self.flows)`` per event; the
        #: incremental solver visits only the dirty components.
        self.reallocations = 0
        self.solver_flow_visits = 0
        #: Enabled :class:`repro.obs.Observability` or ``None``; when
        #: set, every completed flow is recorded as a per-link timeline
        #: span with its achieved rate and bottleneck utilisation (Fig.
        #: 3's per-stream link-utilisation measurement), plus flow metrics.
        self.obs = obs if obs is not None and obs.enabled else None
        #: The sink's :class:`repro.obs.detectors.DetectorSuite`, if
        #: any: the fluid model feeds it exact per-link utilisation
        #: intervals (rates are piecewise-constant between advances) and
        #: per-flow throttling verdicts.  Purely observational.
        self.diag = obs.diag if obs is not None else None
        #: ``job_id -> priority weight`` for inter-job fairness at links
        #: shared by several tenants.  Jobs absent from the map, and the
        #: untagged tenant, weigh 1.0.  A priority must be positive and
        #: finite; the solver raises :class:`NetworkError` otherwise.
        self.job_priorities: dict[str, float] = {}

    # -- public API -------------------------------------------------------

    def start_flow(self, links: t.Sequence[Link], size_bytes: float,
                   rate_cap_bps: float | None = None, weight: int = 1, *,
                   label: str | None = None,
                   job: str | None = None) -> Event:
        """Begin transferring ``size_bytes`` across ``links``.

        ``weight`` bundles that many identical transport streams into one
        flow (see :class:`Flow`); ``size_bytes`` is the bundle total and
        ``rate_cap_bps`` stays per stream.  ``label`` and ``job`` tag the
        flow (see :attr:`Flow.label` / :attr:`Flow.job`).

        Returns an event that triggers when the last byte has drained plus
        the sum of the link latencies.  The event's value is the flow's
        transfer duration in seconds.  A non-positive ``size_bytes`` is a
        pure-latency transfer that never enters the rate allocator.

        A plain link sequence takes the steps :meth:`_insert` takes for
        a one-request batch, in the same order, without its batch
        bookkeeping; a :class:`FlowBundle` goes through :meth:`_insert`.
        """
        if links.__class__ is FlowBundle:
            return self._insert(((links, size_bytes, rate_cap_bps, weight),),
                                label, job)[0]
        _check_transfer(size_bytes, rate_cap_bps)
        sim = self.sim
        now = sim.now
        done = sim.event(name="flow.done")
        latency = sum(link.latency_s for link in links)
        if size_bytes <= 0:
            sim._schedule_at(now + latency, done, latency)
            return done
        if self._claims:
            self._split_claimed(links)
        self._advance_progress()
        self._add_flow(Flow(links, size_bytes * 8.0, rate_cap_bps, done, now,
                            tail_latency_s=latency, weight=weight,
                            label=label, job=job))
        self._reallocate()
        return done

    def start_flows(self, requests: t.Sequence[tuple[
            "FlowBundle | t.Sequence[Link]", float, float | None, int]], *,
            label: str | None = None,
            job: str | None = None) -> list[Event]:
        """Begin a same-instant fan-out in one insert.

        ``requests`` is a sequence of ``(links, size_bytes, rate_cap_bps,
        weight)`` tuples, all tagged with the same ``label`` and ``job``.
        ``links`` may be a :class:`FlowBundle`, whose members then start
        as one flow group with one event, exactly as
        :meth:`start_flow_group` would; any other ``links`` starts one
        flow, exactly as :meth:`start_flow` would.  Max-min rates are a
        pure function of the resulting flow set and no simulated time
        passes between same-instant arrivals, so the result is the same
        as starting each request on its own — but the allocator runs
        **once** for the whole fan-out, and no superseded intermediate
        wakeups enter the kernel heap.  Returns one event per request.
        """
        return self._insert(requests, label, job)

    def _insert(self, requests: t.Iterable[tuple[
            "FlowBundle | t.Sequence[Link]", float, float | None, int]],
            label: str | None, job: str | None) -> list[Event]:
        """Insert same-instant transfers and re-allocate once.

        A :class:`FlowBundle` request enters as one :class:`GroupFlow`
        on its claim channel when bundling is exact right now, else as
        per-member flows joined into the request's event.  Plain flows
        (per-member ones included) and a group's shared links split any
        bundle whose claimed links they touch; a group whose channel a
        later request of this same insert released, by evicting its
        claim or by such a split, enters per member too.  Pure-latency
        requests are scheduled directly and touch nothing.
        """
        sim = self.sim
        now = sim.now
        events: list[Event] = []
        #: ``(links or members, handle, channel, size_bytes, cap, weight,
        #: done, latency)`` per positive-size request, in request order.
        pending: list[tuple] = []
        #: Link sets of the plain flows about to enter, and the shared
        #: links of the groups.
        loose: list[t.Sequence[Link]] = []
        groups = 0
        for links, size_bytes, rate_cap_bps, weight in requests:
            _check_transfer(size_bytes, rate_cap_bps)
            if links.__class__ is FlowBundle:
                handle: FlowBundle | None = links
                links = links.members
                done = sim.event(name="flowgroup.done")
                latency = sum(link.latency_s for link in links[0])
            else:
                handle = None
                done = sim.event(name="flow.done")
                latency = sum(link.latency_s for link in links)
            events.append(done)
            if size_bytes <= 0:
                sim._schedule_at(now + latency, done, latency)
                continue
            channel = None
            if handle is None:
                loose.append(links)
            else:
                channel = handle._channel
                if channel is None or not channel.claimed:
                    channel = handle._channel = self._register_bundle(handle)
                if channel is None:
                    loose.extend(links)
                elif handle.shared:
                    loose.append(handle.shared)
                groups += 1
            pending.append((links, handle, channel, size_bytes,
                            rate_cap_bps, weight, done, latency))
        if not pending:
            return events
        if groups > 1:
            # A later request's registration may have evicted an earlier
            # one's claim.
            for links, handle, channel, *_ in pending:
                if channel is not None and not channel.claimed:
                    loose.extend(links)
        if loose and self._claims:
            self._split_claimed(link for links in loose for link in links)
        self._advance_progress()
        entities: list[Flow] = []
        for (links, handle, channel, size_bytes, rate_cap_bps, weight, done,
             latency) in pending:
            size_bits = size_bytes * 8.0
            if handle is None:
                entities.append(Flow(links, size_bits, rate_cap_bps, done,
                                     now, tail_latency_s=latency,
                                     weight=weight, label=label, job=job))
            elif channel is not None and channel.claimed:
                group = GroupFlow(links, size_bits, rate_cap_bps, done, now,
                                  tail_latency_s=latency, weight=weight,
                                  label=label, job=job, shared=handle.shared)
                group._channel = channel
                channel.groups[group] = None
                entities.append(group)
            else:
                # Bundling is not exact right now: one flow per member,
                # whose completions join into the group's single event.
                member_done = _joined(done, len(links))
                for member in links:
                    inner = sim.event(name="flow.done")
                    inner.add_callback(member_done)
                    flow = Flow(member, size_bits, rate_cap_bps, inner, now,
                                tail_latency_s=sum(link.latency_s
                                                   for link in member),
                                weight=weight, label=label, job=job)
                    flow._owner = done
                    entities.append(flow)
        self._enter(entities)
        return events

    def _enter(self, flows: t.Iterable[Flow]) -> None:
        """Add freshly created entities to the flow set and re-allocate.

        A group enters on its representative links only (``links`` is
        ``member_links[0]``); its other members' private links carry
        claims.
        """
        for flow in flows:
            self._add_flow(flow)
        self._reallocate()

    def _add_flow(self, flow: Flow) -> None:
        """Put one entity on the flow set and its links, marking them dirty.

        A group weighs once per member on its shared links.  The caller
        re-allocates.
        """
        self.flows[flow] = None
        if flow.remaining_bits <= _COMPLETE_BITS:
            self._maybe_finished = True
        weight = flow.weight
        dirty = self._dirty_links
        for link in flow.links:
            link.flows[flow] = None
            link.load += weight
            dirty[link] = None
        shared = flow._shared
        if shared:
            extra = weight * (len(flow.member_links) - 1)
            for link in shared:
                link.load += extra

    def bundle(self, member_links: t.Sequence[t.Sequence[Link]]
               ) -> FlowBundle | None:
        """Precompute a reusable :class:`FlowBundle` handle for a fan-out.

        Performs the structural half of bundling validation — at least
        two members, equal member lengths, no link twice in one member,
        and every link either private to one member or crossed by all of
        them (the handle's ``shared`` links) — which depends only on the
        (immutable) topology, so callers that relaunch the same fan-out
        every step (the timed collectives' wire plans) pay it once.
        Returns ``None`` when the structure can never bundle, e.g. when
        some but not all members share a link; such fan-outs always take
        the per-member path.
        """
        members = member_links if isinstance(member_links, tuple) \
            else tuple(tuple(links) for links in member_links)
        count = len(members)
        if count < 2:
            return None
        rep_len = len(members[0])
        uses: collections.Counter[Link] = collections.Counter()
        for links in members:
            distinct = set(links)
            if len(links) != rep_len or len(distinct) != rep_len:
                return None
            uses.update(distinct)
        if any(1 < used < count for used in uses.values()):
            return None
        return FlowBundle(members, tuple(link for link in members[0]
                                         if uses[link] > 1))

    def bundle_classes(self, runs: t.Sequence[t.Sequence[t.Sequence[Link]]]
                       ) -> list[list["FlowBundle | tuple[Link, ...]"]]:
        """Split a fan-out into the :meth:`start_flows` entries it bundles as.

        ``runs`` lists the member link sets of each *uniform run* — the
        members of one run share bytes, cap and weight, so only their
        links differ.  A run's members split into *classes* by their
        ``(capacity_bps, latency_s)`` link profile, the profile the
        claim channel compares.  A link of a member is *private* when no
        other member of the fan-out crosses it, and *shared* when every
        member of the member's class crosses it — every hop through an
        oversubscribed core, say; members of other classes or runs may
        cross it too.  A member with a link that is neither — one it
        shares with only some of its class — stays its link tuple.  The
        other members of a class of two or more become one
        :class:`FlowBundle` whose ``shared`` links are its members'
        shared links; a lone member stays its link tuple.  Returns one
        entry list per run, classes in order of first member.
        Structure is immutable, so callers that relaunch a fan-out every
        step classify it once; a capacity change at run time only makes
        a class fail its claim and enter per member.
        """
        runs = [[tuple(links) for links in members] for members in runs]
        uses = collections.Counter(itertools.chain.from_iterable(
            itertools.chain.from_iterable(runs)))
        shared = {link for link, count in uses.items() if count > 1}
        entries: list[list[FlowBundle | tuple[Link, ...]]] = []
        for members in runs:
            profiles = [tuple(map(_link_profile, links)) for links in members]
            if shared:
                # ``profile -> link -> members of that class crossing it``.
                sizes = collections.Counter(profiles)
                crossings: dict[tuple, collections.Counter[Link]] = {}
                for profile, links in zip(profiles, members):
                    crossings.setdefault(profile, collections.Counter()) \
                        .update(shared.intersection(links))
            classes: dict[object, list[tuple[Link, ...]]] = {}
            for index, (profile, links) in enumerate(zip(profiles, members)):
                key: object = profile
                if shared and not shared.isdisjoint(links):
                    # A member with a link shared by only some of its
                    # class, or one listed twice, keys on its index: an
                    # entry of its own.
                    crossed, size = crossings[profile], sizes[profile]
                    if len(set(links)) != len(links) or any(
                            crossed[link] < size
                            for link in shared.intersection(links)):
                        key = index
                classes.setdefault(key, []).append(links)
            entries.append([
                FlowBundle(tuple(group), tuple(link for link in group[0]
                                               if link in shared))
                if len(group) > 1 else group[0]
                for group in classes.values()])
        return entries

    def start_flow_group(self,
                         member_links: "FlowBundle | t.Sequence[t.Sequence[Link]]",
                         size_bytes: float,
                         rate_cap_bps: float | None = None,
                         weight: int = 1, *,
                         label: str | None = None,
                         job: str | None = None) -> Event:
        """Begin one identical ``size_bytes`` transfer per member link set.

        The symmetric fan-out of a large collective — one flow per node
        pair, all the same size/cap/weight on capacity-identical paths
        whose links are private or crossed by every member — enters the
        solver as a **single** :class:`GroupFlow` entity when bundling
        is exact (structure via :meth:`bundle`, capacity profile and
        private-link occupancy via the claim channel); otherwise its
        members enter as per-member flows,
        so the returned event's timing is identical either way.  A
        one-request :meth:`start_flows` call.  ``member_links`` may be a
        :class:`FlowBundle` from :meth:`bundle`, in which case the
        steady-state relaunch costs O(representative links) only.
        Returns one event that triggers when every member has drained
        plus the link latencies; its value is the member transfer
        duration plus tail latency.
        """
        if isinstance(member_links, FlowBundle):
            handle = member_links
        else:
            members = tuple(tuple(links) for links in member_links)
            if not members:
                raise NetworkError("a flow group needs at least one member")
            if len(members) == 1:
                return self.start_flow(members[0], size_bytes,
                                       rate_cap_bps=rate_cap_bps,
                                       weight=weight, label=label, job=job)
            handle = self.bundle(members) or FlowBundle(members,
                                                        bundles=False)
        return self._insert(((handle, size_bytes, rate_cap_bps, weight),),
                            label, job)[0]

    def cancel_flow(self, done: Event) -> bool:
        """Abort the in-flight transfer whose completion event is ``done``.

        The fault-injection hook: an interrupted worker's transfers stop
        consuming bandwidth immediately, and their completion events are
        simply never fired (matching a hung NCCL collective, which is
        detected by timeout, not by an error).  Bandwidth is
        re-allocated to the survivors at once.  ``done`` may be a flow
        group's event: every live member stops, whether the group is
        bundled, split by a foreign touch or entered per member.
        Returns ``False`` when no in-flight flow owns ``done`` (already
        completed, zero-byte, or never started) — cancelling twice is a
        harmless no-op.

        The cancelled allocation's wakeup entry stays in the kernel
        heap.  Re-allocating takes a new wakeup token, so that entry
        pops as a no-op and never advances progress.
        """
        owned = [flow for flow in self.flows
                 if flow.done is done or flow._owner is done]
        if not owned:
            return False
        self._advance_progress()
        for flow in owned:
            self._retire_flow(flow)
        self._reallocate()
        return True

    def set_link_capacity(self, link: Link, capacity_bps: float) -> None:
        """Change a link's capacity mid-simulation.

        The paper's auto-tuner exists partly because "the underlying
        network infrastructure ... can vary during runtime" (§I) — this
        is the hook that varies it.  In-flight flows are re-allocated
        immediately at the new capacity.
        """
        _check_capacity(link.name, capacity_bps)
        if self._claims:
            # A capacity change on any bundled member's private link
            # breaks the symmetry bundling relies on; split first so the
            # degraded member is solved individually.  A shared link is
            # never claimed: every member sees its change alike.
            self._split_claimed((link,))
        self._advance_progress()
        link.capacity_bps = float(capacity_bps)
        self._dirty_links[link] = None
        self._reallocate()

    # -- bundling ----------------------------------------------------------

    def _register_bundle(self, handle: FlowBundle) -> _BundleChannel | None:
        """Claim a handle's private links, validating the dynamic half.

        Exactness conditions beyond the structural ones :meth:`bundle`
        already pinned: every member traverses the same capacity/latency
        profile as the representative, and every private link is
        otherwise unoccupied — except by an **aligned** channel
        (identical member partition), whose representatives share the
        same links and therefore keep the symmetry exact; such a channel
        is adopted so concurrent aligned launches (multi-stream
        pipelining) share one claim.  Stale claims of idle misaligned
        channels are evicted.  Shared links are neither checked nor
        claimed: whatever else crosses them, every member sees it alike.
        Runs once per handle lifetime in the steady state; returns
        ``None`` when bundling is not exact right now (or never is).
        """
        if not handle.bundles:
            return None
        members = handle.members
        profile = tuple(map(_link_profile, members[0]))
        for links in members:
            if tuple(map(_link_profile, links)) != profile:
                return None
        shared = handle.shared
        private = tuple(link for links in members for link in links
                        if link not in shared)
        claims = self._claims
        channels: dict[int, _BundleChannel] = {}
        for link in private:
            existing = claims.get(link)
            if existing is not None:
                channels[id(existing)] = existing
            elif link.flows:
                return None
        adopted: _BundleChannel | None = None
        for existing in channels.values():
            if existing.members == members:
                adopted = existing
            elif existing.groups:
                return None
            else:
                self._deregister_channel(existing)
        channel = adopted if adopted is not None else _BundleChannel(members)
        for link in private:
            claims[link] = channel
        return channel

    def _deregister_channel(self, channel: _BundleChannel) -> None:
        """Release a channel's link claims; its handles re-register later."""
        claims = self._claims
        for links in channel.members:
            for link in links:
                if claims.get(link) is channel:
                    del claims[link]
        channel.claimed = False

    def _split_claimed(self, links: t.Iterable[Link]) -> None:
        """Split every bundle whose symmetry ``links`` would break.

        Channels are link-disjoint and a channel's split flows land only
        on its own links and on shared links, which no channel claims,
        so the split set is exactly the touched channels' groups — no
        transitive closure across channels is possible.  Splits apply in
        flow-creation order (deterministic regardless of discovery
        order).
        """
        claims = self._claims
        if not claims:
            return
        channels: dict[int, _BundleChannel] = {}
        for link in links:
            channel = claims.get(link)
            if channel is not None:
                channels[id(channel)] = channel
        if not channels:
            return
        groups = [group for channel in channels.values()
                  for group in channel.groups]
        for channel in channels.values():
            self._deregister_channel(channel)
        for group in sorted(groups, key=lambda g: g.flow_id):
            self._split_group(group)

    def _split_group(self, group: GroupFlow) -> None:
        """Replace one bundle with per-member flows, mid-transfer.

        The members inherit the bundle's progress (identical by
        symmetry), its start time and its tail latency; a countdown
        joins their completions into the group's original public event,
        so callers holding it observe nothing.  The caller is expected
        to continue its own operation and re-allocate once.
        """
        self._advance_progress()
        remaining = group.remaining_bits
        self._retire_flow(group)
        public = group.done
        member_done = _joined(public, len(group.member_links))
        for links in group.member_links:
            inner = self.sim.event(name="flow.done")
            inner.add_callback(member_done)
            flow = Flow(links, group.size_bits,
                        group.rate_cap_bps, inner, group.started_at,
                        tail_latency_s=group.tail_latency_s,
                        weight=group.weight, label=group.label,
                        job=group.job)
            flow.remaining_bits = remaining
            flow._owner = public
            self._add_flow(flow)

    # -- engine -----------------------------------------------------------

    def _advance_progress(self) -> None:
        """Debit every active flow for the time elapsed at its current rate.

        Every public operation advances before mutating the flow set, so
        all flows share the same elapsed interval.  If the clock has not
        moved since the last advance the whole update is skipped — the
        common case for batched same-instant arrivals.  A zero-rate flow
        neither progresses nor changes its ``inf`` finish time.
        """
        now = self.sim.now
        if now == self._progress_time:
            return
        elapsed = now - self._progress_time
        if self.diag is not None and self._progress_time >= 0.0 and self.flows:
            # Rates were constant over the elapsed interval, so this
            # samples link utilisation exactly (no polling error).
            self.diag.link_sampler.observe_interval(elapsed, self.flows)
        self._progress_time = now
        delivered = 0.0
        for flow in self.flows:
            rate = flow.rate_bps
            remaining = flow.remaining_bits
            if rate > 0.0:
                sent = rate * elapsed
                if sent > remaining:
                    sent = remaining
                remaining -= sent
                flow.remaining_bits = remaining
                # Projected here once, not redone by the wakeup scan.
                flow._finish_s = remaining / rate
                delivered += sent * flow._mult
            if remaining <= _COMPLETE_BITS:
                self._maybe_finished = True
        self.bits_delivered += delivered

    def _reallocate(self) -> None:
        """Re-run water-filling and schedule the next completion wakeup.

        Finished flows are retired *before* rates are assigned so that their
        bandwidth is immediately redistributed to the survivors.  Each
        step runs only when its flag says there is work: a flow may have
        finished (``_maybe_finished``) or some link changed
        (``_dirty_links``).
        """
        if self._maybe_finished:
            self._complete_finished()
        if self._dirty_links:
            self._assign_rates()
        self._schedule_wakeup()

    def _assign_rates(self) -> None:
        """Incremental progressive-filling max-min fair allocation.

        Only the components reachable from the dirty links are re-solved;
        every other flow keeps its cached rate, which equals what a
        from-scratch solve would assign (components are independent, and
        component-local filling performs the identical float operations).

        A *same-path* component — the flows on a dirty link share one
        links tuple, cap and tenant, and every link on that path holds
        exactly those flows — is solved in closed form without the
        component walk: each stream gets ``min(capacity / load)`` over
        the path, or the shared cap when that is at most the share
        times ``1 + _EPS``.  These are the offer, cap test and freeze of
        the water-filling loop's single round for such a component
        (``load`` is the one tenant's stream weight on every path link,
        so every flow gets the same offer), computed in the same order,
        so rates are bit-equal.  AIACC's concurrent streams of one unit
        over one NIC pair, and any flow alone on its links, take this
        path.  Called only with dirty links.
        """
        self.reallocations += 1
        dirty = self._dirty_links
        self._dirty_links = {}
        # Expand each dirty link to its bottleneck component — the links
        # reachable by hopping through shared flows — and solve every
        # component separately.  Components are independent by
        # construction, so per-component filling performs the identical
        # float operations a merged solve would, while each filling
        # round scans only that component's links and flows (a batched
        # ring fan-out dirties dozens of *disjoint* NIC-pair components
        # at once; merging them would make every round quadratic).
        links_seen: dict[Link, None] = {}
        for start in dirty:
            if start in links_seen:
                continue
            flows = start.flows
            count = len(flows)
            if not count:
                continue  # emptied by departures: no component to solve
            first = next(iter(flows))
            path = first.links
            cap = first.rate_cap_bps
            job = first.job
            share = math.inf
            for link in path:
                if len(link.flows) != count:
                    break
                per_stream = link.capacity_bps / link.load
                if per_stream < share:
                    share = per_stream
            else:
                for flow in flows:
                    if (flow.links != path or flow.rate_cap_bps != cap
                            or flow.job != job):
                        break
                else:
                    if cap is not None and cap <= share * (1 + _EPS):
                        share = cap
                    if share < 0.0:
                        share = 0.0
                    for flow in flows:
                        weight = flow.weight
                        rate = share if weight == 1 else share * weight
                        flow.rate_bps = rate
                        flow._finish_s = (flow.remaining_bits / rate
                                          if rate > 0 else math.inf)
                    for link in path:
                        links_seen[link] = None
                    self.solver_flow_visits += count
                    continue
            links_seen[start] = None
            flows_seen: dict[Flow, None] = {}
            frontier: list[Link] = [start]
            while frontier:
                link = frontier.pop()
                for flow in link.flows:
                    if flow in flows_seen:
                        continue
                    flows_seen[flow] = None
                    for other in flow.links:
                        if other not in links_seen:
                            links_seen[other] = None
                            frontier.append(other)
            self.solver_flow_visits += len(flows_seen)
            self._solve_component(flows_seen)

    def _solve_component(self, flows_seen: dict[Flow, None]) -> None:
        """Water-fill one bottleneck component (in flow-creation order).

        Fairness holds between *tenants* at each link first, then
        between each tenant's streams: a job that opens 16 streams must
        not crowd out a neighbour running 2.  Every round offers each
        unassigned flow the least, over its links, of
        ``residual * prio / prio_sum / tenant_weight`` — the link's
        residual capacity split between the tenants present there
        (proportional to :attr:`job_priorities`), then over the flow's
        tenant's stream weight on the link.  On a link carrying one
        tenant this is ``residual / weight``: plain per-stream max-min.
        Flows whose per-stream cap is at most their offer (within
        ``_EPS``) take the cap; otherwise every flow offered within
        ``_EPS`` of the round's floor is frozen at its offer.  Each
        round fixes at least one flow and debits its rate from its
        links, so surplus released by capped flows is re-offered to the
        survivors in later rounds.

        A group counts, and is debited, once per member on its shared
        links (see :class:`GroupFlow`): the same integer weights and the
        same sequence of float debits as its members would take.

        :meth:`_assign_rates` solves same-path components — a lone flow
        included — in closed form before they get here, so this loop
        sees only components whose flows differ in path, cap or tenant.
        """
        # Global creation order makes the rounds' float operations, and
        # so the rates, independent of how the component was discovered.
        unassigned = dict.fromkeys(sorted(flows_seen,
                                          key=lambda f: f.flow_id))
        priorities = self.job_priorities
        prio: dict[str | None, float] = {}
        residual: dict[Link, float] = {}
        # ``link -> {tenant: summed stream weight of its unassigned
        # flows}``, built once and debited as flows are fixed.
        tenants: dict[Link, dict[str | None, int]] = {}
        for flow in unassigned:
            job = flow.job
            if job not in prio:
                priority = 1.0 if job is None else priorities.get(job, 1.0)
                if not 0.0 < priority < math.inf:
                    raise NetworkError(
                        f"job {job!r} priority must be positive and "
                        f"finite, got {priority!r}")
                prio[job] = priority
            weight = flow.weight
            for link in flow.links:
                weights = tenants.get(link)
                if weights is None:
                    residual[link] = link.capacity_bps
                    tenants[link] = {job: weight}
                else:
                    weights[job] = weights.get(job, 0) + weight
            if flow._shared:
                extra = weight * (len(flow.member_links) - 1)
                for link in flow._shared:
                    tenants[link][job] += extra
        # Summed tenant priorities of every link shared by two or more.
        prio_sum = {link: sum(prio[job] for job in weights)
                    for link, weights in tenants.items() if len(weights) > 1}
        slack = 1 + _EPS

        while unassigned:
            offers: list[float] = []
            capped: list[tuple[Flow, float]] = []
            floor = math.inf
            for flow in unassigned:
                job = flow.job
                offer = math.inf
                for link in flow.links:
                    weights = tenants[link]
                    if len(weights) == 1:
                        per_stream = residual[link] / weights[job]
                    else:
                        per_stream = (residual[link] * prio[job]
                                      / prio_sum[link] / weights[job])
                    if per_stream < offer:
                        offer = per_stream
                offers.append(offer)
                if offer < floor:
                    floor = offer
                cap = flow.rate_cap_bps
                if cap is not None and cap <= offer * slack:
                    capped.append((flow, cap))

            if capped:
                # Flows whose cap is below their offer take the cap and
                # release the surplus to everyone else.
                fixed = capped
            else:
                # Otherwise freeze every flow offered the round's floor.
                threshold = floor * slack
                fixed = [(flow, offer)
                         for flow, offer in zip(unassigned, offers)
                         if offer <= threshold]
                if not fixed:  # pragma: no cover - defensive
                    raise NetworkError(
                        "water-filling round fixed no flow; the offers "
                        f"are inconsistent with their floor {floor!r}")

            for flow, per_stream in fixed:
                rate = per_stream if per_stream > 0.0 else 0.0
                weight = flow.weight
                if weight != 1:
                    rate *= weight
                flow.rate_bps = rate
                flow._finish_s = (flow.remaining_bits / rate
                                  if rate > 0 else math.inf)
                del unassigned[flow]
                job = flow.job
                for link in flow.links:
                    left = residual[link] - rate
                    residual[link] = left if left > 0.0 else 0.0
                    weights = tenants[link]
                    if weights[job] == weight:
                        del weights[job]
                        if len(weights) > 1:
                            prio_sum[link] = sum(prio[other]
                                                 for other in weights)
                    else:
                        weights[job] -= weight
                if flow._shared:
                    self._debit_shared(flow, rate, residual, tenants,
                                       prio, prio_sum)

    @staticmethod
    def _debit_shared(group: Flow, rate: float, residual: dict[Link, float],
                      tenants: dict[Link, dict[str | None, int]],
                      prio: dict[str | None, float],
                      prio_sum: dict[Link, float]) -> None:
        """Debit a fixed group's other members from its shared links.

        The water-filling loop has debited the representative; this
        repeats its debit once per other member, in member order, so
        each shared residual takes the float operations the per-member
        solve performs.
        """
        others = len(group.member_links) - 1
        extra = group.weight * others
        job = group.job
        for link in group._shared:
            left = residual[link]
            for _ in range(others):
                left -= rate
                if left <= 0.0:
                    left = 0.0
            residual[link] = left
            weights = tenants[link]
            if weights[job] == extra:
                del weights[job]
                if len(weights) > 1:
                    prio_sum[link] = sum(prio[other] for other in weights)
            else:
                weights[job] -= extra

    def _retire_flow(self, flow: Flow) -> None:
        """Remove one entity from the flow set and its links.

        A retiring group leaves its channel's claim in place: the
        steady-state relaunch next step reuses it for O(1) validation,
        and an idle claim is evicted lazily by the first foreign touch.
        """
        self.flows.pop(flow, None)
        dirty = self._dirty_links
        weight = flow.weight
        for link in flow.links:
            link.flows.pop(flow, None)
            link.load -= weight
            dirty[link] = None
        shared = flow._shared
        if shared:
            extra = weight * (len(flow.member_links) - 1)
            for link in shared:
                link.load -= extra
        if isinstance(flow, GroupFlow):
            channel = flow._channel
            if channel is not None:
                channel.groups.pop(flow, None)

    def _complete_finished(self) -> None:
        """Fire completion events for flows that have fully drained.

        A flow can only cross the completion threshold inside
        :meth:`_advance_progress` (or arrive already sub-threshold), and
        both paths raise ``_maybe_finished`` — so the caller skips the
        scan while the flag is down.  Completions fire in creation order.
        """
        self._maybe_finished = False
        finished = [flow for flow in self.flows
                    if flow.remaining_bits <= _COMPLETE_BITS]
        now = self.sim.now
        for flow in finished:
            self._retire_flow(flow)
            duration = now - flow.started_at
            tail = flow.tail_latency_s
            if self.obs is not None:
                self._record_flow(flow, duration)
            self.sim._schedule_at(now + tail, flow.done, duration + tail)

    def _record_flow(self, flow: Flow, duration: float) -> None:
        """Record one completed entity's telemetry (obs attached only).

        Bundled groups are unrolled: one record per member, each against
        its own links and bottleneck, so per-link counters, spans and
        diagnosis state are identical whether or not the fan-out was
        bundled (the bundled-diagnosis equivalence tests pin this).
        """
        obs = self.obs
        from repro.obs.timeline import NETWORK_RANK

        for links in flow.member_link_sets():
            bottleneck = min(links, key=lambda link: link.capacity_bps)
            rate = flow.size_bits / duration if duration > 0 \
                else bottleneck.capacity_bps
            utilisation = min(1.0, rate / bottleneck.capacity_bps)
            # A flow is *throttled* when its per-stream achieved rate
            # landed below half its per-stream cap: the fabric, not the
            # endpoint, was the limiter.  The depth threshold separates
            # pathology from healthy multi-stream NIC saturation — N
            # concurrent streams fair-sharing their own NIC sit
            # shallowly below cap by design (that is the multi-stream
            # point), while an oversubscribed shared spine cuts each
            # stream to a fraction of it.
            throttled = (flow.rate_cap_bps is not None and duration > 0
                         and rate / flow.weight
                         < flow.rate_cap_bps * THROTTLE_DEPTH)
            if self.diag is not None:
                self.diag.observe_flow(
                    [link.name for link in links], flow.label,
                    flow.size_bits / 8.0, duration, throttled,
                    job=flow.job)
            span_meta: dict[str, object] = dict(
                lane=bottleneck.name, bytes=flow.size_bits / 8.0,
                rate_bps=rate, utilisation=utilisation,
                capped=flow.rate_cap_bps is not None, throttled=throttled)
            metric_labels: dict[str, str] = {"link": bottleneck.name}
            if flow.label is not None:
                span_meta["algorithm"] = flow.label
                metric_labels["algorithm"] = flow.label
            if flow.job is not None:
                span_meta["job"] = flow.job
                metric_labels["job"] = flow.job
            obs.timeline.span(
                "flow", "net", NETWORK_RANK, flow.started_at, self.sim.now,
                **span_meta)
            registry = obs.registry
            registry.counter(
                "network_flows_total",
                "Completed flows per bottleneck link").inc(**metric_labels)
            registry.counter(
                "network_bytes_total",
                "Bytes delivered per bottleneck link").inc(
                    flow.size_bits / 8.0, **metric_labels)
            registry.histogram(
                "network_flow_utilisation",
                "Per-flow achieved rate over bottleneck link capacity",
                buckets=(0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 0.9, 1.0)).observe(
                    utilisation, link=bottleneck.name)

    def _schedule_wakeup(self) -> None:
        """Schedule the wakeup timer at the earliest next flow completion.

        The next completion is the least cached seconds-to-completion
        over the live flows.  Every call takes a new token, so the
        timer's older heap entries go stale.  Every ``_finish_s`` is a
        Python float (see :class:`Flow`), so no numpy scalar can reach
        the kernel heap.
        """
        self._wakeup_token += 1
        next_finish = math.inf
        for flow in self.flows:
            finish = flow._finish_s
            if finish < next_finish:
                next_finish = finish
        if next_finish == math.inf:
            if self.flows:
                raise NetworkError(
                    "active flows exist but none can make progress "
                    "(all rates are zero)"
                )
            return
        timer = self._timer
        timer._network = self
        sim = self.sim
        sim._schedule_at(sim.now + next_finish, timer, self._wakeup_token)

    def _on_wakeup(self, token: int) -> None:
        """Advance and re-allocate, unless a newer allocation superseded
        this wakeup (``token``, the one it was scheduled with, is
        stale).  Inlines :meth:`_reallocate`: this is the hottest call."""
        if token != self._wakeup_token:
            return
        self._advance_progress()
        if self._maybe_finished:
            self._complete_finished()
        if self._dirty_links:
            self._assign_rates()
        self._schedule_wakeup()
