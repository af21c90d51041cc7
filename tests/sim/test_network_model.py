"""Model-based test of :class:`FluidNetwork`.

A Hypothesis state machine drives random sequences of the network's
public operations — single, batched and bundled flow starts, fan-outs
whose members all cross one or two shared links, and mixed launches
(bundle classes plus lone flows in one insert) tagged with no job or one
of two prioritised jobs, cancellation, capacity changes and clock
advances — over a small fixed link pool, and checks after every step
that:

1. no link carries more than its capacity (``1e-9`` relative slack)
   and no flow runs above ``cap x weight``; every rate is finite and
   non-negative;
2. when every live flow carries the same job tag, each rate equals what
   the from-scratch :func:`~repro.sim.network.solve_rates_reference`
   oracle assigns to every member of it, the oracle seeing each group
   member as a flow of its own;
3. each ``Link.load`` equals the summed weights of the flows on it, a
   group counted once per member that crosses the link (once on a
   private link, once per member on a shared one);
4. the solver hot state (``rate_bps``, ``remaining_bits``,
   ``_finish_s``) holds Python floats, never numpy scalars;
5. every time in the kernel heap is a Python float;
6. each completion event is scheduled at most once, fires at most once,
   never before its flow started, and never after it was cancelled;
7. bytes are conserved: every live flow has ``0 <= remaining_bits <=
   size_bits``, and ``bits_delivered`` equals the bits debited from
   every entity ever started — completed, cancelled or live — each
   counted ``_mult`` times (``1e-9`` relative);
8. bytes are conserved per link: the bits debited from the entities
   crossing a link, each group member counted on its own link set, never
   exceed the integral of the link's capacity over elapsed time, tracked
   across capacity changes (``1e-9`` relative).

At the end of each run the simulation is drained and every
non-cancelled completion must have fired exactly once.  A shadow network
on twin links receives every operation with each flow group started
member by member: bundling must not move a completion, so every
positive-size start completes at the same instant in both (the
ROADMAP's bundled-equals-unbundled invariant), and a cancellation stops
a start in both or in neither.
"""

import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.sim import FluidNetwork, Link, Simulator
from repro.sim.network import FlowBundle, solve_rates_reference

from tests.sim.link_usage import link_utilisation

NUM_LINKS = 5
#: Few distinct capacities and caps, so equal-profile bundles and
#: water-filling ties come up often.
CAPACITIES = (5e8, 1e9, 2e9)
CAPS = (1e8, 4e8, 1.5e9)

link_ids = st.lists(st.integers(0, NUM_LINKS - 1), min_size=1, max_size=3,
                    unique=True)
sizes = st.just(0.0) | st.floats(1e3, 1e7)
caps = st.none() | st.sampled_from(CAPS)
weights = st.integers(1, 3)
#: Untagged traffic plus two tenants of unequal priority.
jobs = st.sampled_from((None, "a", "b"))
JOB_PRIORITIES = {"a": 1.0, "b": 2.0}


class _Member:
    """One member of a live entity, as the reference solver sees it."""

    __slots__ = ("links", "weight", "rate_cap_bps")

    def __init__(self, links, flow):
        self.links = links
        self.weight = flow.weight
        self.rate_cap_bps = flow.rate_cap_bps


@settings(max_examples=40, stateful_step_count=30, deadline=None)
class FluidNetworkMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.net = FluidNetwork(self.sim)
        self.net.job_priorities = dict(JOB_PRIORITIES)
        # The last link adds latency, so its flows finish after a tail
        # and cannot bundle with latency-free members.
        self.links = [Link(f"l{i}", 1e9,
                           latency_s=1e-4 if i == NUM_LINKS - 1 else 0.0)
                      for i in range(NUM_LINKS)]
        self.handles = {}
        self.classes = {}
        # The shadow: twin links, every group started member by member.
        self.shadow_sim = Simulator()
        self.shadow = FluidNetwork(self.shadow_sim)
        self.shadow.job_priorities = dict(JOB_PRIORITIES)
        self.twin = {link: Link(link.name, link.capacity_bps,
                                latency_s=link.latency_s)
                     for link in self.links}
        #: positive-size completion event -> its shadow member events
        self.shadow_of = {}
        #: shadow member event -> [fire times]
        self.shadow_fires = {}
        #: completion event -> (start time, [fire times])
        self.completions = {}
        self.cancelled = set()
        #: starts cancelled at a partly popped instant (see cancel_flow)
        self.raced = set()
        #: every entity seen live -> bits it had delivered when first seen
        self.entities = {}
        #: link -> (capacity integral in bits up to ``since``, ``since``)
        self.capacity_bits = {link: (0.0, 0.0) for link in self.links}

    def _track(self, event):
        fires = []
        self.completions[event] = (self.sim.now, fires)
        event.add_callback(lambda ev: fires.append(self.sim.now))

    def _shadow_start(self, events, requests, job):
        """Start ``requests`` on the shadow, each group member by member.

        ``events`` are the main network's events for ``requests``
        (``(links or FlowBundle or member list, size, cap, weight,
        is_group)``); each positive-size one maps to the shadow events
        of its members.
        """
        self.shadow_sim.run(until=self.sim.now)
        flat, owners = [], []
        for event, (links, size, cap, weight, is_group) in zip(events,
                                                               requests):
            members = links if is_group else [links]
            for member in members:
                flat.append(([self.twin[link] for link in member], size,
                             cap, weight))
                owners.append(event if size > 0 else None)
        for owner, shadow_event in zip(owners,
                                       self.shadow.start_flows(flat,
                                                               job=job)):
            if owner is None:
                continue
            fires = self.shadow_fires[shadow_event] = []
            shadow_event.add_callback(
                lambda ev, fires=fires: fires.append(self.shadow_sim.now))
            self.shadow_of.setdefault(owner, []).append(shadow_event)

    def _pending(self):
        return [event for event, (_, fires) in self.completions.items()
                if not fires and event not in self.cancelled]

    # -- rules --------------------------------------------------------------

    @rule(ids=link_ids, size=sizes, cap=caps, weight=weights, job=jobs)
    def start_flow(self, ids, size, cap, weight, job):
        links = [self.links[i] for i in ids]
        event = self.net.start_flow(links, size, rate_cap_bps=cap,
                                    weight=weight, job=job)
        self._track(event)
        self._shadow_start([event], [(links, size, cap, weight, False)],
                           job)

    @rule(requests=st.lists(st.tuples(link_ids, sizes, caps, weights),
                            min_size=1, max_size=4), job=jobs)
    def start_flows(self, requests, job):
        requests = [([self.links[i] for i in ids], size, cap, weight)
                    for ids, size, cap, weight in requests]
        events = self.net.start_flows(requests, job=job)
        for event in events:
            self._track(event)
        self._shadow_start(events, [(*request, False)
                                    for request in requests], job)

    @rule(order=st.permutations(range(NUM_LINKS)), width=st.integers(1, 2),
          count=st.integers(1, NUM_LINKS), size=sizes, cap=caps,
          weight=weights, reuse_handle=st.booleans(), job=jobs)
    def start_flow_group(self, order, width, count, size, cap, weight,
                         reuse_handle, job):
        count = min(count, NUM_LINKS // width)
        key = tuple(tuple(order[m * width:(m + 1) * width])
                    for m in range(count))
        members = [[self.links[i] for i in ids] for ids in key]
        fanout = members
        if reuse_handle and count >= 2:
            # A cached handle relaunches through its (possibly live)
            # claim channel, as the timed collectives do every step.
            fanout = self.handles.setdefault(key, self.net.bundle(members))
        event = self.net.start_flow_group(fanout, size, rate_cap_bps=cap,
                                          weight=weight, job=job)
        self._track(event)
        self._shadow_start([event], [(members, size, cap, weight, True)],
                           job)

    @rule(order=st.permutations(range(NUM_LINKS)), shared=st.integers(1, 2),
          width=st.integers(1, 2), count=st.integers(2, NUM_LINKS),
          position=st.integers(0, 2), size=sizes, cap=caps, weight=weights,
          launch=st.sampled_from(("list", "handle", "classes")), job=jobs)
    def start_shared_fan_out(self, order, shared, width, count, position,
                             size, cap, weight, launch, job):
        # Every member crosses the ``shared`` links, at one position of
        # its path, plus private links of its own: an oversubscribed
        # core or an aggregation trunk.  The network bundles it with
        # the shared links weighed once per member; the shadow starts
        # it member by member.
        common = [self.links[i] for i in order[:shared]]
        rest = order[shared:]
        if len(rest) // width < 2:
            width = 1
        count = min(count, len(rest) // width)
        position = min(position, width)
        key = tuple(tuple(rest[m * width:(m + 1) * width])
                    for m in range(count))
        members = [[self.links[i] for i in ids[:position]] + common
                   + [self.links[i] for i in ids[position:]]
                   for ids in key]
        handle = self.net.bundle(members)
        assert handle.shared == tuple(common)
        if launch == "list":
            requests = [(members, size, cap, weight)]
            events = [self.net.start_flow_group(
                members, size, rate_cap_bps=cap, weight=weight, job=job)]
        else:
            if launch == "handle":
                # A cached handle relaunches through its claim channel.
                parts = [self.handles.setdefault((key, shared, position),
                                                 handle)]
            else:
                [parts] = self.net.bundle_classes([members])
            requests = [(part, size, cap, weight) for part in parts]
            events = self.net.start_flows(requests, job=job)
        for event in events:
            self._track(event)
        self._shadow_start(events, [
            (list(links) if type(links) is not tuple else links, size, cap,
             weight, type(links) is not tuple)
            for links, size, cap, weight in requests], job)

    @rule(order=st.permutations(range(NUM_LINKS)), width=st.integers(1, 2),
          runs=st.lists(st.tuples(sizes, caps, weights), min_size=1,
                        max_size=3),
          overlap=st.none() | st.tuples(link_ids, sizes, caps, weights,
                                        st.booleans()),
          reuse_classes=st.booleans(), job=jobs)
    def start_mixed_launch(self, order, width, runs, overlap, reuse_classes,
                           job):
        # A link-disjoint fan-out of uniform runs, split into bundle
        # classes and lone members and started in one insert, as the
        # timed collectives launch.  An optional overlapping flow, or
        # bundle of one-link members, in the same insert touches the
        # fan-out's own claims.
        members = [tuple(order[m * width:(m + 1) * width])
                   for m in range(NUM_LINKS // width)]
        key = tuple(tuple(members[r::len(runs)]) for r in range(len(runs))
                    if members[r::len(runs)])
        classes = self.classes.get(key) if reuse_classes else None
        if classes is None:
            classes = self.net.bundle_classes(
                [[[self.links[i] for i in ids] for ids in run]
                 for run in key])
            self.classes[key] = classes
        requests = [(part, size, cap, weight)
                    for parts, (size, cap, weight) in zip(classes, runs)
                    for part in parts]
        if overlap is not None:
            ids, size, cap, weight, as_bundle = overlap
            links = [self.links[i] for i in ids]
            if as_bundle and len(links) >= 2:
                links = self.net.bundle([[link] for link in links])
            requests.append((links, size, cap, weight))
        events = self.net.start_flows(requests, job=job)
        for event in events:
            self._track(event)
        self._shadow_start(events, [
            (list(links) if type(links) is FlowBundle else links, size, cap,
             weight, type(links) is FlowBundle)
            for links, size, cap, weight in requests], job)

    @rule(index=st.integers(min_value=0))
    def cancel_flow(self, index):
        pending = self._pending()
        if not pending:
            return
        event = pending[index % len(pending)]
        cancelled = self.net.cancel_flow(event)
        if cancelled:
            self.cancelled.add(event)
        self.shadow_sim.run(until=self.sim.now)
        shadow = [self.shadow.cancel_flow(member)
                  for member in self.shadow_of.get(event, ())]
        if self.sim._heap and self.sim._heap[0][0] <= self.sim.now:
            # ``step_one_event`` left events of this instant unpopped
            # here, while the shadow popped them all: which side of a
            # completion at this very instant the cancel lands on may
            # differ, so the two starts are not compared.
            self.raced.add(event)
        else:
            assert any(shadow) == cancelled

    @rule(link=st.integers(0, NUM_LINKS - 1),
          capacity=st.sampled_from(CAPACITIES))
    def set_link_capacity(self, link, capacity):
        link = self.links[link]
        bits, since = self.capacity_bits[link]
        self.capacity_bits[link] = (
            bits + link.capacity_bps * (self.sim.now - since), self.sim.now)
        self.net.set_link_capacity(link, capacity)
        self.shadow_sim.run(until=self.sim.now)
        self.shadow.set_link_capacity(self.twin[link], capacity)

    @rule(dt=st.floats(0.0, 0.05))
    def advance(self, dt):
        self.sim.run(until=self.sim.now + dt)

    @rule()
    def step_one_event(self):
        if self.sim._heap:
            self.sim.step()

    # -- invariants ---------------------------------------------------------

    @invariant()
    def rates_within_capacity_and_caps(self):
        for link in self.links:
            # Counted member by member: bundled non-representative
            # members do not sit in ``link.flows``, and a group crosses
            # its shared links once per member.
            assert link_utilisation(self.net, link) <= 1 + 1e-9, link
        for flow in self.net.flows:
            assert math.isfinite(flow.rate_bps) and flow.rate_bps >= 0.0
            if flow.rate_cap_bps is not None:
                assert flow.rate_bps <= flow.rate_cap_bps * flow.weight

    @invariant()
    def single_tenant_rates_match_reference(self):
        if len({flow.job for flow in self.net.flows}) > 1:
            return  # inter-job weighting: the oracle is per-flow max-min
        members = {_Member(links, flow): flow for flow in self.net.flows
                   for links in flow.member_link_sets()}
        for member, want in solve_rates_reference(members).items():
            flow = members[member]
            assert math.isclose(flow.rate_bps, want, rel_tol=1e-7,
                                abs_tol=1e-3), (flow, want)

    @invariant()
    def link_loads_match_flows(self):
        for link in self.links:
            assert link.load == sum(
                flow.weight * sum(link in links
                                  for links in flow.member_link_sets())
                for flow in link.flows)
            assert all(flow in self.net.flows for flow in link.flows)

    @invariant()
    def hot_state_is_python_float(self):
        for flow in self.net.flows:
            for value in (flow.rate_bps, flow.remaining_bits, flow._finish_s):
                assert type(value) is float, (flow, type(value))

    @invariant()
    def heap_times_are_python_floats(self):
        for entry in self.sim._heap:
            assert type(entry[0]) is float, entry

    @invariant()
    def completions_fire_once_after_start(self):
        for event, (started, fires) in self.completions.items():
            assert len(fires) <= 1
            assert event._scheduled <= (0 if event.triggered else 1)
            if event in self.cancelled:
                assert not fires
            assert all(when >= started for when in fires)

    def _debited(self):
        """Entity -> bits debited from each of its members so far."""
        for flow in self.net.flows:
            assert 0.0 <= flow.remaining_bits <= flow.size_bits, flow
            if flow in self.entities:
                continue
            if flow.done in self.completions:
                # A public flow is first seen at the instant it starts.
                assert flow.remaining_bits == flow.size_bits, flow
                self.entities[flow] = 0.0
            else:
                # A split bundle's member: it inherits the progress the
                # retired group already accounts for.
                self.entities[flow] = flow.size_bits - flow.remaining_bits
        return {flow: flow.size_bits - flow.remaining_bits - inherited
                for flow, inherited in self.entities.items()}

    @invariant()
    def bytes_are_conserved(self):
        debited = sum(bits * flow._mult
                      for flow, bits in self._debited().items())
        assert math.isclose(self.net.bits_delivered, debited,
                            rel_tol=1e-9, abs_tol=1e-6), \
            (self.net.bits_delivered, debited)

    @invariant()
    def link_bits_within_capacity(self):
        carried = dict.fromkeys(self.links, 0.0)
        for flow, bits in self._debited().items():
            for member in flow.member_link_sets():
                for link in member:
                    carried[link] += bits
        for link, bits in carried.items():
            offered, since = self.capacity_bits[link]
            offered += link.capacity_bps * (self.sim.now - since)
            assert bits <= offered * (1 + 1e-9) + 1e-6, (link, bits, offered)

    def teardown(self):
        self.sim.run()
        self.shadow_sim.run()
        assert not self.net.flows and not self.shadow.flows
        for event, (_, fires) in self.completions.items():
            assert len(fires) == (0 if event in self.cancelled else 1)
            shadow_fires = [self.shadow_fires[member]
                            for member in self.shadow_of.get(event, ())]
            if shadow_fires and not (event in self.cancelled
                                     or event in self.raced):
                # Bundled or not, a start completes at the same instant.
                assert all(len(times) == 1 for times in shadow_fires)
                assert fires == [max(times[0] for times in shadow_fires)]
        self.bytes_are_conserved()
        self.link_bits_within_capacity()


TestFluidNetworkModel = FluidNetworkMachine.TestCase
