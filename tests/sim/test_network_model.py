"""Model-based test of :class:`FluidNetwork`.

A Hypothesis state machine drives random sequences of the network's
public operations — single, batched and bundled flow starts tagged with
no job or one of two prioritised jobs, cancellation, capacity changes
and clock advances — over a small fixed link pool, and checks after
every step that:

1. no link carries more than its capacity (``1e-9`` relative slack)
   and no flow runs above ``cap x weight``; every rate is finite and
   non-negative;
2. when every live flow carries the same job tag, each rate equals what
   the from-scratch :func:`~repro.sim.network.solve_rates_reference`
   oracle assigns;
3. each ``Link.load`` equals the summed weights of the flows on it;
4. the solver hot state (``rate_bps``, ``remaining_bits``,
   ``_finish_s``) holds Python floats, never numpy scalars;
5. every time in the kernel heap is a Python float;
6. each completion event is scheduled at most once, fires at most once,
   never before its flow started, and never after it was cancelled.

At the end of each run the simulation is drained and every
non-cancelled completion must have fired exactly once.
"""

import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.sim import FluidNetwork, Link, Simulator
from repro.sim.network import solve_rates_reference

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
        #: completion event -> (start time, [fire times])
        self.completions = {}
        self.cancelled = set()

    def _track(self, event):
        fires = []
        self.completions[event] = (self.sim.now, fires)
        event.add_callback(lambda ev: fires.append(self.sim.now))

    def _pending(self):
        return [event for event, (_, fires) in self.completions.items()
                if not fires and event not in self.cancelled]

    # -- rules --------------------------------------------------------------

    @rule(ids=link_ids, size=sizes, cap=caps, weight=weights, job=jobs)
    def start_flow(self, ids, size, cap, weight, job):
        links = [self.links[i] for i in ids]
        self._track(self.net.start_flow(links, size, rate_cap_bps=cap,
                                        weight=weight, job=job))

    @rule(requests=st.lists(st.tuples(link_ids, sizes, caps, weights),
                            min_size=1, max_size=4), job=jobs)
    def start_flows(self, requests, job):
        events = self.net.start_flows(
            [([self.links[i] for i in ids], size, cap, weight)
             for ids, size, cap, weight in requests], job=job)
        for event in events:
            self._track(event)

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
        self._track(self.net.start_flow_group(fanout, size, rate_cap_bps=cap,
                                              weight=weight, job=job))

    @rule(index=st.integers(min_value=0))
    def cancel_flow(self, index):
        pending = self._pending()
        if not pending:
            return
        event = pending[index % len(pending)]
        if self.net.cancel_flow(event):
            self.cancelled.add(event)

    @rule(link=st.integers(0, NUM_LINKS - 1),
          capacity=st.sampled_from(CAPACITIES))
    def set_link_capacity(self, link, capacity):
        self.net.set_link_capacity(self.links[link], capacity)

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
            # utilization_of also credits bundled non-representative
            # members, which do not sit in ``link.flows``.
            assert self.net.utilization_of(link) <= 1 + 1e-9, link
        for flow in self.net.flows:
            assert math.isfinite(flow.rate_bps) and flow.rate_bps >= 0.0
            if flow.rate_cap_bps is not None:
                assert flow.rate_bps <= flow.rate_cap_bps * flow.weight

    @invariant()
    def single_tenant_rates_match_reference(self):
        if len({flow.job for flow in self.net.flows}) > 1:
            return  # inter-job weighting: the oracle is per-flow max-min
        for flow, want in solve_rates_reference(self.net.flows).items():
            assert math.isclose(flow.rate_bps, want, rel_tol=1e-7,
                                abs_tol=1e-3), (flow, want)

    @invariant()
    def link_loads_match_flows(self):
        for link in self.links:
            assert link.load == sum(flow.weight for flow in link.flows)
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

    def teardown(self):
        self.sim.run()
        assert not self.net.flows
        for event, (_, fires) in self.completions.items():
            assert len(fires) == (0 if event in self.cancelled else 1)


TestFluidNetworkModel = FluidNetworkMachine.TestCase
