"""Tests for the fluid network model: fair sharing and per-stream caps."""

import pytest

from repro.errors import NetworkError
from repro.sim import FluidNetwork, Link, Simulator
from repro.sim.network import FlowBundle

from tests.sim.link_usage import link_utilisation

NAN = float("nan")
INF = float("inf")

def make_net(capacity_bps=1e9, latency_s=0.0):
    sim = Simulator()
    net = FluidNetwork(sim)
    link = Link("l0", capacity_bps, latency_s)
    return sim, net, link


class TestLinkValidation:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(NetworkError):
            Link("bad", 0.0)

    def test_rejects_negative_latency(self):
        with pytest.raises(NetworkError):
            Link("bad", 1e9, latency_s=-1)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_rejects_non_finite_capacity(self, value):
        with pytest.raises(NetworkError, match="finite"):
            Link("bad", value)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_rejects_non_finite_latency(self, value):
        with pytest.raises(NetworkError, match="finite"):
            Link("bad", 1e9, latency_s=value)


class TestNonFiniteTransfers:
    """A NaN or infinite size, cap or capacity raises at the call.

    NaN compares false against everything, so letting one through left
    ``sim.run()`` spinning forever (or, for a NaN cap, silently
    uncapped); an infinite size failed late with a misleading message.
    """

    @pytest.mark.parametrize("size", [NAN, INF, -INF])
    def test_start_flow_size(self, size):
        sim, net, link = make_net()
        with pytest.raises(NetworkError, match="size must be finite"):
            net.start_flow([link], size)
        assert not net.flows

    @pytest.mark.parametrize("cap", [NAN, INF, 0.0])
    def test_start_flow_cap(self, cap):
        sim, net, link = make_net()
        with pytest.raises(NetworkError, match="rate cap"):
            net.start_flow([link], 1e6, rate_cap_bps=cap)
        assert not net.flows

    @pytest.mark.parametrize("size, cap", [(NAN, None), (1e6, NAN)])
    def test_start_flows(self, size, cap):
        sim, net, link = make_net()
        with pytest.raises(NetworkError, match="finite"):
            net.start_flows([([link], 1e6, None, 1), ([link], size, cap, 1)])
        assert not net.flows

    @pytest.mark.parametrize("size, cap", [(NAN, None), (INF, None),
                                           (1e6, NAN)])
    def test_start_flow_group(self, size, cap):
        sim = Simulator()
        net = FluidNetwork(sim)
        fanout = [[Link(f"l{i}", 1e9)] for i in range(3)]
        with pytest.raises(NetworkError, match="finite"):
            net.start_flow_group(fanout, size, rate_cap_bps=cap)
        assert not net.flows

    @pytest.mark.parametrize("capacity", [NAN, INF])
    def test_set_link_capacity(self, capacity):
        sim, net, link = make_net()
        net.start_flow([link], 1e6)
        with pytest.raises(NetworkError, match="finite"):
            net.set_link_capacity(link, capacity)
        assert link.capacity_bps == 1e9


class TestSingleFlow:
    def test_uncapped_flow_uses_full_link(self):
        sim, net, link = make_net(capacity_bps=8e9)
        done = net.start_flow([link], size_bytes=1e9)  # 8e9 bits
        sim.run(until=done)
        assert sim.now == pytest.approx(1.0)

    def test_capped_flow_limited_to_cap(self):
        sim, net, link = make_net(capacity_bps=8e9)
        done = net.start_flow([link], size_bytes=1e9, rate_cap_bps=2e9)
        sim.run(until=done)
        assert sim.now == pytest.approx(4.0)

    def test_latency_added_to_completion(self):
        sim, net, link = make_net(capacity_bps=8e9, latency_s=0.5)
        done = net.start_flow([link], size_bytes=1e9)
        sim.run(until=done)
        assert sim.now == pytest.approx(1.5)

    def test_zero_size_flow_is_pure_latency(self):
        sim, net, link = make_net(latency_s=0.25)
        done = net.start_flow([link], size_bytes=0)
        sim.run(until=done)
        assert sim.now == pytest.approx(0.25)

    def test_identity_is_stamped_per_flow(self):
        sim, net, link = make_net(capacity_bps=8e9)
        net.start_flow([link], size_bytes=1e9, label="ring", job="jobA")
        net.start_flows([([link], 1e9, None, 1)], label="ina")
        tags = [(flow.label, flow.job) for flow in net.flows]
        # Each call tags only its own flows; nothing persists between
        # calls on the network itself.
        assert tags == [("ring", "jobA"), ("ina", None)]

    def test_flow_requires_links(self):
        sim = Simulator()
        net = FluidNetwork(sim)
        with pytest.raises(NetworkError):
            net.start_flow([], size_bytes=100)

    @pytest.mark.parametrize("batched", [False, True])
    def test_flow_rejects_a_link_listed_twice(self, batched):
        # Link.load counts a flow once per occurrence, so a repeated link
        # made the flow's rate depend on its neighbours: full capacity
        # while alone, a third of it (and a third idle) beside one more.
        sim, net, link = make_net()
        other = Link("l1", 1e9)
        with pytest.raises(NetworkError, match="twice"):
            if batched:
                net.start_flows([([link, other, link], 1e6, None, 1)])
            else:
                net.start_flow([link, other, link], 1e6)
        assert not net.flows and link.load == 0


class TestFairSharing:
    def test_two_equal_flows_split_link(self):
        sim, net, link = make_net(capacity_bps=8e9)
        d1 = net.start_flow([link], size_bytes=1e9)
        d2 = net.start_flow([link], size_bytes=1e9)
        sim.run(until=sim.all_of([d1, d2]))
        # Each gets 4 Gbps -> 2 seconds for 8 Gbit.
        assert sim.now == pytest.approx(2.0)

    def test_short_flow_finishes_and_releases_bandwidth(self):
        sim, net, link = make_net(capacity_bps=8e9)
        long = net.start_flow([link], size_bytes=1e9)     # 8 Gbit
        short = net.start_flow([link], size_bytes=0.25e9)  # 2 Gbit
        sim.run(until=short)
        # Short flow at 4 Gbps finishes its 2 Gbit in 0.5 s.
        assert sim.now == pytest.approx(0.5)
        sim.run(until=long)
        # Long flow: 2 Gbit done at 0.5s, remaining 6 Gbit at 8 Gbps = 0.75 s.
        assert sim.now == pytest.approx(1.25)

    def test_late_arrival_reallocates(self):
        sim, net, link = make_net(capacity_bps=8e9)
        first = net.start_flow([link], size_bytes=1e9)

        def late_starter():
            yield sim.timeout(0.5)
            done = net.start_flow([link], size_bytes=1e9)
            yield done
            return sim.now

        proc = sim.spawn(late_starter())
        sim.run()
        # First: 4 Gbit in 0.5 s alone, then shares; both need 4 and 8 Gbit.
        # At 4 Gbps each: first done at 0.5 + 1.0 = 1.5, then second alone:
        # 8 - 4 = 4 Gbit sent by 1.5s, remaining 4 Gbit at 8 Gbps = 0.5s.
        assert first.triggered
        assert proc.value == pytest.approx(2.0)

    def test_caps_leave_bandwidth_unused(self):
        # Two flows capped at 30% each can only reach 60% utilisation:
        # the single-TCP-stream effect from the paper.
        sim, net, link = make_net(capacity_bps=10e9)
        cap = 3e9
        d1 = net.start_flow([link], size_bytes=1e9, rate_cap_bps=cap)
        d2 = net.start_flow([link], size_bytes=1e9, rate_cap_bps=cap)
        assert link_utilisation(net, link) == pytest.approx(0.6)
        sim.run(until=sim.all_of([d1, d2]))
        assert sim.now == pytest.approx(8e9 / 3e9)

    def test_many_capped_flows_saturate_link(self):
        sim, net, link = make_net(capacity_bps=10e9)
        flows = [net.start_flow([link], size_bytes=1e9, rate_cap_bps=3e9)
                 for _ in range(5)]
        # 5 * 3 Gbps > 10 Gbps: fair share 2 Gbps each, fully utilised.
        assert link_utilisation(net, link) == pytest.approx(1.0)
        sim.run(until=sim.all_of(flows))
        assert sim.now == pytest.approx(8e9 / 2e9)

    def test_multi_link_flow_bottlenecked_by_slowest(self):
        sim = Simulator()
        net = FluidNetwork(sim)
        fast = Link("fast", 10e9)
        slow = Link("slow", 2e9)
        done = net.start_flow([fast, slow], size_bytes=1e9)
        sim.run(until=done)
        assert sim.now == pytest.approx(4.0)

    def test_cross_traffic_on_shared_link(self):
        sim = Simulator()
        net = FluidNetwork(sim)
        a = Link("a", 10e9)
        shared = Link("shared", 10e9)
        b = Link("b", 10e9)
        f1 = net.start_flow([a, shared], size_bytes=1e9)
        f2 = net.start_flow([b, shared], size_bytes=1e9)
        sim.run(until=sim.all_of([f1, f2]))
        # Both share the middle link at 5 Gbps.
        assert sim.now == pytest.approx(8e9 / 5e9)

    def test_heterogeneous_caps(self):
        sim, net, link = make_net(capacity_bps=10e9)
        capped = net.start_flow([link], size_bytes=1e9, rate_cap_bps=1e9)
        free = net.start_flow([link], size_bytes=1e9)
        # Capped flow pinned at 1 Gbps; free flow gets the remaining 9 Gbps.
        assert link_utilisation(net, link) == pytest.approx(1.0)
        sim.run(until=free)
        assert sim.now == pytest.approx(8e9 / 9e9)
        sim.run(until=capped)
        assert sim.now == pytest.approx(8.0)


class TestJobFairness:
    """Shared links split between tenants by priority, then per stream."""

    def rates(self, net):
        return [(flow.job, flow.rate_bps) for flow in net.flows]

    def test_priorities_weight_tenants_then_streams(self):
        sim, net, link = make_net(capacity_bps=1.2e9)
        net.job_priorities = {"b": 2.0}
        net.start_flow([link], 1e6, job="a")
        net.start_flow([link], 1e6, job="a")
        net.start_flow([link], 1e6, job="b", weight=4)
        assert self.rates(net) == [("a", pytest.approx(0.2e9)),
                                   ("a", pytest.approx(0.2e9)),
                                   ("b", pytest.approx(0.8e9))]

    def test_untagged_traffic_is_not_a_job_named_dash(self):
        sim, net, link = make_net(capacity_bps=1e9)
        net.job_priorities = {"-": 3.0}
        net.start_flow([link], 1e6, job="-")
        net.start_flow([link], 1e6)
        assert self.rates(net) == [("-", pytest.approx(0.75e9)),
                                   (None, pytest.approx(0.25e9))]

    def test_capped_tenant_releases_its_surplus(self):
        sim, net, link = make_net(capacity_bps=1e9)
        net.start_flow([link], 1e6, rate_cap_bps=1e8, job="a")
        net.start_flow([link], 1e6, job="b")
        assert self.rates(net) == [("a", pytest.approx(1e8)),
                                   ("b", pytest.approx(9e8))]

    @pytest.mark.parametrize("priority", [NAN, INF, 0.0, -1.0])
    def test_bad_priority_raises_instead_of_hanging(self, priority):
        # A NaN priority used to give NaN offers and spin ``run()``.
        sim, net, link = make_net()
        net.job_priorities = {"a": priority}
        net.start_flow([link], 1e6, job="a")
        with pytest.raises(NetworkError, match="priority"):
            net.start_flow([link], 1e6, job="b")


class TestAccounting:
    def test_bits_delivered(self):
        sim, net, link = make_net(capacity_bps=8e9)
        done = net.start_flow([link], size_bytes=1e9)
        sim.run(until=done)
        assert net.bits_delivered == pytest.approx(8e9)

    def test_flow_duration_reported(self):
        sim, net, link = make_net(capacity_bps=8e9)
        done = net.start_flow([link], size_bytes=1e9)
        sim.run(until=done)
        assert done.value == pytest.approx(1.0)


class TestDynamicCapacity:
    """Mid-run link capacity changes ('network ... can vary during
    runtime', paper §I)."""

    def test_capacity_drop_slows_flow(self):
        sim, net, link = make_net(capacity_bps=8e9)
        done = net.start_flow([link], size_bytes=1e9)  # 8 Gbit

        def degrade():
            yield sim.timeout(0.5)  # 4 Gbit sent
            net.set_link_capacity(link, 2e9)

        sim.spawn(degrade())
        sim.run(until=done)
        # Remaining 4 Gbit at 2 Gbps = 2 s after the drop.
        assert sim.now == pytest.approx(2.5)

    def test_capacity_raise_speeds_flow(self):
        sim, net, link = make_net(capacity_bps=2e9)
        done = net.start_flow([link], size_bytes=1e9)

        def upgrade():
            yield sim.timeout(1.0)  # 2 Gbit sent
            net.set_link_capacity(link, 6e9)

        sim.spawn(upgrade())
        sim.run(until=done)
        assert sim.now == pytest.approx(2.0)

    def test_flap_cycle(self):
        sim, net, link = make_net(capacity_bps=8e9)
        done = net.start_flow([link], size_bytes=2e9)  # 16 Gbit

        def flapper():
            yield sim.timeout(0.5)   # 4 Gbit
            net.set_link_capacity(link, 1e9)
            yield sim.timeout(1.0)   # +1 Gbit
            net.set_link_capacity(link, 8e9)

        sim.spawn(flapper())
        sim.run(until=done)
        # 16 = 4 + 1 + 11 -> 0.5 + 1.0 + 11/8.
        assert sim.now == pytest.approx(0.5 + 1.0 + 11 / 8)

    def test_invalid_capacity_rejected(self):
        sim, net, link = make_net()
        with pytest.raises(NetworkError):
            net.set_link_capacity(link, 0)

    def test_caps_still_respected_after_raise(self):
        sim, net, link = make_net(capacity_bps=2e9)
        done = net.start_flow([link], size_bytes=1e9, rate_cap_bps=1e9)
        net.set_link_capacity(link, 100e9)
        sim.run(until=done)
        assert sim.now == pytest.approx(8.0)


class TestGroupCancellation:
    """Cancelling a flow group's event retires every live member."""

    def _cancel_twice(self, net, done):
        reallocations = net.reallocations
        assert net.cancel_flow(done)
        assert net.reallocations == reallocations + 1
        assert not net.flows
        assert not net.cancel_flow(done)

    def test_cancel_split_group(self):
        sim = Simulator()
        net = FluidNetwork(sim)
        links = [Link(f"m{i}", 1e9) for i in range(3)]
        done = net.start_flow_group([[link] for link in links], 1e6)
        foreign = net.start_flow([links[1]], 1e6)
        sim.run(until=sim.now + 1e-4)
        assert net.cancel_flow(foreign)
        assert len(net.flows) == 3  # the foreign touch split the bundle
        self._cancel_twice(net, done)
        sim.run()
        assert not done.triggered

    def test_cancel_unbundled_group(self):
        sim = Simulator()
        net = FluidNetwork(sim)
        members = [[Link("fast", 2e9)], [Link("slow", 1e9)]]
        done = net.start_flow_group(members, 1e6)
        assert len(net.flows) == 2  # unequal capacities: per member
        sim.run(until=sim.now + 1e-4)
        self._cancel_twice(net, done)
        sim.run()
        assert not done.triggered

    def test_cancel_bundled_group(self):
        sim = Simulator()
        net = FluidNetwork(sim)
        done = net.start_flow_group([[Link(f"m{i}", 1e9)] for i in range(3)],
                                    1e6)
        assert len(net.flows) == 1
        self._cancel_twice(net, done)


class TestFanOutEntry:
    """``start_flows`` with bundle entries: groups and flows, one insert."""

    def test_mixed_launch_reallocates_once(self):
        sim = Simulator()
        net = FluidNetwork(sim)
        fast = [[Link(f"f{i}", 2e9)] for i in range(3)]
        slow = [Link("s", 1e9)]
        [classes] = net.bundle_classes([fast + [slow]])
        assert len(classes) == 2 and list(classes[0]) == \
            [tuple(links) for links in fast]
        assert classes[1] == tuple(slow)
        events = net.start_flows([(part, 1e6, None, 1) for part in classes])
        assert net.reallocations == 1
        assert len(net.flows) == 2  # one group plus one flow
        sim.run()
        assert [event.value for event in events] == [4e-3, 8e-3]

    def test_class_sharing_links_common_to_all_its_members_bundles(self):
        # Every hop crosses the core: the hops bundle with the core as
        # their shared link, and the group weighs once per member there.
        core = Link("core", 1e9)
        hops = [(Link(f"h{i}", 1e9), core) for i in range(3)]
        fabrics = [(Link(f"nv{i}", 1e9),) for i in range(3)]
        sim = Simulator()
        net = FluidNetwork(sim)
        [hop_class], [fabric_class] = net.bundle_classes([hops, fabrics])
        assert isinstance(hop_class, FlowBundle)
        assert list(hop_class) == hops and hop_class.shared == (core,)
        assert isinstance(fabric_class, FlowBundle)
        assert list(fabric_class) == fabrics and fabric_class.shared == ()
        done = net.start_flows([(hop_class, 1e6, None, 2)])
        [group] = net.flows
        assert core.load == 6 and hops[0][0].load == 2
        assert core not in net._claims
        assert [link in net._claims for link, _core in hops] == [True] * 3
        # Each of the three members gets a third of the core.
        assert group.rate_bps == 1e9 / 3
        assert link_utilisation(net, core) == pytest.approx(1.0)
        sim.run()
        assert done[0].value == pytest.approx(8e6 * 3 / 1e9)
        assert core.load == 0 and not core.flows

    def test_group_debits_a_shared_link_once_per_member(self):
        # Three capped members and a foreign flow cross the core.  The
        # members take their caps first, so the foreign flow gets what
        # is left after all three: 1e9 - 3 x 1e8.
        core = Link("core", 1e9)
        hops = [(Link(f"h{i}", 1e9), core) for i in range(3)]
        net = FluidNetwork(Simulator())
        net.start_flow((core,), 1e6)
        net.start_flow_group(hops, 1e6, rate_cap_bps=1e8)
        foreign, group = net.flows
        assert len(group.member_link_sets()) == 3
        assert group.rate_bps == 1e8 and foreign.rate_bps == 7e8

    def test_shared_link_splits_the_bundle_that_claims_it(self):
        # ``l1`` is a private link of the first fan-out's bundle and the
        # shared link of the second: the second's group must split the
        # first, whose member on ``l1`` now shares it.
        def run(bundled):
            sim = Simulator()
            net = FluidNetwork(sim)
            links = [Link(f"l{i}", 1e9) for i in range(5)]
            first = [[links[0]], [links[1]], [links[2]]]
            second = [[links[3], links[1]], [links[4], links[1]]]
            if bundled:
                events = [net.start_flow_group(first, 1e6),
                          net.start_flow_group(second, 1e6)]
                assert [len(flow.member_link_sets()) for flow in net.flows] \
                    == [1, 1, 1, 2]
            else:
                events = [sim.all_of(net.start_flows(
                    [(member, 1e6, None, 1) for member in fan_out]))
                    for fan_out in (first, second)]
            finished = []
            for event in events:
                event.add_callback(lambda _ev: finished.append(sim.now))
            sim.run()
            return finished

        assert run(True) == run(False) == [pytest.approx(0.024)] * 2

    def test_member_sharing_a_link_with_only_some_stays_plain(self):
        # h0 and h1 also share ``pair``, which h2 and h3 do not cross:
        # h0 and h1 stay plain, while h2 and h3 bundle on the core they
        # share with the whole class.
        core = Link("core", 1e9)
        pair = Link("pair", 1e9)
        hops = [(Link("h0", 1e9), pair, core),
                (Link("h1", 1e9), pair, core),
                (Link("h2", 1e9), Link("x2", 1e9), core),
                (Link("h3", 1e9), Link("x3", 1e9), core)]
        net = FluidNetwork(Simulator())
        [entries] = net.bundle_classes([hops])
        assert entries[:2] == hops[:2]
        [bundle] = entries[2:]
        assert isinstance(bundle, FlowBundle)
        assert list(bundle) == hops[2:] and bundle.shared == (core,)
        assert net.bundle(hops) is None
