"""Differential test of the timed collectives' launch rule.

The oracle is the launch rule the class split replaced, kept verbatim
below: a launch with any lone-member run was inserted whole as
per-member flows, and a launch whose runs all had two or more members
started each run as one flow group.  So one congested hop — its own
per-stream cap makes it a lone-member run — unbundled the whole fan-out.
The current rule bundles every class of capacity-identical members that
share no link with the rest of the launch instead.  Bundled members are link-disjoint and
capacity-identical, so only the event schedule may change: every
iteration time and every diagnosis finding must be identical.

The matrix covers every fan-out the collectives launch (ring,
hierarchical, half-ring, broadcast, all-to-all and the three planner
schedules) on 2-, 4- and 32-node clusters with one congested node, with
and without a capacity change while flows are in flight, plus the
oversubscribed core, which every hop shares.
"""

import pytest

from repro.collectives import TimedCollectives
from repro.collectives.timed import _Classes
from repro.obs import Observability, diagnose
from repro.sim import FluidNetwork, Simulator
from repro.sim.network import FlowBundle, GroupFlow
from repro.sim.topology import Cluster, NodeSpec


def _oracle_launch_runs(self, runs, label):
    network = self.network
    if all(len(members) >= 2 for members, _size, _cap, _weight in runs):
        return [network.start_flow_group(
                    members, size_bytes, rate_cap_bps=cap, weight=weight,
                    label=label, job=self.job)
                for members, size_bytes, cap, weight in runs]
    return network.start_flows(
        [(links, size_bytes, cap, weight)
         for members, size_bytes, cap, weight in runs
         for links in members], label=label, job=self.job)


def _half_ring(collectives, size):
    sim = collectives.sim

    def both():
        yield collectives.reduce_scatter(size)
        yield collectives.allgather(size)

    return sim.spawn(both())


COLLECTIVES = {
    "ring": lambda c, size: c.allreduce(size, "ring"),
    "hierarchical": lambda c, size: c.allreduce(size, "hierarchical"),
    "half-ring": _half_ring,
    "broadcast": lambda c, size: c.broadcast(size),
    "alltoall": lambda c, size: c.alltoall(size),
    "ina": lambda c, size: c.allreduce(size, "ina"),
    "halving-doubling": lambda c, size: c.allreduce(size,
                                                    "halving-doubling"),
    "multi-tree": lambda c, size: c.allreduce(size, "multi-tree"),
}

#: Concurrent collectives per iteration: the second starts while the
#: first is in flight, as AIACC's streams do.
SIZES = (8e6, 2e6)
STAGGER_S = 2e-4


def run(collective, nodes, congested, degrade, core=1.0, iterations=3):
    """Iteration times and findings digest of one matrix cell."""
    sim = Simulator()
    net = FluidNetwork(sim)
    cluster = Cluster(sim, nodes, NodeSpec(gpus_per_node=2),
                      congested_links={congested: 0.1},
                      core_oversubscription=core)
    obs = Observability(enabled=True)
    obs.attach_detectors()
    net.obs = obs
    net.diag = obs.diag
    collectives = TimedCollectives(sim, net, cluster, obs=obs)
    launch = COLLECTIVES[collective]
    times = []
    # A healthy node's NIC, degraded mid-flight in iteration 1 and
    # restored mid-flight in iteration 2.
    victim = cluster.nic_out[(congested + 1) % nodes]
    capacity = victim.capacity_bps

    def change(new_capacity):
        yield sim.timeout(STAGGER_S * 1.5)
        net.set_link_capacity(victim, new_capacity)

    def iteration(index):
        start = sim.now
        if degrade and index == 1:
            sim.spawn(change(capacity / 3))
        if degrade and index == 2:
            sim.spawn(change(capacity))
        done = []
        for size in SIZES:
            done.append(launch(collectives, size))
            yield sim.timeout(STAGGER_S)
        yield sim.all_of(done)
        times.append(sim.now - start)

    def driver():
        for index in range(iterations):
            yield sim.spawn(iteration(index))

    sim.run(until=sim.spawn(driver()))
    assert not net.flows
    return times, diagnose(obs).findings_digest


CELLS = [
    (collective, nodes, congested, degrade)
    for collective in COLLECTIVES
    for nodes in (2, 4, 32)
    for congested in sorted({0, 1, nodes - 1})
    for degrade in (False, True)
]


@pytest.mark.parametrize(
    "collective, nodes, congested, degrade", CELLS,
    ids=[f"{c}-{n}n-congested{k}-{'degraded' if d else 'steady'}"
         for c, n, k, d in CELLS])
def test_class_bundling_matches_old_launch_rule(monkeypatch, collective,
                                                nodes, congested, degrade):
    current = run(collective, nodes, congested, degrade)
    monkeypatch.setattr(TimedCollectives, "_launch_runs",
                        _oracle_launch_runs)
    assert run(collective, nodes, congested, degrade) == current


@pytest.mark.parametrize("collective", ("ring", "hierarchical", "ina"))
def test_oversubscribed_core_matches_old_launch_rule(monkeypatch,
                                                     collective):
    current = run(collective, 4, 1, True, core=4.0)
    monkeypatch.setattr(TimedCollectives, "_launch_runs",
                        _oracle_launch_runs)
    assert run(collective, 4, 1, True, core=4.0) == current


def test_congested_hop_no_longer_unbundles_the_launch():
    # Node 0's NICs at 10%: hop 0 has its own cap and hop 31 lands on
    # node 0's congested receive side, so the old rule inserted all 32
    # hops as separate flows.  Now hops 1-30 run as one group.
    sim = Simulator()
    net = FluidNetwork(sim)
    cluster = Cluster(sim, 32, NodeSpec(gpus_per_node=2),
                      congested_links={0: 0.1})
    collectives = TimedCollectives(sim, net, cluster)
    (hop0, _cap0), (rest, _cap) = collectives._wire_plan().hops
    assert len(hop0) == 1
    assert type(rest) is _Classes
    bundle, lone = rest.parts
    assert isinstance(bundle, FlowBundle) and len(bundle) == 30
    assert lone == (cluster.nic_out[31], cluster.nic_in[0])
    collectives.allreduce(8e6, "ring")
    entities = list(net.flows)
    assert [len(e.member_links) if isinstance(e, GroupFlow) else 1
            for e in entities] == [1, 30, 1, 32]
