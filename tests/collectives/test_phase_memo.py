"""Differential tests of the timed collectives' phase-list memo.

Every all-reduce, half-ring and all-to-all builds its phase list once
per ``(algorithm, size_bytes, cap_scale)`` and classifies each launch
structure once.  The oracles below rebuild each list from scratch on
every call: the ring, hierarchical, half-ring and all-to-all formulas
straight from the cluster, and the planner's schedule through
``plan``, the uniform-run grouping and a fresh
:meth:`~repro.sim.network.FluidNetwork.bundle_classes`.  Both sides are
compared as the ``start_flows`` requests each phase launches — member
link sets, bytes, caps and weights — plus each phase's delay and span
name, and the chain label.
"""

import pytest

from repro.collectives import (
    ALGORITHMS,
    PLANNER_ALGORITHMS,
    TimedCollectives,
    ring_volume_bytes,
)
from repro.collectives.cost_model import PHASE_SYNC_S
from repro.sim import FluidNetwork, Simulator
from repro.sim.network import FlowBundle
from repro.sim.topology import Cluster, NodeSpec

HALF_RINGS = ("reduce_scatter", "allgather")
KINDS = ALGORITHMS + HALF_RINGS + ("alltoall",)

#: ``name: (nodes, gpus per node, congested links, core
#: oversubscription)``.
CLUSTERS = {
    "full-link": (4, 8, None, 1.0),
    "congested": (4, 8, {1: 0.5}, 1.0),
    "spine-4to1": (4, 8, None, 4.0),
    "single-node": (1, 8, None, 1.0),
    "one-gpu-per-node": (4, 1, None, 1.0),
    "congested-spine-8x2": (8, 2, {3: 0.25}, 2.0),
}


def make(name):
    nodes, gpus, congested, core = CLUSTERS[name]
    sim = Simulator()
    net = FluidNetwork(sim)
    cluster = Cluster(sim, nodes, NodeSpec(gpus_per_node=gpus),
                      congested_links=congested,
                      core_oversubscription=core)
    return TimedCollectives(sim, net, cluster)


def _hops(c):
    """``(links, base cap)`` of each node's ring hop (none on one node)."""
    if c.cluster.num_nodes == 1:
        return []
    return [(hop, c.cluster.stream_cap_bps(src))
            for src, hop in c._nic_hops()]


def _fabrics(c):
    """The NVLink fabrics a wire fan-out launches."""
    if c.cluster.num_nodes == 1 or c.cluster.spec.gpus_per_node > 1:
        return list(c.cluster.nvlink)
    return []


def oracle_ring(c, size_bytes, cap_scale):
    cluster = c.cluster
    n, m, spec = cluster.world_size, cluster.num_nodes, cluster.spec
    hop_bytes = ring_volume_bytes(size_bytes, n)
    steps = 2 * (n - 1)
    hops = _hops(c)
    if m > 1:
        slowest = min(cap for _hop, cap in hops) * cap_scale
        chunk_tx = (size_bytes / n) * 8.0 / slowest
        exposed = max(0.0, spec.transport.per_message_overhead_s - chunk_tx)
        delay = steps * exposed + m * spec.inter_node_latency_s + \
            (n - m) * spec.intra_node_latency_s
    else:
        delay = steps * spec.intra_node_latency_s
    specs = [(hop, hop_bytes, cap * cap_scale, 1) for hop, cap in hops]
    specs += [([fabric], hop_bytes, None, 1) for fabric in _fabrics(c)]
    return [(specs, delay, None)], "ring"


def oracle_hierarchical(c, size_bytes, cap_scale):
    cluster = c.cluster
    m, g, spec = cluster.num_nodes, cluster.spec.gpus_per_node, cluster.spec
    if m == 1 or g == 1:
        return oracle_ring(c, size_bytes, cap_scale)
    hops = _hops(c)
    intra_latency = (g - 1) * spec.intra_node_latency_s
    intra = [([fabric], size_bytes * (g - 1) / g, None, 1)
             for fabric in _fabrics(c)]
    shard_hop = ring_volume_bytes(size_bytes / g, m)
    rings = [(hop, shard_hop * g, cap * cap_scale, g) for hop, cap in hops]
    slowest = min(cap for _hop, cap in hops) * cap_scale
    exposed = max(0.0, spec.transport.per_message_overhead_s
                  - (size_bytes / g / m) * 8.0 / slowest)
    return [
        (intra, intra_latency + PHASE_SYNC_S, None),
        (rings, 2 * (m - 1) * (spec.inter_node_latency_s + exposed)
         + PHASE_SYNC_S, None),
        (intra, intra_latency, None),
    ], "hierarchical"


def oracle_half_ring(c, name, size_bytes):
    cluster = c.cluster
    n, m, spec = cluster.world_size, cluster.num_nodes, cluster.spec
    hop_bytes = ring_volume_bytes(size_bytes, n) / 2.0
    latency = spec.inter_node_latency_s if m > 1 \
        else spec.intra_node_latency_s
    specs = [(hop, hop_bytes, cap, 1) for hop, cap in _hops(c)]
    specs += [([fabric], hop_bytes, None, 1) for fabric in _fabrics(c)]
    return [(specs, (n - 1) * latency, None)], name


def oracle_alltoall(c, size_bytes):
    cluster = c.cluster
    n, m = cluster.world_size, cluster.num_nodes
    g, spec = cluster.spec.gpus_per_node, cluster.spec
    specs = []
    if m > 1:
        specs += [(hop, g * size_bytes * (n - g) / n, cap, g)
                  for hop, cap in _hops(c)]
        delay = (n - 1) * spec.inter_node_latency_s
    else:
        delay = (n - 1) * spec.intra_node_latency_s
    if g > 1:
        specs += [([fabric], g * size_bytes * (g - 1) / n, None, 1)
                  for fabric in c.cluster.nvlink]
    return [(specs, delay, None)], "alltoall"


def oracle_planned(c, algorithm, size_bytes, cap_scale):
    # The collectives' own planner: its aggregation link is fixed at
    # construction, and ``plan`` itself keeps no cache.
    schedule = c._planner.plan(algorithm, size_bytes, cap_scale)
    return [([flow.as_request() for flow in phase.flows
              if flow.size_bytes > 0], phase.latency_s, phase.name)
            for phase in schedule.phases], algorithm


def oracle(c, kind, size_bytes, cap_scale):
    if kind == "ring":
        return oracle_ring(c, size_bytes, cap_scale)
    if kind == "hierarchical":
        return oracle_hierarchical(c, size_bytes, cap_scale)
    if kind in PLANNER_ALGORITHMS:
        return oracle_planned(c, kind, size_bytes, cap_scale)
    if kind == "alltoall":
        return oracle_alltoall(c, size_bytes)
    return oracle_half_ring(c, kind, size_bytes)


def _entry(part):
    if part.__class__ is FlowBundle:
        return ("bundle", tuple(map(tuple, part.members)))
    return ("flow", tuple(part))


def uniform_runs(specs):
    """Consecutive specs sharing bytes, cap and weight, as one run each."""
    runs = []
    for links, *shared in specs:
        if runs and runs[-1][1:] == shared:
            runs[-1][0].append(links)
        else:
            runs.append([[links], *shared])
    return runs


def oracle_requests(network, specs):
    """A launch's requests, classified from scratch."""
    runs = uniform_runs(specs)
    classes = network.bundle_classes([run[0] for run in runs])
    return [(_entry(part), size, cap, weight)
            for (_members, size, cap, weight), parts in zip(runs, classes)
            for part in parts]


def memo_requests(runs):
    """The requests :meth:`TimedCollectives._launch_runs` makes of runs:
    a classified run's entries, else one flow per member."""
    return [(_entry(part), size, cap, weight)
            for members, size, cap, weight in runs
            for part in getattr(members, "parts", members)]


def normalize_oracle(network, plan):
    phases, label = plan
    return [(oracle_requests(network, specs), delay, span)
            for specs, delay, span in phases], label


def normalize_memo(plan):
    phases, label = plan
    return [(memo_requests(runs), delay, span)
            for runs, delay, span in phases], label


CASES = [(cluster, kind) for cluster in CLUSTERS for kind in KINDS]


@pytest.mark.parametrize("cluster, kind", CASES,
                         ids=[f"{c}-{k}" for c, k in CASES])
def test_memo_matches_uncached_builders(cluster, kind):
    c = make(cluster)
    caps = (1.0,) if kind in HALF_RINGS + ("alltoall",) else (1.0, 0.5)
    for size_bytes in (8e6, 3e6 + 1, 8e6):
        for cap_scale in caps:
            memo = normalize_memo(c._phases(kind, size_bytes, cap_scale))
            assert memo == normalize_oracle(
                c.network, oracle(c, kind, size_bytes, cap_scale))
    # The repeated 8e6 was a lookup, not a build.
    assert c.phase_plans_built == 2 * len(caps)


def _launches(c, kind, size_bytes):
    """The ``start_flows`` requests of one completed collective."""
    launched = []
    start_flows = c.network.start_flows

    def recording(requests, **kwargs):
        launched.append(list(requests))
        return start_flows(requests, **kwargs)

    c.network.start_flows = recording
    if kind in ALGORITHMS:
        done = c.allreduce(size_bytes, algorithm=kind)
    else:
        done = getattr(c, kind)(size_bytes)
    c.sim.run(until=done)
    del c.network.start_flows
    return launched


@pytest.mark.parametrize("cluster, kind", CASES,
                         ids=[f"{c}-{k}" for c, k in CASES])
def test_same_key_relaunches_the_same_requests(cluster, kind):
    c = make(cluster)
    first = _launches(c, kind, 8e6)
    built = c.phase_plans_built
    second = _launches(c, kind, 8e6)
    assert first and second == first
    assert c.phase_plans_built == built == 1
    # Another size builds its own list but launches the same bundle
    # handles: classes depend on the link sets only.
    handles = [part for launch in first for part, *_ in launch
               if part.__class__ is FlowBundle]
    other = [part for launch in _launches(c, kind, 3e6 + 1)
             for part, *_ in launch if part.__class__ is FlowBundle]
    assert c.phase_plans_built == 2
    assert [id(h) for h in other] == [id(h) for h in handles]
