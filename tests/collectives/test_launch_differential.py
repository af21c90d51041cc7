"""Differential tests of the timed collectives' launch and chain rules.

Two oracles are kept verbatim below.

The first is the launch rule the class split replaced: a launch with
any lone-member run was inserted whole as per-member flows, and a
launch whose runs all had two or more members started each run as one
flow group.  So one congested hop — its own per-stream cap makes it a
lone-member run — unbundled the whole fan-out.  The current rule
bundles every class of capacity-identical members whose links are
private or crossed by every member of the class, and enters the whole
fan-out in one insert.  The old rule's fallback, one plain flow per
member (:func:`_oracle_per_member`), is also the oracle of the spine
grid below: there every hop crosses the oversubscribed core, which the
current rule shares by one group.

The second is the pair of generator processes that ran the
hierarchical and planner schedules phase by phase, yielding each
fan-out's barrier and then a timeout.  Every collective now builds a
list of phases that one callback chain runs instead.

Bundled members are capacity-identical, a group weighs once per member
on the links they all cross, and each chained delay is ``now + delay``
taken at the drain instant, so only the event schedule may change:
every iteration time, every diagnosis finding and every
``collective.*`` timeline span must be identical.

The matrix covers every fan-out the collectives launch (ring,
hierarchical, half-ring, broadcast, all-to-all and the three planner
schedules) on 2-, 4- and 32-node clusters with one congested node, with
and without a capacity change while flows are in flight, plus the
oversubscribed core, which every hop shares.  The chain oracle replaces
only the multi-phase runners, so its matrix is the hierarchical and
planner collectives.
"""

import typing as t

import pytest

from bench.workloads import StepConfig, build_step_context, simulate_step
from repro.collectives import TimedCollectives, ring_volume_bytes
from repro.collectives.planner import PLANNER_ALGORITHMS, CollectivePlanner
from repro.collectives.cost_model import PHASE_SYNC_S
from repro.collectives.timed import _Classes
from repro.obs import NETWORK_RANK, Observability, diagnose
from repro.sim import FluidNetwork, Simulator
from repro.sim.network import FlowBundle, GroupFlow
from repro.sim.topology import Cluster, NodeSpec


def _oracle_per_member(self, runs, label):
    return self.network.start_flows(
        [(links, size_bytes, cap, weight)
         for members, size_bytes, cap, weight in runs
         for links in members], label=label)


def _oracle_launch_runs(self, runs, label):
    network = self.network
    if all(len(members) >= 2 for members, _size, _cap, _weight in runs):
        return [network.start_flow_group(
                    members, size_bytes, rate_cap_bps=cap, weight=weight,
                    label=label)
                for members, size_bytes, cap, weight in runs]
    return _oracle_per_member(self, runs, label)


def _oracle_hierarchical(self, size_bytes: float,
                         cap_scale: float = 1.0):
    """Intra-node RS, g parallel inter-node rings, intra-node AG."""
    m = self.cluster.num_nodes
    g = self.cluster.spec.gpus_per_node
    if m == 1 or g == 1:
        return self._chain(*self._ring(size_bytes, cap_scale))
    spec = self.cluster.spec
    plan = self._wire_plan()

    def schedule() -> t.Generator:
        # Phase 1: intra-node reduce-scatter.
        rs_bytes = size_bytes * (g - 1) / g
        yield self.sim.all_of(self._launch_runs(
            [(members, rs_bytes, None, 1) for members, in plan.nvlink],
            "hierarchical"))
        yield self.sim.timeout((g - 1) * spec.intra_node_latency_s
                               + PHASE_SYNC_S)

        # Phase 2: g parallel inter-node rings on 1/g shards.  The g
        # rings of one hop are symmetric clones (same links, same
        # cap), so they run as one weighted flow per hop.
        shard_hop = ring_volume_bytes(size_bytes / g, m)
        yield self.sim.all_of(self._launch_runs(
            [(members, shard_hop * g, base * cap_scale, g)
             for members, base in plan.hops], "hierarchical"))
        # Exposed overhead is paced by the slowest hop of the
        # inter-node rings, not the default node's NIC.
        shard_chunk_tx = (size_bytes / g / m) * 8.0 / \
            (plan.slowest_base * cap_scale)
        exposed = max(0.0, spec.transport.per_message_overhead_s
                      - shard_chunk_tx)
        yield self.sim.timeout(
            2 * (m - 1) * (spec.inter_node_latency_s + exposed)
            + PHASE_SYNC_S)

        # Phase 3: intra-node all-gather.
        ag_bytes = size_bytes * (g - 1) / g
        yield self.sim.all_of(self._launch_runs(
            [(members, ag_bytes, None, 1) for members, in plan.nvlink],
            "hierarchical"))
        yield self.sim.timeout((g - 1) * spec.intra_node_latency_s)

    return self.sim.spawn(schedule(), name="hier.allreduce")


def _oracle_planned(self, algorithm: str, size_bytes: float,
                    cap_scale: float):
    """Execute a planner-synthesized schedule phase by phase."""
    planner = self._planner
    if planner is None:
        planner = self._planner = CollectivePlanner(self.cluster)
    schedule = planner.plan(algorithm, size_bytes, cap_scale)
    if not schedule.phases:
        return self.sim.timeout(0.0)
    timeline = self.obs.timeline

    def run() -> t.Generator:
        for phase in schedule.phases:
            phase_start = self.sim.now
            specs = [flow.as_request() for flow in phase.flows
                     if flow.size_bytes > 0]
            if specs:
                yield self.sim.all_of(
                    self._launch(specs, label=algorithm))
            if phase.latency_s > 0:
                yield self.sim.timeout(phase.latency_s)
            timeline.span(
                f"collective.{phase.name}", "collective",
                NETWORK_RANK, phase_start, self.sim.now,
                algorithm=algorithm, bytes=size_bytes)

    return self.sim.spawn(run(), name=f"planned.{algorithm}")


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
    """Iteration times, findings digest and collective spans of one
    matrix cell."""
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
    spans = [(span.name, span.start, span.end, span.meta)
             for span in obs.timeline.spans
             if span.name.startswith("collective.")]
    return times, diagnose(obs).findings_digest, spans


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


def _use_process_runners(monkeypatch):
    # The runners returned the collective's event, so they stand in for
    # the whole all-reduce.  That skips its metrics callback, which
    # none of the compared results read.
    allreduce = TimedCollectives.allreduce

    def process_allreduce(self, size_bytes, algorithm="ring",
                          cap_scale=1.0):
        if algorithm == "hierarchical":
            return _oracle_hierarchical(self, size_bytes, cap_scale)
        if algorithm in PLANNER_ALGORITHMS:
            return _oracle_planned(self, algorithm, size_bytes, cap_scale)
        return allreduce(self, size_bytes, algorithm, cap_scale)

    monkeypatch.setattr(TimedCollectives, "allreduce", process_allreduce)


#: The collectives the process runners ran: the chain oracle's matrix.
CHAINED = ("hierarchical", "ina", "halving-doubling", "multi-tree")


@pytest.mark.parametrize(
    "collective, nodes, congested, degrade",
    [cell for cell in CELLS if cell[0] in CHAINED],
    ids=[f"{c}-{n}n-congested{k}-{'degraded' if d else 'steady'}"
         for c, n, k, d in CELLS if c in CHAINED])
def test_phase_chain_matches_process_runners(monkeypatch, collective,
                                             nodes, congested, degrade):
    current = run(collective, nodes, congested, degrade)
    _use_process_runners(monkeypatch)
    assert run(collective, nodes, congested, degrade) == current


@pytest.mark.parametrize("collective", CHAINED)
def test_oversubscribed_core_matches_process_runners(monkeypatch,
                                                     collective):
    current = run(collective, 4, 1, True, core=4.0)
    _use_process_runners(monkeypatch)
    assert run(collective, 4, 1, True, core=4.0) == current


def test_planner_cells_record_collective_spans():
    # The span comparison above is not vacuous: every planner phase
    # records one span per collective.
    _times, _digest, spans = run("ina", 4, 1, False, iterations=1)
    assert spans and all(meta["algorithm"] == "ina"
                         for _name, _start, _end, meta in spans)


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


#: The spine grid: every inter-node hop crosses one oversubscribed core.
SPINE_GRID = [
    StepConfig(f"{model}-{algorithm}-{ranks}r-s{streams}-core{core:g}",
               ranks, streams=streams, model=model, algorithm=algorithm,
               core_oversubscription=core)
    for model in ("resnet50", "vgg16", "bert-large")
    for algorithm in ("ring", "hierarchical")
    for ranks in (32, 256)
    for streams in (1, 8)
    for core in (1.5, 4.0)
]


def _spine_steps(config):
    """Two step times after warm-up, and the events they scheduled."""
    ctx, backend = build_step_context(config)
    before = ctx.sim.events_scheduled
    times = [simulate_step(ctx, backend) for _ in range(2)]
    return times, ctx.sim.events_scheduled - before


@pytest.mark.parametrize("config", SPINE_GRID,
                         ids=[config.name for config in SPINE_GRID])
def test_shared_core_bundles_match_per_member_launch(monkeypatch, config):
    times, events = _spine_steps(config)
    monkeypatch.setattr(TimedCollectives, "_launch_runs",
                        _oracle_per_member)
    oracle_times, oracle_events = _spine_steps(config)
    assert times == oracle_times
    # Not vacuous: the hops through the core entered as groups.
    assert events < oracle_events
