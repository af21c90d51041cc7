"""Differential tests: simulated collectives vs the analytic cost model.

The α–β closed forms in :mod:`repro.collectives.cost_model` and the
flow-level simulation in :mod:`repro.collectives.timed` describe the same
algorithms at different fidelities.  On a symmetric cluster each form
charges the executor's terms one for one — wire time at the binding
rate, each phase's link latency, the exposed per-message overhead, the
pipeline fill and the phase syncs — so every public ``*_time_s`` must
match the simulation to float rounding across ranks × payload × core
oversubscription, with its parameters built by
:meth:`~repro.collectives.cost_model.CostParams.of`.  Both faces must
also agree on *shape*: times grow with payload, hierarchical beats the
flat ring on congested networks, and a faster NIC never makes a
collective slower.

A divergence here usually means a unit mix-up (bits/bytes), a missing
``2(n-1)/n`` volume factor, a latency term one face dropped, or a
topology path that silently stopped contending for the right links.
"""

import pytest

from repro.collectives import TimedCollectives
from repro.collectives.cost_model import (
    CostParams,
    broadcast_time_s,
    halving_doubling_time_s,
    hierarchical_allreduce_time_s,
    ina_time_s,
    multi_tree_time_s,
    ring_allreduce_time_s,
)
from repro.sim import FluidNetwork, Simulator, alibaba_v100_cluster

RANKS = [16, 32, 64, 128, 256]
PAYLOADS_BYTES = [1e6, 16e6, 100e6]
OVERSUBSCRIPTION = [1.0, 2.0, 4.0]
#: World sizes that fit on one 8-GPU node.
SINGLE_NODE_RANKS = [4, 8]

#: Each public closed form and the timed collective it models.  Every
#: rank count here is a power-of-two number of 8-GPU nodes, as
#: halving-doubling requires.
FORMS = {
    "ring": (ring_allreduce_time_s,
             lambda timed, size: timed.allreduce(size, "ring")),
    "hierarchical": (hierarchical_allreduce_time_s,
                     lambda timed, size: timed.allreduce(size,
                                                         "hierarchical")),
    "broadcast": (broadcast_time_s,
                  lambda timed, size: timed.broadcast(size)),
    "halving-doubling": (halving_doubling_time_s,
                         lambda timed, size: timed.allreduce(
                             size, "halving-doubling")),
    "multi-tree": (multi_tree_time_s,
                   lambda timed, size: timed.allreduce(size, "multi-tree")),
    "ina": (ina_time_s, lambda timed, size: timed.allreduce(size, "ina")),
}

#: Relative band of the simulated time around each closed form.  The
#: measured worst case over the grid is float rounding: 3.3e-16 (ring,
#: hierarchical, multi-tree), 0 (broadcast), 6.7e-16 (halving-doubling)
#: and 4.4e-16 (ina); on one node it is at most 2.2e-16.  The band adds
#: a margin of about 1e-12 for a different summation order; a dropped
#: term fails it by orders of magnitude, since the smallest one, a 5 µs
#: NVLink latency, is about 4e-3 of the shortest collective on the grid.
BAND = 1e-12


def make_context(num_gpus, **cluster_kwargs):
    sim = Simulator()
    net = FluidNetwork(sim)
    cluster = alibaba_v100_cluster(sim, num_gpus, **cluster_kwargs)
    return sim, TimedCollectives(sim, net, cluster), cluster


class TestClosedFormsMatchSimulation:
    @pytest.mark.parametrize("oversubscription", OVERSUBSCRIPTION)
    @pytest.mark.parametrize("payload", PAYLOADS_BYTES)
    @pytest.mark.parametrize("ranks", RANKS)
    @pytest.mark.parametrize("form", FORMS)
    def test_simulation_matches_closed_form(self, form, ranks, payload,
                                            oversubscription):
        closed_form, launch = FORMS[form]
        sim, timed, cluster = make_context(
            ranks, core_oversubscription=oversubscription)
        done = launch(timed, payload)
        sim.run(until=done)
        analytic = closed_form(payload, CostParams.of(cluster))
        assert sim.now == pytest.approx(analytic, rel=BAND), (
            f"{form} {ranks}r {payload / 1e6:g}MB {oversubscription:g}:1: "
            f"simulated {sim.now!r}s vs analytic {analytic!r}s"
        )

    @pytest.mark.parametrize("payload", PAYLOADS_BYTES)
    @pytest.mark.parametrize("ranks", SINGLE_NODE_RANKS)
    @pytest.mark.parametrize("form", FORMS)
    def test_single_node_matches_closed_form(self, form, ranks, payload):
        # One node: every all-reduce takes the NVLink ring and the
        # broadcast a single NVLink hop, with no NIC or core on the path.
        closed_form, launch = FORMS[form]
        sim, timed, cluster = make_context(ranks)
        assert cluster.num_nodes == 1
        done = launch(timed, payload)
        sim.run(until=done)
        analytic = closed_form(payload, CostParams.of(cluster))
        assert sim.now == pytest.approx(analytic, rel=BAND), (
            f"{form} {ranks}r {payload / 1e6:g}MB single node: "
            f"simulated {sim.now!r}s vs analytic {analytic!r}s"
        )


class TestRingDifferential:
    @pytest.mark.parametrize("ranks", [4, 8, 16, 32, 64])
    def test_ring_monotone_in_payload(self, ranks):
        durations = []
        for payload in (8e6, 32e6, 128e6):
            sim, timed, _ = make_context(ranks)
            done = timed.allreduce(payload, algorithm="ring")
            sim.run(until=done)
            durations.append(sim.now)
        assert durations == sorted(durations)
        # 16x the bytes must cost visibly more than 2x the time (the
        # bandwidth term dominates at these sizes).
        assert durations[-1] > durations[0] * 2


class TestHierarchicalDifferential:
    @pytest.mark.parametrize("ranks", [32, 64])
    def test_algorithms_agree_on_congested_winner(self, ranks):
        # Both the simulation and the closed forms must rank the
        # hierarchical algorithm ahead of the flat ring once the NIC is
        # the bottleneck (paper §VIII-D: hierarchical wins on congested
        # links).  Congestion is modelled by a degraded NIC.
        payload = 100e6
        times = {}
        for algorithm in ("ring", "hierarchical"):
            sim, timed, cluster = make_context(
                ranks, nic_bandwidth_bps=10e9)
            done = timed.allreduce(payload, algorithm=algorithm)
            sim.run(until=done)
            times[algorithm] = sim.now
        params = CostParams.of(cluster)
        assert times["hierarchical"] < times["ring"]
        assert hierarchical_allreduce_time_s(payload, params) < \
            ring_allreduce_time_s(payload, params)


class TestScalingSanity:
    def test_faster_nic_never_slower(self):
        durations = []
        for nic in (10e9, 30e9, 100e9):
            sim, timed, _ = make_context(32, nic_bandwidth_bps=nic)
            done = timed.allreduce(100e6, algorithm="ring")
            sim.run(until=done)
            durations.append(sim.now)
        assert durations == sorted(durations, reverse=True)

    def test_ring_time_flat_in_world_size_at_fixed_payload(self):
        # 2 S (n-1)/n per hop: hop volume saturates, so inter-node ring
        # time should change by far less than world size does.
        times = {}
        for ranks in (16, 64):
            sim, timed, _ = make_context(ranks)
            done = timed.allreduce(100e6, algorithm="ring")
            sim.run(until=done)
            times[ranks] = sim.now
        assert times[64] < times[16] * 2.5
