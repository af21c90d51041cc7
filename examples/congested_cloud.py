"""Shared-cloud effects: congestion, oversubscription, algorithm choice.

The paper motivates the tree (hierarchical) all-reduce with exactly this
scenario: "it is useful when some of the physical network links become
congested due to burst communications from other shared cloud users"
(§V-B).  This example shows three shared-cloud effects end to end:

1. a congested node NIC flips the ring-vs-hierarchical choice;
2. an oversubscribed datacenter core slows every concurrent all-reduce;
3. a mid-transfer bandwidth drop (another tenant's burst) stretches an
   in-flight transfer — the runtime variability the §VI auto-tuner
   exists to absorb.

Run:  python examples/congested_cloud.py
"""

from repro.collectives import TimedCollectives
from repro.core.runtime import AIACCConfig
from repro.frameworks import make_backend
from repro.harness import format_table
from repro.sim import FluidNetwork, Simulator
from repro.sim.topology import Cluster, NodeSpec
from repro.training.trainer import run_training


def algorithm_choice() -> None:
    print("1. Ring vs hierarchical all-reduce, healthy vs congested NIC")
    rows = []
    for scenario, links in (("healthy", None), ("congested", {1: 0.25})):
        times = {}
        for algorithm in ("ring", "hierarchical"):
            config = AIACCConfig(num_streams=16, granularity_bytes=8e6,
                                 algorithm=algorithm)
            result = run_training(
                "resnet50", make_backend("aiacc", config=config), 32,
                measure_iterations=2, warmup_iterations=1,
                congested_links=links)
            times[algorithm] = result.mean_iteration_s * 1e3
        rows.append({"scenario": scenario,
                     "ring_ms": times["ring"],
                     "hierarchical_ms": times["hierarchical"],
                     "hier_advantage": times["ring"]
                     / times["hierarchical"]})
    print(format_table(rows))
    print("   -> near-tie on a healthy fabric; congestion makes the "
          "hierarchical algorithm a clear win (paper §V-B).\n")


def oversubscribed_core() -> None:
    print("2. Oversubscribed datacenter core (8 concurrent all-reduces)")
    rows = []
    for factor in (1.0, 2.0, 4.0):
        sim = Simulator()
        net = FluidNetwork(sim)
        cluster = Cluster(sim, 8, NodeSpec(),
                          core_oversubscription=factor)
        timed = TimedCollectives(sim, net, cluster)
        events = [timed.allreduce(20e6) for _ in range(8)]
        sim.run(until=sim.all_of(events))
        rows.append({"core_oversubscription": factor,
                     "all_reduce_ms": sim.now * 1e3})
    print(format_table(rows))
    print("   -> a 4:1 core turns a 89 ms exchange into ~350 ms.\n")


def bursty_tenant() -> None:
    print("3. A tenant burst halves our NIC mid-transfer")
    sim = Simulator()
    net = FluidNetwork(sim)
    cluster = Cluster(sim, 2, NodeSpec())
    timed = TimedCollectives(sim, net, cluster)
    done = timed.allreduce(100e6)

    def burst():
        yield sim.timeout(0.05)
        for link in (cluster.nic_out[0], cluster.nic_in[1]):
            net.set_link_capacity(link, link.capacity_bps * 0.3)
        print(f"   t={sim.now * 1e3:6.1f} ms: burst begins "
              f"(NIC at 30% capacity)")
        yield sim.timeout(0.1)
        for link in (cluster.nic_out[0], cluster.nic_in[1]):
            net.set_link_capacity(link, link.capacity_bps / 0.3)
        print(f"   t={sim.now * 1e3:6.1f} ms: burst ends")

    sim.spawn(burst())
    sim.run(until=done)
    print(f"   all-reduce finished at t={sim.now * 1e3:.1f} ms "
          f"(undisturbed: ~107 ms)\n")


def main() -> None:
    algorithm_choice()
    oversubscribed_core()
    bursty_tenant()


if __name__ == "__main__":
    main()
