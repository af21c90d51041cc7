"""Model-based test of the NIC-window record (:class:`NicWindows`).

A Hypothesis state machine arms window faults on the nodes of one
worker group, lets simulated time pass, and moves the group onto a new
placement, under each interpreter's reading of a window:

* the cluster runtime's: a tenant's windows, keyed by its local node
  ids, scale the NIC pair of the fabric node each one sits on (a flap
  leaves ``DEAD_NIC_FRACTION`` of base), and a placement change lifts
  them off the nodes the tenant vacates and holds them on the new ones;
* the fault injector's: windows keyed by original node id scale a live
  member's NIC links (a flap takes them to ``DEAD_LINK_BPS``), and
  ``retarget`` holds them on a rebuilt cluster.

Times are multiples of 1/4 s, so window edges coincide exactly: a
window may open at the instant its node's last one closes, on time or
late.  The reference model is a dict from node to the armed window open
at the current instant (``at_s <= now < end_s``).  After every rule,
every placed node's NIC pair sits at base times that window's factor,
or at base when none is open, and every other fabric node sits at base.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cluster import ClusterConfig, ClusterRuntime, JobSpec
from repro.cluster.fabric import DEAD_NIC_FRACTION
from repro.cluster.jobs import JobState
from repro.sim import Simulator
from repro.sim.faults import (
    DEAD_LINK_BPS,
    BandwidthDegradation,
    FaultInjector,
    LinkFlap,
    Straggler,
)
from repro.sim.network import FluidNetwork
from repro.sim.topology import Cluster, NodeSpec

#: Window lengths and start offsets from now (negative: armed late).
LENGTHS = (0.25, 0.5, 1.0, 2.0)
DELAYS = (-1.0, -0.25, 0.0, 0.25, 0.5, 1.0)


def window(kind, at_s, node, length, level):
    """A window fault of ``kind``; ``level`` picks its NIC factor."""
    if kind is LinkFlap:
        return LinkFlap(at_s, node, down_s=length)
    if kind is BandwidthDegradation:
        return BandwidthDegradation(at_s, node, fraction=level,
                                    duration_s=length)
    return Straggler(at_s, node, slowdown=1 / level, duration_s=length)


class ClusterReading:
    """One 4-node tenant on a 6-node fabric, as the cluster runs it."""

    kinds = (LinkFlap, BandwidthDegradation)  # a straggler slows compute
    nodes = 4
    placements = st.one_of(
        st.just(()),  # preempted
        st.permutations(range(6)).map(lambda p: tuple(p[:4])))

    def __init__(self):
        spec = JobSpec(job_id="a", num_nodes=self.nodes)
        self.runtime = ClusterRuntime([spec],
                                      config=ClusterConfig(num_nodes=6))
        self.sim = self.runtime.sim
        self.state = JobState(spec=spec, nodes=(0, 1, 2, 3))
        _crashes, _stragglers, self.windows = \
            self.runtime._arm_chaos(self.state)

    def place(self, nodes):
        self.windows.lift_all()
        self.state.nodes = nodes
        self.windows.hold_all()

    def levels(self, open_windows):
        """Expected (link, capacity) pairs of every fabric NIC."""
        fabric = self.runtime.fabric
        want = [fabric.nic_bps] * fabric.num_nodes
        for local, fault in open_windows.items():
            if self.state.nodes:
                want[self.state.nodes[local]] = fabric.nic_bps * (
                    fault.nic_factor or DEAD_NIC_FRACTION)
        for node, capacity in enumerate(want):
            yield fabric.nic_out[node], capacity
            yield fabric.nic_in[node], capacity


class InjectorReading:
    """Five identities, four of them the initial members."""

    kinds = (LinkFlap, BandwidthDegradation, Straggler)
    nodes = 5
    placements = st.lists(st.integers(0, 4), min_size=1, max_size=5,
                          unique=True).map(tuple)

    def __init__(self):
        self.sim = Simulator()
        self.members = (0, 1, 2, 3)
        self.cluster = self._cluster()
        self.injector = FaultInjector(self.sim, self.cluster,
                                      FluidNetwork(self.sim))
        self.windows = self.injector.windows

    def _cluster(self):
        cluster = Cluster(self.sim, len(self.members),
                          NodeSpec(gpus_per_node=1))
        self.base = cluster.nic_out[0].capacity_bps
        return cluster

    def place(self, members):
        self.members = members
        self.cluster = self._cluster()
        self.injector.retarget(self.cluster, FluidNetwork(self.sim),
                               members)

    def levels(self, open_windows):
        for index, node in enumerate(self.members):
            fault = open_windows.get(node)
            capacity = self.base if fault is None else (
                self.base * fault.nic_factor if fault.nic_factor
                else DEAD_LINK_BPS)
            yield self.cluster.nic_out[index], capacity
            yield self.cluster.nic_in[index], capacity


class WindowsMachine(RuleBasedStateMachine):
    reading_type = ClusterReading

    def __init__(self):
        super().__init__()
        self.reading = self.reading_type()
        self.sim = self.reading.sim
        # Start late enough that a window may be armed after its start.
        self.sim.run(until=2.0)
        self.armed = []
        #: When the last window armed on each node closes.
        self.busy_until = {}

    def settle(self):
        """Run everything due at the current instant."""
        self.sim.run(until=self.sim.now)

    @rule(data=st.data(), delay=st.sampled_from(DELAYS),
          length=st.sampled_from(LENGTHS),
          level=st.sampled_from((0.25, 0.5)))
    def arm(self, data, delay, length, level):
        node = data.draw(st.integers(0, self.reading.nodes - 1))
        kind = data.draw(st.sampled_from(self.reading.kinds))
        # No overlap on one node; a back-to-back window starts exactly
        # where the last one ends.
        at_s = max(self.sim.now + delay, self.busy_until.get(node, 0.0))
        fault = window(kind, at_s, node, length, level)
        self.busy_until[node] = fault.end_s
        self.armed.append(fault)
        self.reading.windows.arm(fault, name="model")
        self.settle()

    @rule(dt=st.sampled_from((0.25, 0.5, 1.0, 2.0)))
    def advance(self, dt):
        self.sim.run(until=self.sim.now + dt)

    @rule(data=st.data())
    def place(self, data):
        self.reading.place(data.draw(self.reading.placements))
        self.settle()

    @invariant()
    def nics_match_the_open_windows(self):
        now = self.sim.now
        open_windows = {f.node: f for f in self.armed
                        if f.at_s <= now < f.end_s}
        for link, capacity in self.reading.levels(open_windows):
            assert link.capacity_bps == capacity, (
                f"t={now:g}: {link.name} at {link.capacity_bps:g}, "
                f"want {capacity:g} (open: {open_windows})")


class InjectorWindowsMachine(WindowsMachine):
    reading_type = InjectorReading


_SETTINGS = settings(max_examples=60, stateful_step_count=25,
                     deadline=None)
TestClusterWindows = WindowsMachine.TestCase
TestClusterWindows.settings = _SETTINGS
TestInjectorWindows = InjectorWindowsMachine.TestCase
TestInjectorWindows.settings = _SETTINGS
