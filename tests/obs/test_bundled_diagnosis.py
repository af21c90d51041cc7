"""Bundled fan-outs must diagnose identically to unbundled ones.

The fluid network fuses a homogeneous ring
fan-out into one :class:`~repro.sim.network.GroupFlow` solver entity.
That fusion is a performance representation only: the observability
layer unrolls groups member by member (``member_link_sets``), so every
per-link utilisation integral, flow record and therefore every
diagnosis finding — including the ``findings_digest`` the golden
findings file pins — must be bit-identical whether the fan-out ran
bundled or as individual flows.
"""

from repro.collectives import TimedCollectives
from repro.obs import Observability, diagnose
from repro.obs.detectors import DetectorSuite
from repro.obs.metrics import MetricsRegistry
from repro.sim import FluidNetwork, Link, Simulator, alibaba_v100_cluster
from repro.sim.network import GroupFlow


def _record_engine_timeline(timeline):
    """Identical engine-side timeline for both runs.

    Two ranks, two one-second steps each, and a lopsided stream split on
    rank 0 so the stream-imbalance detector has something to say; the
    network feeds the congestion detector itself.
    """
    for rank in (0, 1):
        for step in (0, 1):
            timeline.begin_step(rank, step, float(step))
            timeline.end_step(rank, step, float(step + 1))
    for rank, stream, busy_s, nbytes in ((0, 0, 0.9, 8e6),
                                         (0, 1, 0.001, 1e3),
                                         (1, 0, 0.45, 4e6),
                                         (1, 1, 0.45, 4e6)):
        timeline.span("allreduce-unit", "network", rank, 0.0, busy_s,
                      stream=stream, bytes=nbytes)


def _run_network_scenario(bundled):
    """One saturated 3-member fan-out, bundled or member-by-member.

    Each member crosses two private 1 Gb/s links with a 4 Gb/s rate cap,
    so every member finishes saturated (utilisation 1.0 the whole time)
    and throttled (achieved rate far below cap) — the congestion
    detector fires for all six links.
    """
    sim = Simulator()
    net = FluidNetwork(sim)
    obs = Observability()
    net.obs = obs
    net.diag = obs.attach_detectors()
    members = [[Link(f"m{i}a", 1e9), Link(f"m{i}b", 1e9)]
               for i in range(3)]
    if bundled:
        done = [net.start_flow_group(members, 1e6, rate_cap_bps=4e9,
                                     label="ring")]
    else:
        done = [net.start_flow(member, 1e6, rate_cap_bps=4e9, label="ring")
                for member in members]
    sim.run(until=sim.all_of(done))
    sim.run()
    if bundled:  # the fan-out really was fused, not fallen back
        assert net._claims
    else:
        assert not net._claims
    _record_engine_timeline(obs.timeline)
    return diagnose(obs)


class TestNetworkLevelEquivalence:
    def test_findings_digest_identical_bundled_or_not(self):
        bundled = _run_network_scenario(bundled=True)
        unbundled = _run_network_scenario(bundled=False)
        assert bundled.findings == unbundled.findings
        assert bundled.events == unbundled.events
        assert bundled.findings_digest == unbundled.findings_digest

    def test_scenario_is_not_vacuous(self):
        report = _run_network_scenario(bundled=True)
        kinds = {finding.kind for finding in report.findings}
        assert "congestion" in kinds
        assert "stream-imbalance" in kinds
        congested = {f.subject for f in report.findings
                     if f.kind == "congestion"}
        assert congested == {f"link m{i}{side}"
                             for i in range(3) for side in "ab"}


def _ring_allreduce(monkeypatch, ranks, bundled, size_bytes=4e6):
    """One full-link ring all-reduce with diagnosis attached.

    The unbundled twin makes :meth:`FluidNetwork.bundle` and
    :meth:`FluidNetwork.bundle_classes` report every fan-out as
    structurally unbundleable, which is the network's own per-member
    path: no handle, and every member an entry of its own.  Returns the network (for inspection right
    after launch), the completion event and the observability sink.
    """
    sim = Simulator()
    net = FluidNetwork(sim)
    if not bundled:
        monkeypatch.setattr(net, "bundle", lambda member_links: None)
        monkeypatch.setattr(net, "bundle_classes", lambda runs: [
            [tuple(links) for links in members] for members in runs])
    obs = Observability()
    net.obs = obs
    net.diag = obs.attach_detectors()
    cluster = alibaba_v100_cluster(sim, ranks, gpus_per_node=8)
    timed = TimedCollectives(sim, net, cluster)
    done = timed.allreduce(size_bytes, algorithm="ring")
    return net, done, obs


class TestCollectiveLevelEquivalence:
    """Same ring all-reduce, bundled or through the per-member fallback."""

    def _run(self, monkeypatch, bundled):
        net, done, obs = _ring_allreduce(monkeypatch, 128, bundled)
        sim = net.sim
        sim.run(until=done)
        finished = sim.now
        sim.run()
        return finished, bool(net._claims), diagnose(obs)

    def test_full_ring_diagnoses_identically(self, monkeypatch):
        now_b, claimed_b, bundled = self._run(monkeypatch, True)
        now_u, claimed_u, unbundled = self._run(monkeypatch, False)
        assert claimed_b and not claimed_u  # fusion really differed
        assert now_b == now_u  # completion time is representation-free
        assert bundled.findings == unbundled.findings
        assert bundled.events == unbundled.events
        assert bundled.findings_digest == unbundled.findings_digest
        # A healthy, balanced ring must stay finding-free in both
        # representations (the clean-run gate the detector thresholds
        # are calibrated against).
        assert bundled.findings == ()

    def test_small_ring_bundles_at_any_scale(self, monkeypatch):
        # 4 nodes x 8 GPUs: no size gate keeps a small ring off the
        # bundled path any more.
        net_b, done_b, _ = _ring_allreduce(monkeypatch, 32, True)
        entities = list(net_b.flows)
        assert len(entities) == 2  # one NIC-hop run, one NVLink run
        assert all(isinstance(flow, GroupFlow) for flow in entities)
        assert sorted(len(flow.member_links) for flow in entities) == [4, 4]
        net_u, done_u, _ = _ring_allreduce(monkeypatch, 32, False)
        assert len(net_u.flows) == 8
        assert not any(isinstance(flow, GroupFlow) for flow in net_u.flows)
        net_b.sim.run(until=done_b)
        net_u.sim.run(until=done_u)
        assert net_b.sim.now == net_u.sim.now  # bit for bit


class TestJobTaggedBundling:
    """Per-tenant byte attribution must survive GroupFlow fusion.

    The shared-fabric runtime bills each tenant's link bytes from
    ``DetectorSuite.job_link_bytes()``; a bundled fan-out must unroll
    (``member_link_sets``) to exactly the per-link, per-job, per-label
    accounting its unbundled twin produces.
    """

    def _run(self, bundled):
        sim = Simulator()
        net = FluidNetwork(sim)
        obs = Observability()
        net.obs = obs
        net.diag = obs.attach_detectors()
        members = [[Link(f"m{i}a", 1e9), Link(f"m{i}b", 1e9)]
                   for i in range(3)]
        if bundled:
            done = [net.start_flow_group(members, 1e6, rate_cap_bps=4e9,
                                         label="ring", job="jobA")]
        else:
            done = [net.start_flow(member, 1e6, rate_cap_bps=4e9,
                                   label="ring", job="jobA")
                    for member in members]
        # A second tenant on its own links, concurrently.
        done.append(net.start_flow([Link("b0", 1e9), Link("b1", 1e9)], 2e6,
                                   label="halving-doubling", job="jobB"))
        sim.run(until=sim.all_of(done))
        sim.run()
        return net, net.diag

    def test_job_attribution_identical_bundled_or_not(self):
        net_b, diag_b = self._run(bundled=True)
        net_u, diag_u = self._run(bundled=False)
        assert net_b._claims and not net_u._claims  # fusion really differed
        assert diag_b.job_link_bytes() == diag_u.job_link_bytes()

    def test_bytes_attributed_to_the_correct_tenant(self):
        _, diag = self._run(bundled=True)
        per_job = diag.job_link_bytes()
        for i in range(3):
            for side in "ab":
                assert per_job[(f"m{i}{side}", "jobA", "ring")] == 1e6
        for link in ("b0", "b1"):
            assert per_job[(link, "jobB", "halving-doubling")] == 2e6
        # Private links never leak bytes across tenants.
        jobs_per_link: dict[str, set] = {}
        for link, job, _label in per_job:
            jobs_per_link.setdefault(link, set()).add(job)
        assert all(len(jobs) == 1 for jobs in jobs_per_link.values())

    def test_gauge_round_trip_preserves_attribution(self):
        _, diag = self._run(bundled=True)
        registry = MetricsRegistry()
        diag.publish(registry)
        fresh = DetectorSuite()
        fresh.seed_from_registry(registry)
        assert fresh.job_link_bytes() == diag.job_link_bytes()
