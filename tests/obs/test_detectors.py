"""Unit-level detector tests: each rule fed synthetic hook events."""

import dataclasses

import pytest

from repro.errors import ReproError
from repro.obs import (
    MetricsRegistry,
    Observability,
    StepTimeline,
    diagnose,
)
from repro.obs.detectors import (
    DetectorConfig,
    DetectorSuite,
    LinkUtilisationSampler,
    Severity,
    parse_severity,
)


@dataclasses.dataclass(frozen=True)
class FakeAttribution:
    """Just the fields the detector rules read."""

    rank: int
    step: int
    compute_s: float
    negotiate_s: float
    step_time_s: float


def attribution(rank, compute_s, negotiate_s=0.0, step_time_s=1.0):
    return FakeAttribution(rank=rank, step=0, compute_s=compute_s,
                           negotiate_s=negotiate_s,
                           step_time_s=step_time_s)


class FakeLink:
    def __init__(self, name, capacity_bps):
        self.name = name
        self.capacity_bps = capacity_bps


class FakeFlow:
    def __init__(self, rate_bps, links):
        self.rate_bps = rate_bps
        self.links = links

    def member_link_sets(self):
        return (self.links,)


class TestSeverity:
    def test_parse_is_case_insensitive(self):
        assert parse_severity("warn") is Severity.WARN
        assert parse_severity("ERROR") is Severity.ERROR

    def test_parse_rejects_unknown(self):
        with pytest.raises(ReproError):
            parse_severity("fatal")

    def test_ordering(self):
        assert Severity.INFO < Severity.WARN < Severity.ERROR \
            < Severity.CRITICAL


class TestStragglerRule:
    def test_outlier_rank_flagged_from_attributions(self):
        suite = DetectorSuite()
        attrs = [attribution(rank, 1.0) for rank in range(3)] \
            + [attribution(3, 3.0)]
        events = suite.finalize(attrs)
        assert [(e.kind, e.subject) for e in events] == \
            [("straggler", "rank 3")]
        # 3x the median is past the 2x-threshold escalation point.
        assert events[0].severity is Severity.ERROR

    def test_balanced_cohort_is_quiet(self):
        suite = DetectorSuite()
        events = suite.finalize(
            [attribution(rank, 1.0) for rank in range(4)])
        assert events == ()

    def test_fallback_uses_raw_step_durations(self):
        suite = DetectorSuite()
        for rank in range(4):
            suite.observe_step(rank, 0, 2.0 if rank == 1 else 1.0,
                               end_s=1.0)
        events = suite.finalize(None)
        assert [(e.kind, e.subject) for e in events] == \
            [("straggler", "rank 1")]

    def test_single_rank_never_flagged(self):
        suite = DetectorSuite()
        suite.observe_step(0, 0, 5.0, end_s=5.0)
        assert suite.finalize(None) == ()


class TestRootCauseSuppression:
    def test_straggler_suppresses_negotiation_blowup(self):
        suite = DetectorSuite()
        # The healthy ranks' "negotiation" is really them waiting on the
        # straggler; the straggler finding must stand alone.
        attrs = [attribution(rank, 0.2, negotiate_s=0.7)
                 for rank in range(3)] + [attribution(3, 0.9)]
        kinds = {e.kind for e in suite.finalize(attrs)}
        assert kinds == {"straggler"}

    def test_negotiation_blowup_fires_without_straggler(self):
        suite = DetectorSuite()
        attrs = [attribution(rank, 0.2, negotiate_s=0.5)
                 for rank in range(4)]
        events = suite.finalize(attrs)
        assert [(e.kind, e.subject) for e in events] == \
            [("negotiation-overhead", "sync")]


class TestImbalanceRule:
    def make_suite(self, busy_by_stream, run_s=10.0):
        suite = DetectorSuite()
        suite.observe_step(0, 0, run_s, end_s=run_s)
        for stream, busy in busy_by_stream.items():
            suite.observe_stream_span(0, stream, busy, nbytes=1e6)
        return suite

    def test_dominant_share_flagged(self):
        suite = self.make_suite({0: 8.0, 1: 1.0})
        events = suite.finalize(None)
        assert [(e.kind, e.subject, e.severity) for e in events] == \
            [("stream-imbalance", "rank 0", Severity.WARN)]
        assert events[0].value == pytest.approx(8.0 / 9.0)

    def test_essentially_alone_escalates(self):
        suite = self.make_suite({0: 9.9, 1: 0.05})
        assert suite.finalize(None)[0].severity is Severity.ERROR

    def test_even_split_is_quiet(self):
        suite = self.make_suite({0: 3.0, 1: 2.9, 2: 3.1})
        assert suite.finalize(None) == ()

    def test_insignificant_busy_time_is_quiet(self):
        # Share is extreme but the busiest stream covers only 10% of
        # the run (< imbalance_busy_frac): serialized-dispatch noise.
        suite = self.make_suite({0: 1.0, 1: 0.01})
        assert suite.finalize(None) == ()

    def test_single_stream_is_quiet(self):
        suite = self.make_suite({0: 9.0})
        assert suite.finalize(None) == ()


class TestLinkUtilisationSampler:
    def test_integrates_per_link_load(self):
        sampler = LinkUtilisationSampler(saturation=0.9)
        link = FakeLink("core", 100.0)
        sampler.observe_interval(2.0, [FakeFlow(50.0, [link]),
                                       FakeFlow(50.0, [link])])
        sampler.observe_interval(3.0, [FakeFlow(10.0, [link])])
        observed, saturated, weighted = sampler.links["core"]
        assert observed == pytest.approx(5.0)
        assert saturated == pytest.approx(2.0)  # only the 100% interval
        assert weighted == pytest.approx(2.0 * 1.0 + 3.0 * 0.1)

    def test_idle_flows_and_zero_elapsed_ignored(self):
        sampler = LinkUtilisationSampler()
        link = FakeLink("core", 100.0)
        sampler.observe_interval(0.0, [FakeFlow(50.0, [link])])
        sampler.observe_interval(1.0, [FakeFlow(0.0, [link])])
        assert sampler.links == {}


class TestCongestionRule:
    def prime(self, suite, sustained=1.0, throttled_frac=1.0):
        suite.link_sampler.links["core"] = [10.0, 10.0 * sustained, 9.0]
        suite.observe_flow(["core"], "ring", 60.0, 1.0,
                           throttled=throttled_frac >= 0.5)
        suite.observe_flow(["core"], "ring", 40.0, 1.0,
                           throttled=throttled_frac >= 1.0)

    def test_sustained_and_throttled_link_flagged(self):
        suite = DetectorSuite()
        self.prime(suite, sustained=1.0, throttled_frac=1.0)
        events = suite.finalize(None)
        assert [(e.kind, e.subject) for e in events] == \
            [("congestion", "link core")]
        assert "by algorithm: ring=" in events[0].detail

    def test_hot_but_unthrottled_is_quiet(self):
        # Healthy pipelining: saturated, but every flow ran at its cap.
        suite = DetectorSuite()
        self.prime(suite, sustained=1.0, throttled_frac=0.0)
        assert suite.finalize(None) == ()

    def test_throttled_but_not_sustained_is_quiet(self):
        # Victim links: streams below cap, but the link is not the one
        # running hot — blame lands on the saturated bottleneck only.
        suite = DetectorSuite()
        self.prime(suite, sustained=0.2, throttled_frac=1.0)
        assert suite.finalize(None) == ()


class TestTunerRule:
    def test_regression_vs_warm_start_flagged(self):
        suite = DetectorSuite()
        suite.observe_tuner_trial(0, "cache", 0.10)
        for index in range(3):
            suite.observe_tuner_trial(index + 1, "grid", 0.20)
        events = suite.finalize(None)
        assert [(e.kind, e.subject) for e in events] == \
            [("tuner-regression", "tuner")]

    def test_needs_minimum_trials(self):
        suite = DetectorSuite()
        suite.observe_tuner_trial(0, "cache", 0.10)
        suite.observe_tuner_trial(1, "grid", 0.50)
        assert suite.finalize(None) == ()

    def test_within_margin_is_quiet(self):
        suite = DetectorSuite()
        suite.observe_tuner_trial(0, "cache", 0.10)
        for index in range(4):
            suite.observe_tuner_trial(index + 1, "grid", 0.102)
        assert suite.finalize(None) == ()

    def test_no_warm_start_is_quiet(self):
        suite = DetectorSuite()
        for index in range(5):
            suite.observe_tuner_trial(index, "grid", 0.5)
        assert suite.finalize(None) == ()


class TestRegistryRoundTrip:
    def test_publish_then_seed_reproduces_events(self):
        config = DetectorConfig()
        live = DetectorSuite(config)
        live.link_sampler.links["core"] = [10.0, 8.0, 9.5]
        live.observe_flow(["core"], "hierarchical", 100.0, 1.0,
                          throttled=True)
        live.observe_tuner_trial(0, "cache", 0.10)
        for index in range(3):
            live.observe_tuner_trial(index + 1, "bayes", 0.30)

        registry = MetricsRegistry()
        live.publish(registry)

        replayed = DetectorSuite(config)
        replayed.seed_from_registry(registry)
        assert replayed.finalize(None) == live.finalize(None)

    def test_publish_is_idempotent(self):
        live = DetectorSuite()
        live.observe_flow(["core"], None, 100.0, 1.0, throttled=True)
        registry = MetricsRegistry()
        live.publish(registry)
        live.publish(registry)
        replayed = DetectorSuite()
        replayed.seed_from_registry(registry)
        assert replayed._link_flows == live._link_flows


class TestAttachedSuite:
    @pytest.mark.parametrize("disabled", [
        {"registry": MetricsRegistry(enabled=False)},
        {"timeline": StepTimeline(enabled=False)},
    ], ids=["registry", "timeline"])
    def test_attach_needs_a_recording_bundle(self, disabled):
        obs = Observability(**disabled)
        with pytest.raises(ReproError, match="attach_detectors"):
            obs.attach_detectors()
        assert obs.diag is None

    def test_diagnose_uses_the_attached_config(self):
        # A stream split that the default imbalance share flags and a
        # laxer attached config does not.
        def diagnosed(config):
            obs = Observability(enabled=True)
            obs.attach_detectors(DetectorSuite(config))
            obs.timeline.begin_step(0, 0, 0.0)
            obs.timeline.end_step(0, 0, 1.0)
            for stream, busy_s in ((0, 0.8), (1, 0.2)):
                obs.timeline.span("allreduce-unit", "network", 0, 0.0,
                                  busy_s, stream=stream, bytes=1e6)
            return [f.kind for f in diagnose(obs).findings]

        assert diagnosed(DetectorConfig()) == ["stream-imbalance"]
        assert diagnosed(DetectorConfig(imbalance_share=0.9)) == []


class TestCanonicalOrdering:
    def test_events_sorted_by_detector_kind_subject(self):
        suite = DetectorSuite()
        # Two congested links + a tuner regression, fed out of order.
        for name in ("zeta", "alpha"):
            suite.link_sampler.links[name] = [10.0, 10.0, 9.5]
            suite.observe_flow([name], None, 100.0, 1.0, throttled=True)
        suite.observe_tuner_trial(0, "cache", 0.10)
        for index in range(3):
            suite.observe_tuner_trial(index + 1, "grid", 0.30)
        subjects = [e.subject for e in suite.finalize(None)]
        assert subjects == ["link alpha", "link zeta", "tuner"]
