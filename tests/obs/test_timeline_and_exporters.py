"""Step timeline recording and the three exporter round-trips."""

import json

import pytest

from repro.errors import ReproError
from repro.obs import (
    NETWORK_RANK,
    MetricsRegistry,
    Observability,
    StepTimeline,
    chrome_trace_events,
    jsonl_lines,
    jsonl_records,
    prometheus_text,
    write_artifacts,
)


def sample_timeline() -> StepTimeline:
    timeline = StepTimeline()
    timeline.begin_step(0, 0, 0.0)
    timeline.span("forward", "compute", 0, 0.0, 0.3)
    timeline.span("sync-round", "negotiate", 0, 0.3, 0.35)
    timeline.span("allreduce-unit", "network", 0, 0.35, 0.8,
                  stream=2, bytes=1e6)
    timeline.span("flow", "net", NETWORK_RANK, 0.35, 0.8,
                  lane="node0.nic.out", utilisation=0.25, bytes=1e6)
    timeline.instant("fault.suspect", "fault", 0, 0.5, phase="sync")
    timeline.end_step(0, 0, 1.0)
    return timeline


class TestStepTimeline:
    def test_step_windows(self):
        timeline = sample_timeline()
        assert timeline.step_window(0, 0) == (0.0, 1.0)
        assert list(timeline.steps()) == [(0, 0, 0.0, 1.0)]
        assert timeline.ranks() == [0]

    def test_end_before_begin_rejected(self):
        timeline = StepTimeline()
        with pytest.raises(ReproError):
            timeline.end_step(0, 0, 1.0)

    def test_backwards_span_rejected(self):
        with pytest.raises(ReproError):
            StepTimeline().span("x", "compute", 0, 2.0, 1.0)

    def test_fault_episode_chains_into_flow(self):
        timeline = StepTimeline()
        timeline.fault_event("inject", 1.0, node=1)
        timeline.fault_event("suspect", 2.0)
        timeline.fault_event("confirm", 3.0)
        timeline.fault_event("restore", 4.0)
        phases = [p.phase for p in timeline.flow_points]
        assert phases == ["start", "step", "step", "end"]
        assert len({p.flow_id for p in timeline.flow_points}) == 1
        # Next inject opens a fresh episode.
        timeline.fault_event("inject", 5.0)
        assert timeline.flow_points[-1].phase == "start"
        assert timeline.flow_points[-1].flow_id != \
            timeline.flow_points[0].flow_id

    def test_disabled_timeline_records_nothing(self):
        timeline = StepTimeline(enabled=False)
        timeline.span("x", "compute", 0, 0.0, 1.0)
        timeline.instant("p", "fault", 0, 0.5)
        timeline.begin_step(0, 0, 0.0)
        timeline.end_step(0, 0, 1.0)
        assert timeline.flow_start("f", 0, 0.0) == 0
        timeline.fault_event("inject", 0.2)
        timeline.epoch_event(1, 0.8)
        assert not timeline.spans
        assert not timeline.instants
        assert not timeline.flow_points
        assert list(timeline.steps()) == []
        assert chrome_trace_events(timeline) == []


class TestFaultTelemetry:
    """``Observability`` counts fault and epoch events and timelines them."""

    def test_fault_events_count_by_kind(self):
        obs = Observability()
        obs.fault_event("inject", 1.0, node=1)
        obs.count_fault("sync_timeout")
        obs.fault_event("inject", 2.0, node=2)
        assert obs.fault_counts() == {"inject": 2, "sync_timeout": 1}
        # A counter-only kind puts nothing on the timeline.
        assert [i.name for i in obs.timeline.instants] == \
            ["fault.inject", "fault.inject"]
        assert 'aiacc_faults_total{kind="inject"} 2' in \
            prometheus_text(obs.registry)

    def test_epoch_event_counts_and_closes_the_episode(self):
        obs = Observability()
        obs.fault_event("leave", 1.0, node=1)
        obs.epoch_event(1, 2.0, kind="scale-down")
        epochs = obs.registry.get("aiacc_epoch_advances_total")
        assert epochs.value() == 1
        assert obs.timeline.instants[-1].name == "epoch.advance"
        assert [p.phase for p in obs.timeline.flow_points] == \
            ["start", "end"]

    def test_disabled_records_nothing(self):
        obs = Observability.disabled()
        obs.fault_event("inject", 1.0)
        obs.count_fault("stalled_collectives")
        obs.epoch_event(1, 2.0)
        assert obs.fault_counts() == {}
        assert not obs.timeline.instants
        assert obs.registry.get("aiacc_epoch_advances_total").value() == 0


class TestChromeExport:
    def test_pid_is_rank_tid_is_stream(self):
        events = chrome_trace_events(sample_timeline())
        unit = next(e for e in events if e["name"] == "allreduce-unit")
        assert unit["pid"] == 0
        assert unit["tid"] == 3  # 1 + stream 2
        flow_span = next(e for e in events if e["name"] == "flow")
        assert flow_span["pid"] != 0  # synthetic network process
        assert flow_span["tid"] >= 64  # named lane

    def test_spans_become_complete_events(self):
        timeline = StepTimeline()
        timeline.span("allreduce", "network", 0, 1.0, 1.5, bytes=100)
        timeline.span("compute", "compute", 0, 0.0, 1.0)
        timeline.instant("failure", "fault", 0, 0.7, node=3)
        events = [e for e in chrome_trace_events(timeline)
                  if e["ph"] != "M"]
        assert [e["ph"] for e in events] == ["X", "i", "X"]
        assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)
        allreduce = next(e for e in events if e["name"] == "allreduce")
        assert allreduce["ts"] == pytest.approx(1e6)
        assert allreduce["dur"] == pytest.approx(0.5e6)
        assert allreduce["args"] == {"bytes": 100}

    def test_non_json_metadata_is_stringified(self):
        timeline = StepTimeline()
        timeline.span("x", "compute", 0, 0.0, 1.0, meta_obj=object())
        timeline.instant("p", "fault", 0, 0.5, where=("node", 1))
        events = chrome_trace_events(timeline)
        json.dumps(events)
        span = next(e for e in events if e["name"] == "x")
        assert isinstance(span["args"]["meta_obj"], str)

    def test_named_lanes_numbered_by_sorted_name(self):
        # Lane tids follow sorted lane names, not insertion order or
        # hash(), so the layout survives PYTHONHASHSEED.
        timeline = StepTimeline()
        timeline.span("flow", "net", NETWORK_RANK, 0.0, 1.0, lane="b.link")
        timeline.span("flow", "net", NETWORK_RANK, 0.5, 1.5, lane="a.link")
        events = [e for e in chrome_trace_events(timeline)
                  if e["ph"] == "X"]
        tids = {e["args"]["lane"]: e["tid"] for e in events}
        assert tids == {"a.link": 64, "b.link": 65}

    def test_same_lane_shares_one_track(self):
        timeline = StepTimeline()
        timeline.span("flow", "net", NETWORK_RANK, 0.0, 1.0, lane="l")
        timeline.span("flow", "net", NETWORK_RANK, 2.0, 3.0, lane="l")
        timeline.span("unit", "network", 1, 0.0, 1.0, stream=0)
        timeline.span("unit", "network", 1, 2.0, 3.0, stream=0)
        tracks = {(e["pid"], e["tid"]) for e in
                  chrome_trace_events(timeline) if e["ph"] == "X"}
        assert len(tracks) == 2

    def test_step_window_renders_on_activity_lane(self):
        events = chrome_trace_events(sample_timeline())
        step = next(e for e in events if e["name"] == "step 0")
        assert step["ph"] == "X"
        assert step["tid"] == 0
        assert step["dur"] == pytest.approx(1e6)

    def test_metadata_names_every_track(self):
        events = chrome_trace_events(sample_timeline())
        names = {(e["pid"], e["tid"]): e["args"]["name"]
                 for e in events if e["name"] == "thread_name"}
        assert names[(0, 0)] == "activity"
        assert names[(0, 3)] == "stream 2"
        process_names = {e["pid"]: e["args"]["name"] for e in events
                         if e["name"] == "process_name"}
        assert process_names[0] == "rank 0"
        assert "network" in process_names.values()

    def test_sorted_json_serializable_and_deterministic(self):
        first = chrome_trace_events(sample_timeline())
        second = chrome_trace_events(sample_timeline())
        assert json.dumps(first) == json.dumps(second)
        payload = [e for e in first if e["ph"] != "M"]
        assert payload == sorted(
            payload, key=lambda e: (e["ts"], e["pid"], e["tid"]))

    def test_flow_points_pair_up(self):
        timeline = sample_timeline()
        timeline.fault_event("inject", 0.2)
        timeline.fault_event("restore", 0.9)
        events = chrome_trace_events(timeline)
        starts = [e for e in events if e["ph"] == "s"]
        ends = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(ends) == 1
        assert starts[0]["id"] == ends[0]["id"]
        assert ends[0]["bp"] == "e"


class TestPrometheusExport:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("units_total", "units launched").inc(3, rank=0)
        registry.gauge("depth").set(2.5)
        text = prometheus_text(registry)
        assert "# HELP units_total units launched" in text
        assert "# TYPE units_total counter" in text
        assert 'units_total{rank="0"} 3' in text
        assert "depth 2.5" in text

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 50.0):
            histogram.observe(value)
        text = prometheus_text(registry)
        assert 'h_bucket{le="1"} 2' in text
        assert 'h_bucket{le="10"} 3' in text
        assert 'h_bucket{le="+Inf"} 4' in text
        assert "h_count 4" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(link='we"ird\n')
        text = prometheus_text(registry)
        assert r'link="we\"ird\n"' in text

    def test_every_line_parses(self):
        registry = MetricsRegistry()
        registry.counter("c", "help").inc(rank=0)
        registry.histogram("h").observe(0.5, rank=1)
        for line in prometheus_text(registry).strip().splitlines():
            if line.startswith("#"):
                assert line.split()[0] in ("#",) or \
                    line.startswith(("# HELP", "# TYPE"))
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # sample value must be numeric
            assert name_part[0].isalpha() or name_part[0] == "_"


class TestJsonl:
    def test_every_record_is_self_describing(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").observe(1.0)
        timeline = sample_timeline()
        timeline.fault_event("inject", 0.1)
        kinds = set()
        for line in jsonl_lines(registry, timeline):
            record = json.loads(line)
            assert "kind" in record
            kinds.add(record["kind"])
        assert {"counter", "histogram", "step", "span", "instant",
                "flow"} <= kinds

    def test_record_counts_match_timeline(self):
        timeline = sample_timeline()
        records = list(jsonl_records(None, timeline))
        spans = [r for r in records if r["kind"] == "span"]
        assert len(spans) == len(timeline.spans)


class TestWriteArtifacts:
    def test_writes_all_three(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        written = write_artifacts(tmp_path / "out", registry,
                                  sample_timeline())
        assert set(written) == {"trace", "jsonl", "prometheus"}
        trace = json.loads(written["trace"].read_text())
        assert isinstance(trace, list) and trace
        assert written["prometheus"].read_text().endswith("\n")
        for line in written["jsonl"].read_text().strip().splitlines():
            json.loads(line)
