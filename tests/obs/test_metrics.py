"""Metrics registry: families, labels, disabled-path overhead."""

import time

import pytest

from repro.errors import ReproError
from repro.obs import MetricsRegistry, Observability


class TestCounter:
    def test_inc_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        counter = registry.counter("units_total", "units")
        counter.inc(rank=0)
        counter.inc(2.0, rank=0)
        counter.inc(rank=1)
        assert counter.value(rank=0) == 3.0
        assert counter.value(rank=1) == 1.0
        assert counter.value(rank=7) == 0.0

    def test_label_order_is_canonical(self):
        counter = MetricsRegistry().counter("c")
        counter.inc(a=1, b=2)
        counter.inc(b=2, a=1)
        assert counter.value(a=1, b=2) == 2.0

    def test_counter_cannot_decrease(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ReproError):
            counter.inc(-1.0)


class TestGauge:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5.0, rank=0)
        gauge.add(-2.0, rank=0)
        assert gauge.value(rank=0) == 3.0


class TestHistogram:
    def test_buckets_count_and_sum(self):
        histogram = MetricsRegistry().histogram(
            "h", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 5.0, 50.0, 500.0):
            histogram.observe(value)
        state = histogram.state()
        assert state.bucket_counts == [1, 2, 1]  # 500.0 overflows
        assert state.count == 5
        assert state.sum == pytest.approx(560.5)

    def test_needs_at_least_one_bucket(self):
        with pytest.raises(ReproError):
            MetricsRegistry().histogram("h", buckets=())

    def test_quantile_interpolates_within_bucket(self):
        histogram = MetricsRegistry().histogram(
            "h", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 5.0, 50.0):
            histogram.observe(value)
        # p50: target rank 2 lands in the (1, 10] bucket, halfway in.
        assert histogram.quantile(0.5) == pytest.approx(5.5)
        assert histogram.quantile(0.99) == pytest.approx(96.4)
        # p0 clamps to the first populated bucket's lower edge.
        assert histogram.quantile(0.0) == pytest.approx(0.0)

    def test_quantile_overflow_clamps_to_last_bound(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        histogram.observe(1000.0)
        assert histogram.quantile(0.99) == 10.0

    def test_quantile_empty_and_range_errors(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0,))
        assert histogram.quantile(0.5) is None
        histogram.observe(0.5)
        with pytest.raises(ReproError):
            histogram.quantile(1.5)
        with pytest.raises(ReproError):
            histogram.quantile(-0.1)


class TestRegistry:
    def test_get_or_create_returns_same_handle(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ReproError):
            registry.gauge("x")

    def test_invalid_name_rejected(self):
        with pytest.raises(ReproError):
            MetricsRegistry().counter("bad name!")

    def test_collect_preserves_registration_order(self):
        registry = MetricsRegistry()
        registry.counter("b_second")
        registry.counter("a_first")
        assert [m.name for m in registry.collect()] == \
            ["b_second", "a_first"]




class TestCardinalityGuard:
    def test_cap_drops_new_label_sets_and_warns_once(self, caplog):
        registry = MetricsRegistry(max_label_sets=3)
        counter = registry.counter("c", "capped family")
        with caplog.at_level("WARNING", logger="repro.obs"):
            for rank in range(10):
                counter.inc(rank=rank)
        assert len(counter.samples) == 3
        assert counter.dropped_label_sets == 7
        assert registry.dropped_label_sets == 7
        warnings = [r for r in caplog.records
                    if "label sets" in r.getMessage()]
        assert len(warnings) == 1  # warn-once, not once per drop

    def test_existing_label_sets_keep_recording_past_the_cap(self):
        registry = MetricsRegistry(max_label_sets=2)
        counter = registry.counter("c")
        counter.inc(rank=0)
        counter.inc(rank=1)
        counter.inc(rank=2)  # dropped
        counter.inc(rank=0)  # pre-existing key still records
        assert counter.value(rank=0) == 2.0
        assert counter.value(rank=2) == 0.0
        assert counter.dropped_label_sets == 1

    def test_guard_covers_gauge_and_histogram(self):
        registry = MetricsRegistry(max_label_sets=1)
        gauge = registry.gauge("g")
        gauge.set(1.0, rank=0)
        gauge.set(2.0, rank=1)
        gauge.add(5.0, rank=1)
        assert gauge.value(rank=1) == 0.0
        histogram = registry.histogram("h")
        histogram.observe(1.0, rank=0)
        histogram.observe(1.0, rank=1)
        assert histogram.state(rank=1) is None
        assert registry.dropped_label_sets == 3


class TestDisabledOverhead:
    def test_disabled_records_store_nothing(self):
        obs = Observability.disabled()
        counter = obs.registry.counter("c")
        counter.inc(rank=0)
        obs.registry.gauge("g").set(1.0)
        obs.registry.histogram("h").observe(1.0)
        obs.timeline.span("s", "compute", 0, 0.0, 1.0)
        obs.timeline.instant("i", "fault", 0, 0.5)
        assert not counter.samples
        assert not obs.timeline.spans
        assert not obs.timeline.instants
        assert not obs.enabled

    def test_disabled_inc_is_cheap_smoke(self):
        # The disabled path is a single branch; it must stay within a
        # small constant factor of a bare function call.  Generous 20x
        # bound so the smoke test never flakes on a loaded machine.
        counter = Observability.disabled().registry.counter("c")

        def baseline():
            pass

        n = 50_000
        t0 = time.perf_counter()
        for _ in range(n):
            baseline()
        base = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            counter.inc()
        disabled = time.perf_counter() - t0
        assert disabled < base * 20 + 0.05
