"""Unit tests for the metric registry and Prometheus exposition."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    HOP_BUCKETS,
    LATENCY_BUCKETS_S,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("frames_total", "help")
        counter.inc()
        counter.inc(2)
        assert counter.value() == 3

    def test_negative_increment_rejected(self):
        counter = Counter("frames_total", "help")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labelled_children_are_independent(self):
        counter = Counter("frames_total", "help", ("encoding",))
        json_child = counter.child("json")
        json_child.inc()
        json_child.inc()
        counter.inc(1, "binary")
        assert counter.value("json") == 2
        assert counter.value("binary") == 1

    def test_render_prometheus_text(self):
        counter = Counter("repro_frames_total", "Frames written", ("encoding",))
        counter.inc(3, "json")
        text = "\n".join(counter.render())
        assert "# HELP repro_frames_total Frames written" in text
        assert "# TYPE repro_frames_total counter" in text
        assert 'repro_frames_total{encoding="json"} 3' in text


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("in_flight", "help")
        gauge.set(4)
        gauge.add(-1)
        assert gauge.value() == 3

    def test_callback_read_at_scrape_time(self):
        depth = {"value": 0}
        gauge = Gauge("queue_depth", "help")
        gauge.set_callback(lambda: float(depth["value"]))
        depth["value"] = 7
        assert "queue_depth 7" in "\n".join(gauge.render())


class TestHistogram:
    def test_observe_buckets_cumulative(self):
        histogram = Histogram("hops", (1, 2, 4), "help")
        for value in (0.5, 1.5, 3.0, 100.0):
            histogram.observe(value)
        counts = histogram.bucket_counts()
        assert counts["1"] == 1
        assert counts["2"] == 2
        assert counts["4"] == 3
        assert counts["+Inf"] == 4
        assert histogram.count == 4
        assert histogram.total == pytest.approx(105.0)

    def test_render_has_bucket_sum_count(self):
        histogram = Histogram("repro_latency_seconds", (0.1, 1.0), "help")
        histogram.observe(0.05)
        text = "\n".join(histogram.render())
        assert 'repro_latency_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_latency_seconds_sum 0.05" in text
        assert "repro_latency_seconds_count 1" in text

    def test_default_bucket_sets_are_sorted(self):
        assert list(HOP_BUCKETS) == sorted(HOP_BUCKETS)
        assert list(LATENCY_BUCKETS_S) == sorted(LATENCY_BUCKETS_S)


class TestRegistry:
    def test_namespace_prefix(self):
        registry = MetricsRegistry()
        registry.counter("frames_total", "help").inc()
        assert "repro_frames_total 1" in registry.render()

    def test_lazy_get_returns_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.gauge("thing")

    def test_render_ends_with_newline(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(1)
        assert registry.render().endswith("\n")

    def test_snapshot_flattens_histograms_and_labels(self):
        registry = MetricsRegistry()
        registry.counter("frames_total", "h", ("encoding",)).inc(2, "json")
        registry.histogram("latency_seconds", (0.1, 1.0)).observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["repro_frames_total{json}"] == 2.0
        assert snapshot["repro_latency_seconds_count"] == 1.0
        assert snapshot["repro_latency_seconds_sum"] == 0.5

    def test_register_callback_gauge(self):
        registry = MetricsRegistry()
        registry.register_callback("peers", lambda: 8.0, "Peers in the overlay")
        assert "repro_peers 8" in registry.render()
