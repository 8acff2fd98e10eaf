"""Unit tests for counters and summary statistics.

The counters and the registry are :mod:`repro.obs.metrics`, the program's
one metrics registry (the simulator's overlay counts its sends in plain
int fields); the summary statistics and helpers are :mod:`repro.sim.metrics`.
"""

from __future__ import annotations

import math

import pytest

from repro.obs.metrics import HOP_BUCKETS, Counter, MetricsRegistry
from repro.sim.metrics import (
    SummaryStats,
    log2_or_zero,
    mean,
    safe_ratio,
)


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("x").value() == 0

    def test_increment_default_is_one(self):
        counter = Counter("x")
        counter.inc()
        assert counter.value() == 1

    def test_increment_by_amount(self):
        counter = Counter("x")
        counter.inc(5)
        counter.inc(2)
        assert counter.value() == 7

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestSummaryStats:
    def test_empty_summary_is_all_zero(self):
        stats = SummaryStats("empty")
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.minimum == 0.0
        assert stats.maximum == 0.0
        assert stats.stddev == 0.0

    def test_mean_min_max(self):
        stats = SummaryStats()
        stats.extend([1.0, 2.0, 3.0, 4.0])
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.total == pytest.approx(10.0)

    def test_mean_of_equal_samples_is_that_sample(self):
        # sum([x] * 3) / 3 rounds to one unit in the last place below x
        value = 11.477441829601656
        stats = SummaryStats()
        stats.extend([value] * 3)
        assert stats.mean == value
        assert mean([value] * 3) == value

    @pytest.mark.parametrize(
        "values",
        [[0.1] * 7, [1e-300, 1e-300, 1e-300], [2.0, 2.0 + 2**-51, 2.0]],
        ids=["tenths", "tiny", "one-ulp-apart"],
    )
    def test_mean_within_min_and_max(self, values):
        stats = SummaryStats()
        stats.extend(values)
        assert stats.minimum <= stats.mean <= stats.maximum

    def test_stddev_population(self):
        stats = SummaryStats()
        stats.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert stats.stddev == pytest.approx(2.0)

    def test_percentile_nearest_rank(self):
        stats = SummaryStats()
        stats.extend(range(1, 101))
        assert stats.percentile(0.5) == 50
        assert stats.percentile(0.99) == 99
        assert stats.percentile(1.0) == 100
        assert stats.percentile(0.0) == 1

    def test_percentile_out_of_range_raises(self):
        with pytest.raises(ValueError):
            SummaryStats().percentile(1.5)

    def test_merge_combines_samples(self):
        first = SummaryStats()
        first.extend([1.0, 2.0])
        second = SummaryStats()
        second.extend([3.0, 4.0])
        first.merge(second)
        assert first.count == 4
        assert first.mean == pytest.approx(2.5)

    def test_as_dict_keys(self):
        stats = SummaryStats("delays")
        stats.add(3.0)
        payload = stats.as_dict()
        assert set(payload) == {"count", "mean", "min", "max", "stddev"}


class TestMetricsRegistry:
    def test_counter_is_created_on_first_use(self):
        registry = MetricsRegistry()
        registry.counter("messages").inc()
        assert registry.counter("messages").value() == 1

    def test_counter_value_default_for_missing(self):
        counter = MetricsRegistry().counter("messages", label_names=("kind",))
        assert counter.value("missing") == 0

    def test_summary_created_on_first_use(self):
        registry = MetricsRegistry()
        registry.histogram("delay", HOP_BUCKETS).observe(4.0)
        delay = registry.histogram("delay", HOP_BUCKETS)
        assert (delay.count, delay.total) == (1, 4.0)

    def test_snapshot_contains_counters_and_summaries(self):
        registry = MetricsRegistry()
        registry.counter("sends").inc(2)
        registry.histogram("delay", HOP_BUCKETS).observe(5.0)
        snapshot = registry.snapshot()
        assert snapshot["repro_sends"] == 2.0
        assert snapshot["repro_delay_sum"] == 5.0


class TestHelpers:
    def test_mean_of_empty_is_zero(self):
        assert mean([]) == 0.0

    def test_mean_of_values(self):
        assert mean([1, 2, 3]) == pytest.approx(2.0)

    def test_safe_ratio_guards_zero(self):
        assert safe_ratio(4, 0, default=-1.0) == -1.0
        assert safe_ratio(4, 2) == 2.0

    def test_log2_or_zero(self):
        assert log2_or_zero(8) == pytest.approx(3.0)
        assert log2_or_zero(0) == 0.0
        assert log2_or_zero(-5) == 0.0
        assert log2_or_zero(1024) == pytest.approx(math.log2(1024))
