"""Unit tests for the load sweep's flow-level DCF-CAN row."""

from __future__ import annotations

import pytest

from repro.experiments.load import flow_row
from repro.rangequery.base import record_query

#: four queries: (arrival, delay in hops, messages)
BATCH = [(2.0, 3, 5), (2.5, 1, 2), (4.0, 4, 7), (9.0, 2, 1)]


def row_of(batch):
    arrivals = [arrival for arrival, _, _ in batch]
    measurements = [record_query(delay, messages, 1) for _, delay, messages in batch]
    return flow_row(measurements, arrivals)


class TestFlowRow:
    def test_throughput_spans_first_arrival_to_last_arrival_plus_its_delay(self):
        row = row_of(BATCH)
        # the last query arrives at 9.0 and holds the timeline for 2 hops
        assert row["queries"] == 4.0
        assert row["throughput"] == pytest.approx(4 / (11.0 - 2.0))

    def test_latency_is_the_hop_delay(self):
        row = row_of(BATCH)
        for key in ("p50", "p95", "p99"):
            assert row[f"latency_{key}"] == row[f"delay_{key}"]
        assert (row["latency_p50"], row["latency_p95"], row["latency_p99"]) == (2.0, 4.0, 4.0)
        assert row["mean_latency"] == pytest.approx(10 / 4)

    def test_messages_are_summed(self):
        assert row_of(BATCH)["messages"] == 15.0

    def test_empty_batch(self):
        row = row_of([])
        assert row["queries"] == 0.0
        assert row["throughput"] == 0.0
        assert row["messages"] == 0.0
