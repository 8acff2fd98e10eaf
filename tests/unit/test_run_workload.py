"""Unit tests for the batched ``run_workload`` scheme driver."""

from __future__ import annotations

import pytest

from repro.rangequery.armada_scheme import ArmadaScheme
from repro.rangequery.base import AttributeSpace, WorkloadReport
from repro.rangequery.dcf_can import DcfCanScheme
from repro.workloads.arrivals import uniform_arrival_times

QUERIES = [(100.0 * i, 100.0 * i + 80.0) for i in range(8)]


def build(scheme):
    scheme.build(96, seed=5)
    scheme.load([float(value) for value in range(0, 1000, 25)])
    return scheme


class TestFlowLevelDefault:
    def test_sequential_batch(self):
        scheme = build(DcfCanScheme(space=AttributeSpace()))
        report = scheme.run_workload(QUERIES)
        assert report.queries == len(QUERIES)
        assert report.scheme == scheme.name
        assert report.makespan == pytest.approx(sum(report.latencies))
        assert report.throughput() > 0
        assert set(report.latency_percentiles()) == {"p50", "p95", "p99"}

    def test_open_loop_batch(self):
        scheme = build(DcfCanScheme(space=AttributeSpace()))
        arrivals = uniform_arrival_times(rate=1.0, count=len(QUERIES))
        report = scheme.run_workload(QUERIES, arrivals=arrivals)
        # makespan covers first arrival to last completion
        assert report.makespan >= max(report.latencies)
        assert report.messages == sum(m.messages for m in report.measurements)

    def test_mismatched_arrivals_rejected(self):
        scheme = build(DcfCanScheme(space=AttributeSpace()))
        with pytest.raises(ValueError):
            scheme.run_workload(QUERIES, arrivals=[0.0])

    def test_empty_batch(self):
        scheme = build(DcfCanScheme(space=AttributeSpace()))
        report = scheme.run_workload([])
        assert report.queries == 0
        assert report.throughput() == 0.0


class TestArmadaOnFlowLevelDefault:
    def test_concurrent_batch_matches_sequential_measurements(self):
        concurrent = build(ArmadaScheme(space=AttributeSpace()))
        arrivals = uniform_arrival_times(rate=5.0, count=len(QUERIES))
        report = concurrent.run_workload(QUERIES, arrivals=arrivals)
        assert isinstance(report, WorkloadReport)
        assert report.queries == len(QUERIES)

        sequential = build(ArmadaScheme(space=AttributeSpace()))
        expected = [sequential.query(low, high) for low, high in QUERIES]
        for got, want in zip(report.measurements, expected):
            assert got.delay_hops == want.delay_hops
            assert got.messages == want.messages
            assert got.destination_peers == want.destination_peers
            assert sorted(got.matches) == sorted(want.matches)

    def test_closed_loop_when_no_arrivals(self):
        scheme = build(ArmadaScheme(space=AttributeSpace()))
        report = scheme.run_workload(QUERIES)
        assert report.queries == len(QUERIES)
        # closed loop with one outstanding query: makespan is the sum of latencies
        assert report.makespan == pytest.approx(sum(report.latencies))

    def test_requires_build(self):
        with pytest.raises(RuntimeError):
            ArmadaScheme().run_workload(QUERIES)
