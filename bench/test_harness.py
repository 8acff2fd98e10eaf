"""Tests of the benchmark harness itself (``pytest bench/``).

Not part of tier-1 ``testpaths``: the last two tests boot every workload
(the 8 192-peer simulator included) and take about a minute.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os

import pytest

from bench import harness, layers
from bench.refkernel import (
    REF_NOMINAL_MS,
    Meter,
    Round,
    median,
    ops_per_s,
    percentile,
    pooled_latencies_ms,
    speed_factor,
)
from bench.trace import SpanStack
from bench.workloads import WORKLOADS, corpus_requests, round_requests

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)


def requests_digest(requests):
    """Stable hash of a request list."""
    digest = hashlib.sha256()
    for request in requests:
        digest.update(repr(sorted(request.to_wire().items())).encode("utf-8"))
    return digest.hexdigest()


def test_percentile_is_nearest_rank():
    sample = [15, 20, 35, 40, 50]
    assert percentile(sample, 5) == 15
    assert percentile(sample, 30) == 20
    assert percentile(sample, 40) == 20
    assert percentile(sample, 50) == 35
    assert percentile(sample, 100) == 50
    assert percentile(list(range(1, 101)), 99) == 99
    assert percentile([3.0], 99) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(sample, 0)


def test_median_of_even_and_odd_samples():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


def flat_round(ops, wall_s, kernel_ms, latencies_s=()):
    """A round with one slice, run at a constant machine speed."""
    return Round(
        ops=ops,
        marks_s=[10.0, 10.0 + wall_s],
        kernel_ms=[kernel_ms, kernel_ms],
        latencies_s=list(latencies_s),
        ends_s=[10.0 + wall_s / 2] * len(latencies_s),
    )


def test_a_round_is_corrected_slice_by_slice():
    # three slices: nominal speed, half speed, nominal again
    timing = Round(
        ops=400,
        marks_s=[0.0, 1.0, 3.0, 4.0],
        kernel_ms=[25.0, 25.0, 75.0, 25.0],
        latencies_s=[0.010, 0.030, 0.030, 0.010],
        ends_s=[0.5, 1.0, 2.9, 3.5],
    )
    assert timing.wall_s == 4.0
    assert timing.factors == pytest.approx([1.0, 0.5, 0.5])
    assert timing.corrected_s == pytest.approx(1.0 + 1.0 + 0.5)
    assert timing.ops_per_s == pytest.approx(400 / 2.5)
    assert timing.raw_ops_per_s == pytest.approx(100.0)
    # each latency takes the factor of the slice it completed in
    assert timing.corrected_latencies_ms() == pytest.approx([10.0, 15.0, 15.0, 5.0])


def test_pooling_corrects_each_sample_before_it_is_pooled():
    nominal = flat_round(2, 1.0, 25.0, [0.001, 0.002])
    slow = flat_round(2, 2.0, 50.0, [0.004, 0.006])
    assert slow.factor == pytest.approx(0.5)
    assert pooled_latencies_ms([nominal, slow]) == pytest.approx([1.0, 2.0, 2.0, 3.0])
    assert pooled_latencies_ms([nominal, slow], corrected=False) == pytest.approx(
        [1.0, 2.0, 4.0, 6.0]
    )


def test_halving_machine_speed_leaves_corrected_numbers_unchanged():
    """The synthetic check behind the whole protocol: rounds run while the
    machine is at half speed (reference kernel, wall time and every
    latency all double) report the same corrected throughput and the same
    pooled percentiles as rounds run at nominal speed."""
    latencies = [0.001 * (1 + index % 17) for index in range(200)]

    def rounds(slow_every: int):
        result = []
        for index in range(12):
            slowdown = 2.0 if slow_every and index % slow_every == 0 else 1.0
            result.append(
                flat_round(
                    200,
                    0.8 * slowdown,
                    REF_NOMINAL_MS * slowdown,
                    [sample * slowdown for sample in latencies],
                )
            )
        return result

    steady, disturbed = rounds(0), rounds(3)
    assert ops_per_s(disturbed) == pytest.approx(ops_per_s(steady))
    for q in (50, 99):
        assert percentile(pooled_latencies_ms(disturbed), q) == pytest.approx(
            percentile(pooled_latencies_ms(steady), q)
        )
    # ...while the uncorrected view of the same rounds does move
    assert percentile(pooled_latencies_ms(disturbed, corrected=False), 99) > 1.5 * percentile(
        pooled_latencies_ms(steady, corrected=False), 99
    )
    assert speed_factor(50.0, 50.0) == pytest.approx(0.5)


def test_the_program_clock_stands_still_during_a_reading():
    meter = Meter()
    before = meter.now()
    meter.read()
    after = meter.now()
    assert meter.kernel_ms[0] > 1.0  # the kernel took real time...
    assert after - before < meter.kernel_ms[0] / 1000.0 / 2  # ...the program clock did not
    assert meter.marks_s[0] == pytest.approx(before, abs=1e-3)
    assert meter.next_due == pytest.approx(meter.marks_s[0] + Meter.SLICE_S)


def test_a_region_is_cut_by_the_readings_taken_inside_it():
    meter = Meter()
    meter.read()  # an earlier region's
    first = meter.start()
    meter.read()
    region = meter.stop(first, ops=3)
    assert (region.ops, len(region.marks_s), len(region.factors)) == (3, 3, 2)
    assert region.kernel_ms == meter.kernel_ms[first:]
    assert region.wall_s < 0.05  # three readings took ~75 ms; none of it counts
    assert meter.next_due == float("inf")  # nothing falls due outside a region


def test_span_stack_self_time_on_a_hand_built_trace():
    #  a (gateway)   0 ........................ 10
    #    b (codec)     1 .... 4
    #    c (codec)              5 ........ 9
    #      d (transport)          6 .. 8
    stack = SpanStack()
    stack.keep_spans = True
    a = stack.enter("a", 0.0)
    b = stack.enter("b", 1.0)
    stack.exit(b, "codec", 3.0)
    c = stack.enter("c", 5.0)
    d = stack.enter("d", 6.0)
    stack.exit(d, "transport", 2.0)
    stack.exit(c, "codec", 4.0)
    stack.exit(a, "gateway", 10.0)
    totals = stack.take()
    assert totals.self_s("gateway") == pytest.approx(3.0)
    assert totals.self_s("codec") == pytest.approx(5.0)
    assert totals.self_s("transport") == pytest.approx(2.0)
    assert (totals.calls("gateway"), totals.calls("codec"), totals.calls("transport")) == (1, 2, 1)
    assert (totals.root_s, totals.spans) == (10.0, 4)
    log = stack.span_log()
    assert log["parent"] == [-1, 0, 0, 2]
    assert [log["names"][index] for index in log["name"]] == ["a", "b", "c", "d"]
    assert log["dur_us"] == [10e6, 3e6, 4e6, 2e6]

    # a 12-second round around it: 2 seconds belong to no span -> loop,
    # and the layers add up to the round exactly
    timing = flat_round(4, 12.0, 25.0)
    metrics = layers.layer_metrics([harness.TracedRound(timing, totals, {}, [])])
    assert metrics["loop.self_us_per_op"] == pytest.approx(2.0e6 / 4)
    assert metrics["codec.self_us_per_op"] == pytest.approx(5.0e6 / 4)
    assert metrics["trace.spans_per_op"] == 1.0
    accounted = sum(value for name, value in metrics.items() if name.endswith(".self_us_per_op"))
    assert accounted == pytest.approx(12.0e6 / 4)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_the_same_requests(name):
    spec = WORKLOADS[name]
    peers = ["0", "01", "1", "12", "2", "20"]
    first = round_requests(spec, 7, 3, 50, peers)
    assert requests_digest(first) == requests_digest(round_requests(spec, 7, 3, 50, peers))
    assert requests_digest(first) != requests_digest(round_requests(spec, 8, 3, 50, peers))
    # round r of seed s is round 0 of seed s + r
    assert requests_digest(first) == requests_digest(round_requests(spec, 10, 0, 50, peers))
    assert requests_digest(corpus_requests(spec, 7)) == requests_digest(corpus_requests(spec, 7))
    assert requests_digest(corpus_requests(spec, 7)) != requests_digest(corpus_requests(spec, 8))


def test_contract_names_every_workload():
    assert [entry["name"] for entry in CONTRACT["workloads"]] == list(WORKLOADS)


@pytest.fixture
def two_rounds(monkeypatch):
    """Shrink a run to two rounds of each kind."""
    monkeypatch.setattr(harness, "COUNT_ROUNDS", 2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_count_metrics_repeat_exactly(name, two_rounds):
    spec = dataclasses.replace(WORKLOADS[name], setups=1)
    first = asyncio.run(harness.run_untraced(spec, 7, 0.0))
    second = asyncio.run(harness.run_untraced(spec, 7, 0.0))
    assert first.failed == 0, first.first_mismatch
    assert first.attempted == second.attempted
    assert set(first.metrics) >= {entry["name"] for entry in CONTRACT["end_to_end"]}
    for metric in ("msgs_per_op", "delay_hops_mean", "delay_hops_max", "ok_share"):
        assert first.metrics[metric] == second.metrics[metric], metric
    assert first.metrics["ok_share"] == 1.0
    assert all(value > 0 for value in first.metrics.values())


@pytest.mark.parametrize("name", ["live-write", "sim-scale"])
def test_traced_run_reports_every_layer_metric(name, two_rounds, tmp_path):
    outcome = asyncio.run(layers.run_traced(WORKLOADS[name], 7, 0.0, str(tmp_path)))
    assert outcome.failed == 0, outcome.first_mismatch
    assert set(outcome.metrics) == {entry["name"] for entry in CONTRACT["per_layer"]}
    with open(tmp_path / f"trace-{name}.json", encoding="utf-8") as handle:
        written = json.load(handle)
    assert written["logged_round_spans"]["name"], "the logged round kept no spans"
    # the layers (loop included) account for the traced rounds' whole time
    corrected_s = sum(entry["wall_s"] * entry["factor"] for entry in written["rounds"])
    ops = sum(entry["ops"] for entry in written["rounds"])
    accounted = sum(
        value for metric, value in outcome.metrics.items() if metric.endswith(".self_us_per_op")
    )
    assert accounted == pytest.approx(corrected_s * 1e6 / ops, rel=1e-6)
