"""Benchmark: the live serving runtime under soak load, v1 vs v2 vs binary.

Boots a 32-peer asyncio cluster (8 nodes) behind a gateway on localhost,
publishes a seeded object population, and replays a 1000-query mixed
PIRA/MIRA workload through the session API — every forwarding message
crossing a real TCP socket.  The workload runs **three times on identical
clusters**: over the deprecated v1 line protocol (one FIFO request per
connection — the PR-4 baseline), over multiplexed protocol v2 with JSON
frame bodies (a pooled :class:`~repro.api.LiveSession`, many requests in
flight per connection), and over v2 with the negotiated **binary** frame
bodies (:mod:`repro.runtime.binframe`).
``benchmarks/BENCH_runtime.json`` records all three throughputs side by
side — the before/after of the API-redesign PR plus the binary-hot-path
one.

The assertions double as the acceptance bar: all runs must complete all
queries with success ≥ 0.99, both v2 runs must actually multiplex
(gateway peak in-flight beyond the connection-pool size), and the binary
run must produce results identical to JSON's (same success, same message
counts — the encoding changes bytes, never semantics).

A fourth leg prices the **flight recorder**: order-alternating paired
recorder-off / recorder-on mini-soaks whose best paired-round ratio
(``recorder_overhead_ratio``) and median round
(``recorder_overhead_median``) land in ``BENCH_runtime.json`` for
``benchgate``.  They are *written, not asserted*: a wall-clock ratio has
no place in tier-1 (the committed baseline reads 1.20 — noise — and the
0.95 bar it used to carry failed one run in three on a 2-vCPU box).
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import time

from conftest import emit
from emit import write_bench_json

from repro.experiments.soak import SoakSpec, run as run_soak

PEERS = 32
NODES = 8
QUERIES = 1000
CONCURRENCY = 16
POOL = 4


def make_spec(protocol: int, encoding: str = "json") -> SoakSpec:
    return SoakSpec(
        peers=PEERS,
        nodes=NODES,
        queries=QUERIES,
        concurrency=CONCURRENCY,
        objects=500,
        seed=42,
        mira_fraction=0.2,
        protocol=protocol,
        pool=POOL,
        encoding=encoding,
    )


def measure_recorder_overhead(rounds: int = 5) -> dict:
    """Paired recorder-off vs recorder-on mini-soaks.

    Single-run throughput on a shared machine is ±5% noisy, so off and on
    are compared *within* the same back-to-back round (same cache, GC and
    scheduler state — a ``gc.collect()`` before each timed run keeps one
    side from paying the other's collection debt), the in-round order
    alternates to cancel position bias, and a warm-up pair is discarded.
    A best-of-per-side comparison would pair one side's lucky outlier
    against the other's median and read pure noise as overhead.

    Two statistics come out: ``recorder_overhead_ratio`` is the *best*
    paired round — the cleanest-conditioned measurement of the hot-path
    cost — and ``recorder_overhead_median`` is the median round, which a
    genuine regression cannot hide from behind one lucky round.
    ``wall_seconds`` times only the query phase, so the end-of-run dump
    is off the clock and the ratio prices exactly the always-on taps.
    """
    record_dir = tempfile.mkdtemp(prefix="repro-bench-rec-")
    base = dict(
        peers=8, nodes=4, queries=600, concurrency=8, objects=100, seed=42
    )

    def one_run(mode: str) -> float:
        spec = SoakSpec(**base, record_dir=record_dir if mode == "on" else None)
        gc.collect()
        result = run_soak(spec)
        assert result.report.success_ratio >= 0.99
        return result.queries_per_second

    best = {"off": 0.0, "on": 0.0, "ratio": 0.0}
    ratios = []
    try:
        one_run("off"), one_run("on")  # warm-up pair, discarded
        for index in range(rounds):
            order = ("off", "on") if index % 2 == 0 else ("on", "off")
            paired = {mode: one_run(mode) for mode in order}
            ratio = paired["on"] / paired["off"] if paired["off"] else 0.0
            ratios.append(ratio)
            if ratio > best["ratio"]:
                best = {"off": paired["off"], "on": paired["on"], "ratio": ratio}
    finally:
        shutil.rmtree(record_dir, ignore_errors=True)
    ratios.sort()
    return {
        "recorder_off_queries_per_sec": best["off"],
        "recorder_on_queries_per_sec": best["on"],
        "recorder_overhead_ratio": best["ratio"],
        "recorder_overhead_median": ratios[len(ratios) // 2],
    }


def test_live_soak_throughput(benchmark):
    started = time.perf_counter()
    before = run_soak(make_spec(protocol=1))  # the PR-4 baseline dialect
    after = run_soak(make_spec(protocol=2))  # multiplexed + pooled, JSON
    binary = run_soak(make_spec(protocol=2, encoding="binary"))
    recorder = measure_recorder_overhead()
    elapsed = time.perf_counter() - started

    for result in (before, after, binary):
        assert result.report.queries == QUERIES
        assert result.report.stalled == 0
        assert result.report.success_ratio >= 0.99
    # Both v2 runs really multiplexed: more queries concurrently in flight
    # at the gateway than the session's pooled connections could carry
    # under v1.
    assert after.stats.get("peak_in_flight", 0) > POOL
    assert binary.stats.get("peak_in_flight", 0) > POOL
    # The binary encoding is a byte-level change only: the deterministic
    # workload must produce identical query semantics over both bodies.
    assert binary.report.success_ratio == after.report.success_ratio
    assert binary.report.messages == after.report.messages
    # And the gateway really negotiated it (every pooled connection).
    assert binary.stats.get("binary_connections", 0) >= POOL
    # The recorder's price is written below for benchgate, not asserted
    # here: every recorded run did succeed (checked inside one_run).

    # A small rerun through pytest-benchmark for its statistics.
    small = SoakSpec(
        peers=8, nodes=4, queries=100, concurrency=8, objects=100, seed=42
    )
    benchmark.pedantic(lambda: run_soak(small), rounds=1, iterations=1)

    metrics = dict(after.bench_metrics())
    metrics["v1_queries_per_sec"] = before.queries_per_second
    metrics["v1_wall_seconds"] = before.wall_seconds
    metrics["v2_speedup_over_v1"] = (
        after.queries_per_second / before.queries_per_second
        if before.queries_per_second
        else 0.0
    )
    metrics["binary_queries_per_sec"] = binary.queries_per_second
    metrics["binary_wall_seconds"] = binary.wall_seconds
    metrics["binary_speedup_over_json"] = (
        binary.queries_per_second / after.queries_per_second
        if after.queries_per_second
        else 0.0
    )
    metrics.update(recorder)
    path = write_bench_json("runtime", metrics)
    emit(
        "Live runtime soak benchmark (protocol v1 vs v2-JSON vs v2-binary)",
        after.format()
        + f"\nv1 baseline       : {before.queries_per_second:,.0f} queries/sec"
        f" ({before.wall_seconds:.2f}s wall)"
        + f"\nv2 over v1        : {metrics['v2_speedup_over_v1']:.2f}x"
        + f"\nv2 binary         : {binary.queries_per_second:,.0f} queries/sec"
        f" ({metrics['binary_speedup_over_json']:.2f}x over JSON)"
        + f"\nflight recorder   : {recorder['recorder_overhead_ratio']:.3f}x "
        "throughput with recording on (best paired round; "
        f"median round {recorder['recorder_overhead_median']:.3f}x)"
        + f"\ntotal wall (incl. boot + publish): {elapsed:.2f}s"
        + f"\nwrote {path}",
    )
