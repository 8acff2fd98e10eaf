"""The per-layer run (``--trace 1``).

An untraced phase first (its own boot, warm-up and rounds), then the
wrappers of :mod:`bench.trace` are installed, the system is booted again
and the same rounds are replayed: the ratio of the two is the tracer's
overhead, the span aggregates are the layers' self times.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from typing import Any, Dict, Sequence, Tuple

from repro.fissione.network import FissioneNetwork
from repro.kautz import region as kautz_region
from repro.runtime.protocol import decode_frame, encode_frame, encode_frame_binary
from repro.sim.rng import DeterministicRNG

from bench import refkernel
from bench.harness import Bench, Outcome, Tally, TracedRound, peak_rss_mb
from bench.refkernel import percentile, pooled_latencies_ms
from bench.systems import System
from bench.trace import LAYERS, Tracer
from bench.workloads import TOPOLOGY_SEED, Workload

#: network sizes of the topology-build scaling fit (``sim-scale`` only)
EXPONENT_SIZES = (1024, 2048, 4096)


def memo_counts(system: System) -> Tuple[int, int]:
    """``(hits, lookups)`` summed over the naming memos' ``cache_info()``."""
    namer = (system.cluster or system.armada).single_namer
    hits = lookups = 0
    for memo in (
        namer._label_memo,
        namer._region_memo,
        kautz_region._contains_prefix_memo,
        kautz_region._split_memo,
    ):
        info = memo.cache_info()
        hits += info.hits
        lookups += info.hits + info.misses
    return hits, lookups


def build_exponent(build_8192_s: float) -> float:
    """Least-squares slope of log(build time) on log(N): 1.0 is linear."""
    points = []
    meter = refkernel.Meter()
    for size in EXPONENT_SIZES:
        rng = DeterministicRNG(TOPOLOGY_SEED).substream("topology")
        first = meter.start()
        FissioneNetwork.build(num_peers=size, rng=rng, object_id_length=32)
        points.append((size, meter.stop(first).corrected_s))
    points.append((8192, build_8192_s))
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(seconds) for _, seconds in points]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / sum(
        (x - x_mean) ** 2 for x in xs
    )


def codec_comparison(frames: Sequence[Dict[str, Any]]) -> float:
    """Binary ÷ JSON encode+decode time over the captured frames."""

    def timed(encode: Any) -> float:
        best = math.inf
        for _ in range(3):
            started = time.perf_counter()
            for frame in frames:
                decode_frame(encode(frame)[4:], allow_binary=True)
            best = min(best, time.perf_counter() - started)
        return best

    return timed(encode_frame_binary) / timed(encode_frame)


def layer_metrics(traced: Sequence[TracedRound]) -> Dict[str, float]:
    """Per-op, speed-corrected self time and call count of every layer.

    ``loop`` is each round's wall time minus what its root spans cover, so
    the layers add up to the traced rounds' corrected time exactly.
    """
    ops = sum(entry.timing.ops for entry in traced)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        self_s = sum(entry.totals.self_s(layer) * entry.timing.factor for entry in traced)
        metrics[f"{layer}.self_us_per_op"] = self_s * 1e6 / ops
        metrics[f"{layer}.calls_per_op"] = sum(entry.totals.calls(layer) for entry in traced) / ops
    loop_s = sum(
        (entry.timing.wall_s - entry.totals.root_s) * entry.timing.factor for entry in traced
    )
    metrics["loop.self_us_per_op"] = loop_s * 1e6 / ops
    metrics["trace.spans_per_op"] = sum(entry.totals.spans for entry in traced) / ops
    return metrics


async def run_traced(spec: Workload, seed: int, seconds: float, out_dir: str) -> Outcome:
    """The per-layer run (``--trace 1``): an untraced phase, then the same
    rounds again with the wrappers installed; their ratio is the overhead."""
    count, in_flight = spec.ops_per_round, spec.in_flight
    plain = Bench(spec, seed)
    try:
        await plain.boot()
        build_s = plain.build_s
        await plain.round(0, count, in_flight)
        untraced, _, _ = await plain.phase(seconds / 2)
    finally:
        await plain.close()
    exponent = build_exponent(build_s) if spec.backend == "sim" else 0.0

    tracer = Tracer()
    tracer.install()
    bench = Bench(spec, seed, tracer)
    try:
        await bench.boot()
        system = bench.system
        await bench.round(0, count, in_flight)
        # One round is logged span by span (and written to disk); logging
        # costs time, so its aggregates are dropped like a second warm-up.
        tracer.stack.keep_spans = True
        await bench.round(1, count, in_flight, trace=True)
        tracer.stack.keep_spans = False
        bench.traced.clear()
        rss_before = peak_rss_mb()
        hits_before, lookups_before = memo_counts(system)
        events_before = system.processed_events()
        rounds, _, tallies = await bench.phase(seconds / 2, trace=True)
        hits, lookups = memo_counts(system)
        events = system.processed_events() - events_before
        rss_growth = peak_rss_mb() - rss_before
        peak_in_flight = system.gateway.peak_in_flight if system.gateway else 0
        await bench.audit()
    finally:
        await bench.close()
        tracer.uninstall()

    traced = bench.traced
    ops = sum(entry.timing.ops for entry in traced)
    corrected_s = sum(entry.timing.corrected_s for entry in traced)
    counters = sum((entry.counters for entry in traced), Counter())
    lags_ms = [
        lag * 1000.0 * entry.timing.factor for entry in traced for lag in entry.lags_s
    ]
    totals = Tally()
    for tally in tallies:
        totals.add(tally)
    frames = counters["frames"]
    metrics = layer_metrics(traced)
    metrics.update(
        {
            "codec.bytes_per_frame": counters["frame_bytes"] / frames if frames else 0.0,
            "codec.binary_vs_json_ratio": codec_comparison(tracer.frames) if tracer.frames else 0.0,
            "transport.frames_per_op": frames / ops,
            "transport.writes_per_op": counters["writes"] / ops,
            "transport.bytes_per_op": counters["bytes"] / ops,
            "gateway.frames_per_op": counters["gateway_frames"] / ops,
            "gateway.peak_in_flight": float(peak_in_flight),
            "executor.destinations_per_op": totals.destinations / max(totals.ok, 1),
            "executor.matches_per_op": totals.matches / max(totals.ok, 1),
            "naming.cache_hit_share": (hits - hits_before) / max(lookups - lookups_before, 1),
            "fissione.build_s": build_s,
            "fissione.build_exponent": exponent,
            "sim.events_per_op": events / ops,
            "sim.events_per_s": events / corrected_s,
            "loop.lag_p50_ms": percentile(lags_ms, 50) if lags_ms else 0.0,
            "loop.lag_p99_ms": percentile(lags_ms, 99) if lags_ms else 0.0,
            "rss.growth_mb": rss_growth,
            "trace.overhead_ratio": refkernel.ops_per_s(rounds) / refkernel.ops_per_s(untraced),
            **refkernel.machine_metrics(untraced),
            # Measured on the untraced phase but not gated end to end: runs
            # of identical code disagree by more than 0.10 on it.
            "lat_p99_ms": percentile(pooled_latencies_ms(untraced), 99),
        }
    )
    write_trace(out_dir, spec.name, seed, tracer, traced, metrics)
    total = Tally()
    total.add(plain.total)
    total.add(bench.total)
    return Outcome(metrics, total.ops, total.failed, total.first_mismatch)


def write_trace(
    out_dir: str,
    workload: str,
    seed: int,
    tracer: Tracer,
    traced: Sequence[TracedRound],
    metrics: Dict[str, float],
) -> str:
    """Write the in-memory spans and per-round aggregates to
    ``<out_dir>/trace-<workload>.json``."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}.json")
    payload = {
        "workload": workload,
        "seed": seed,
        "metrics": metrics,
        "rounds": [
            {
                "ops": entry.timing.ops,
                "wall_s": entry.timing.wall_s,
                "factor": entry.timing.factor,
                "root_s": entry.totals.root_s,
                "layers": {
                    layer: dict(zip(("self_s", "spans"), values))
                    for layer, values in entry.totals.layers.items()
                },
                "counters": entry.counters,
            }
            for entry in traced
        ],
        "logged_round_spans": tracer.stack.span_log(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    return path
