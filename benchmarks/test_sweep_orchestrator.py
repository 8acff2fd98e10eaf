"""Benchmark: the multiprocess sweep orchestrator vs the serial path.

Runs the same sweep grid twice — in-process (the serial reference) and on a
4-worker process pool — asserts the merged records are **identical**, and
writes both wall-clock times plus the parallel speedup to
``benchmarks/BENCH_sweep.json``.

The speedup is recorded, not asserted: it is a property of the host
(``cpu_count`` is recorded alongside so the number can be interpreted — on
a single-core CI container the pool cannot beat the serial path, while on
a 4-core machine the same grid runs 2-4x faster).  The determinism
guarantee, which *is* asserted here and in the unit tests, holds on every
host.
"""

from __future__ import annotations

import os
import time

from conftest import emit
from emit import write_bench_json

from repro.analysis.store import ResultStore
from repro.experiments.common import ExperimentConfig
from repro.experiments.orchestrator import SweepSpec, run_sweep

WORKERS = 4


def _spec() -> SweepSpec:
    config = ExperimentConfig.quick().with_overrides(
        peers=384,
        queries_per_point=int(os.environ.get("REPRO_BENCH_SWEEP_QUERIES", "120")),
        objects=1500,
    )
    return SweepSpec.from_config(
        config,
        schemes=("armada", "dcf-can"),
        range_sizes=(10.0, 80.0, 200.0),
        network_sizes=(384,),
    )


def test_sweep_orchestrator_parallel_equals_serial(benchmark, tmp_path):
    spec = _spec()

    start = time.perf_counter()
    serial = run_sweep(spec, workers=1)
    wall_serial = time.perf_counter() - start

    store = ResultStore(os.fspath(tmp_path / "sweep.jsonl"))
    start = time.perf_counter()
    parallel = run_sweep(spec, workers=WORKERS, store=store)
    wall_parallel = time.perf_counter() - start

    # The load-bearing guarantee: worker placement and ordering are invisible.
    assert parallel.records == serial.records
    assert store.load() == serial.records
    assert parallel.jobs == len(spec.jobs())

    # Time one representative job through pytest-benchmark for its stats.
    single = SweepSpec.from_config(
        spec.config, schemes=("dcf-can",), range_sizes=(80.0,), network_sizes=(384,)
    )
    benchmark.pedantic(lambda: run_sweep(single, workers=1), rounds=1, iterations=1)

    speedup = wall_serial / wall_parallel if wall_parallel > 0 else 0.0
    cpu_count = os.cpu_count() or 1
    # Recorded only, on every host: a wall-clock bound inside tier-1 fails
    # on a busy 2-CPU box (ROADMAP item 1a); benchgate reads the number.
    metrics = {
        "jobs": parallel.jobs,
        "queries_per_point": spec.config.queries_per_point,
        "peers": spec.config.peers,
        "workers": WORKERS,
        "cpu_count": cpu_count,
        "wall_serial_seconds": wall_serial,
        "wall_parallel_seconds": wall_parallel,
        "speedup_parallel_vs_serial": speedup,
        "speedup_asserted": 0,
        "records_identical": 1,
    }
    path = write_bench_json("sweep", metrics)

    emit(
        "Sweep orchestrator benchmark",
        parallel.format()
        + f"\nserial wall        : {wall_serial:.2f}s"
        + f"\nparallel wall ({WORKERS}w) : {wall_parallel:.2f}s"
        + f"\nspeedup            : {speedup:.2f}x on {os.cpu_count()} cpu(s)"
        + f"\nwrote {path}",
    )
