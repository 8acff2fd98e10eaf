"""The soak experiment: sustained mixed load against a live cluster.

``repro soak`` is the live counterpart of ``repro load``: it boots an
N-peer asyncio cluster behind a gateway on localhost, publishes a seeded
object population, and replays a deterministic mixed PIRA/MIRA workload
through a pooled :class:`~repro.api.LiveSession` (closed loop, a fixed
population of synchronous clients) with the one load driver
(:func:`repro.runtime.loadgen.run_jobs`, the driver ``repro load`` runs on
the simulator clock), reporting wall-clock throughput and latency
percentiles in the same :class:`~repro.engine.reporting.EngineReport`.
Results persist as :class:`~repro.analysis.store.ResultStore` records
(``--store PATH``).

The outstanding queries multiplex over the session's ``pool`` handshaken
gateway connections — many requests in flight per connection, replies out
of order.

The run asserts nothing by itself; the CLI's ``--require-success`` turns
the success ratio into an exit code (and ``--require-pipelined`` does the
same for the gateway's observed multiplexing depth), which is how the CI
smoke job fails loudly when the live path regresses.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.api.live import LiveSession
from repro.api.requests import Insert, MultiInsert, Request, RequestOptions
from repro.api.session import Session
from repro.engine.reporting import EngineReport
from repro.obs.spans import spans_to_chrome
from repro.runtime.cluster import LiveCluster
from repro.runtime.loadgen import make_mixed_jobs
from repro.runtime.server import live_gateway
from repro.sim.rng import DeterministicRNG
from repro.storage import BACKENDS
from repro.workloads.values import uniform_values


async def seed_population(session: Session, spec: Any, prefix: str, replicas: int = 1) -> None:
    """Publish ``spec.objects`` seeded single-attribute values, plus a
    quarter as many two-attribute records so MIRA queries have something to
    match, drawn from the ``<prefix>-values`` / ``<prefix>-mvalues``
    substreams of ``spec.seed``.

    Published in batches: each batch is posted back-to-back on the pooled
    connections and the replies stream in concurrently, so the seeding
    phase pipelines too.
    """
    low, high = spec.attribute_interval
    rng = DeterministicRNG(spec.seed)
    options = RequestOptions(replicas=replicas)
    inserts: List[Request] = [
        Insert(value=value, options=options)
        for value in uniform_values(rng.substream(f"{prefix}-values"), spec.objects, low, high)
    ]
    mrng = rng.substream(f"{prefix}-mvalues")
    inserts.extend(
        MultiInsert(values=(mrng.uniform(low, high), mrng.uniform(low, high)), options=options)
        for _ in range(spec.objects // 4)
    )
    for index in range(0, len(inserts), 256):
        await session.batch(inserts[index : index + 256])


@dataclass(frozen=True)
class SoakSpec:
    """Parameters of one soak run (validated on construction)."""

    peers: int = 32
    nodes: Optional[int] = 8
    queries: int = 1000
    concurrency: int = 16
    objects: int = 1000
    seed: int = 42
    range_size: float = 20.0
    mira_fraction: float = 0.2
    deadline: float = 5.0
    attribute_interval: Tuple[float, float] = (0.0, 1000.0)
    #: session connection-pool size
    pool: int = 4
    #: peer storage backend: "memory" (default), "wal" or "sqlite"
    storage: str = "memory"
    #: directory for durable logs (auto temp dir when unset)
    data_dir: Optional[str] = None
    #: copies per insert during seeding (owner + prefix siblings)
    replicas: int = 1
    #: kill -9 one peer after seeding and restart it from its log
    kill_restart: bool = False
    #: expose /metrics (Prometheus text) on this port while the soak runs
    #: (None disables; 0 picks an ephemeral port)
    metrics_port: Optional[int] = None
    #: write a Chrome trace_event JSON of every query's span tree here
    trace_out: Optional[str] = None
    #: arm the flight recorder; dumps land in this directory as flight.dump
    record_dir: Optional[str] = None
    #: only write the dump when the run lost queries (success ratio < 1)
    postmortem_on_fail: bool = False
    #: hard-kill one peer (no restart, route withdrawn) after seeding —
    #: the forced-failure lever of the CI postmortem leg
    kill_peer: bool = False
    #: run the gossip control plane (SWIM membership) during the soak
    gossip: bool = False

    def __post_init__(self) -> None:
        if self.peers < 3:
            raise ValueError("need at least 3 peers")
        if self.nodes is not None and self.nodes < 1:
            raise ValueError("nodes must be positive")
        if self.queries < 1:
            raise ValueError("need at least one query")
        if self.concurrency < 1:
            raise ValueError("concurrency must be at least 1")
        if self.objects < 0:
            raise ValueError("objects must be non-negative")
        if not 0.0 <= self.mira_fraction <= 1.0:
            raise ValueError("mira-fraction must be within [0, 1]")
        if self.deadline <= 0:
            raise ValueError("deadline must be positive")
        low, high = self.attribute_interval
        if high <= low:
            raise ValueError("attribute interval must have positive width")
        if self.pool < 1:
            raise ValueError("pool must be at least 1")
        if self.storage not in BACKENDS:
            raise ValueError(f"storage must be one of {', '.join(BACKENDS)}")
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        if self.kill_restart and self.storage == "memory":
            raise ValueError(
                "kill-restart needs a durable backend (--storage wal or sqlite); "
                "a memory peer comes back empty and every acked write is lost"
            )
        if self.metrics_port is not None and not 0 <= self.metrics_port <= 65535:
            raise ValueError("metrics-port must be within [0, 65535]")
        if self.postmortem_on_fail and self.record_dir is None:
            raise ValueError("postmortem-on-fail requires --record-dir")


@dataclass
class SoakResult:
    """Outcome of one soak run."""

    spec: SoakSpec
    report: EngineReport
    wall_seconds: float
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def queries_per_second(self) -> float:
        """Completed queries per wall-clock second over the whole run."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.report.queries / self.wall_seconds

    def record(self) -> Dict[str, Any]:
        """One flat :class:`~repro.analysis.store.ResultStore` record."""
        lat = self.report.latency_percentiles
        obs = self.stats.get("obs", {})
        return {
            "experiment": "soak",
            "scheme": "Armada (live)",
            "seed": self.spec.seed,
            "mira_fraction": self.spec.mira_fraction,
            "range_size": self.spec.range_size,
            "peers": self.spec.peers,
            "storage": self.spec.storage,
            "write_replicas": self.spec.replicas,
            "replayed_records": self.stats.get("replayed_records", 0),
            "nodes": self.stats.get("nodes", self.spec.nodes or self.spec.peers),
            "queries": self.report.queries,
            "concurrency": self.spec.concurrency,
            "pool": self.spec.pool,
            "peak_in_flight": self.stats.get("peak_in_flight", 0),
            "success_ratio": self.report.success_ratio,
            "wall_seconds": self.wall_seconds,
            "queries_per_sec": self.queries_per_second,
            "latency_p50": lat.get("p50", 0.0),
            "latency_p95": lat.get("p95", 0.0),
            "latency_p99": lat.get("p99", 0.0),
            "mean_latency": self.report.mean_latency,
            "delay_hops_p95": self.report.delay_percentiles.get("p95", 0.0),
            "messages": self.report.messages,
            # Registry snapshot slices: the gateway's own counters for the
            # run, so the record covers the observability plane too.
            "frames": int(obs.get("repro_gateway_frames_total", 0)),
            "query_retries": int(obs.get("repro_query_retries_total", 0)),
            "query_reroutes": int(obs.get("repro_query_reroutes_total", 0)),
        }

    def format(self) -> str:
        """Human-readable summary."""
        lines = [
            "Live soak (asyncio cluster on localhost TCP)",
            f"cluster           : {self.spec.peers} peers on "
            f"{self.stats.get('nodes', '?')} nodes, seed {self.spec.seed}",
            f"storage           : {self.spec.storage}"
            + (f", {self.spec.replicas} copies per insert" if self.spec.replicas > 1 else "")
            + (
                "; kill-restart {victim}: {replayed} records replayed, digest intact".format(
                    **self.stats["kill_restart"]
                )
                if self.stats.get("kill_restart")
                else ""
            ),
            f"workload          : {self.spec.queries} queries "
            f"({self.spec.mira_fraction:.0%} MIRA), closed loop x{self.spec.concurrency} "
            f"over {self.spec.pool} connections ("
            f"gateway peak in-flight {self.stats.get('peak_in_flight', 0)})",
            f"wall time         : {self.wall_seconds:.2f}s "
            f"({self.queries_per_second:,.0f} queries/sec)",
            self.report.format(clock="wall"),
        ]
        if self.stats.get("kill_peer"):
            lines.insert(
                3,
                f"kill-peer         : {self.stats['kill_peer']} hard-killed after "
                "seeding (route withdrawn, never restarted)",
            )
        if self.stats.get("postmortem"):
            pm = self.stats["postmortem"]
            lines.append(
                f"flight recorder   : {pm['events']} events "
                f"({pm['evicted']} evicted) dumped to {pm['path']} [{pm['reason']}]"
            )
        return "\n".join(lines)


def run(spec: Optional[SoakSpec] = None) -> SoakResult:
    """Run one soak (blocking wrapper around the asyncio run)."""
    return asyncio.run(run_async(spec if spec is not None else SoakSpec()))


def _kill_restart(cluster: LiveCluster) -> Dict[str, Any]:
    """Hard-kill one peer and restart it from its durable log.

    Picks the median peer (deterministic for a given seed), snapshots its
    content-addressed digest, power-fails it (in-memory views and any
    unsynced bytes are gone), replays, and asserts the digest is intact —
    i.e. every acknowledged write survived ``kill -9``.  Raises
    ``RuntimeError`` on any loss so ``--kill-restart`` runs fail loudly.
    """
    peer_ids = cluster.network.peer_ids()
    victim = peer_ids[len(peer_ids) // 2]
    peer = cluster.network.peer(victim)
    objects_before = peer.object_count()
    digest_before = peer.backend.digest()
    cluster.crash_peer(victim)
    if peer.object_count() != 0:
        raise RuntimeError(f"crash of {victim!r} left volatile state behind")
    replayed = cluster.restart_peer(victim)
    if peer.backend.digest() != digest_before or peer.object_count() != objects_before:
        raise RuntimeError(
            f"kill-restart lost acknowledged writes on {victim!r}: "
            f"{peer.object_count()}/{objects_before} objects after replaying "
            f"{replayed} records"
        )
    return {"victim": victim, "replayed": replayed, "objects": objects_before}


def _kill_peer(cluster: LiveCluster) -> str:
    """Hard-kill one peer and leave it dead for the rest of the run.

    Unlike :func:`_kill_restart` the victim never comes back, and its
    transport route is withdrawn too, so forwards into its subtree
    genuinely fail (``subtrees_lost``) instead of being absorbed by the
    routing layer.  This is the forced-failure lever behind the CI
    postmortem leg: with no replicas the success ratio must drop below 1
    and ``--postmortem-on-fail`` must produce a dump.
    """
    peer_ids = cluster.network.peer_ids()
    victim = peer_ids[len(peer_ids) // 2]
    cluster.crash_peer(victim)
    cluster.transport.unregister(victim)
    return victim


async def run_async(spec: SoakSpec) -> SoakResult:
    """Boot, publish, replay the workload, drain, and report."""
    data_dir = spec.data_dir
    if spec.storage != "memory" and data_dir is None:
        data_dir = tempfile.mkdtemp(prefix="repro-soak-")
    cluster = LiveCluster(
        num_peers=spec.peers,
        seed=spec.seed,
        num_nodes=spec.nodes,
        attribute_interval=spec.attribute_interval,
        attribute_intervals=(spec.attribute_interval, spec.attribute_interval),
        storage=spec.storage,
        data_dir=data_dir,
        gossip=spec.gossip,
    )
    async with live_gateway(
        cluster,
        deadline=spec.deadline,
        metrics_port=spec.metrics_port,
        record=spec.record_dir is not None,
    ) as (gateway, metrics_server):
        tracer, registry, recorder = gateway.tracer, gateway.metrics, gateway.recorder
        try:
            if spec.trace_out is not None:
                # Server-side tracing: every query gets a span tree whether or
                # not the client negotiated the capability, so the Chrome trace
                # covers the whole soak.
                for executor in cluster.executors.values():
                    executor.set_tracer(tracer, all_queries=True)
            if metrics_server is not None:
                print(
                    f"metrics listening on {metrics_server.host}:{metrics_server.port}/metrics",
                    flush=True,
                )
            session = await LiveSession.connect(*gateway.address, pool=spec.pool)
            try:
                await seed_population(session, spec, "soak", replicas=spec.replicas)
                # The crash-consistency probe: every insert above was acked as
                # durable, so a peer must survive kill -9 with nothing lost.
                kill_stats = _kill_restart(cluster) if spec.kill_restart else None
                dead_peer = _kill_peer(cluster) if spec.kill_peer else None
                jobs = make_mixed_jobs(
                    seed=spec.seed,
                    count=spec.queries,
                    peer_ids=cluster.network.peer_ids(),
                    interval=spec.attribute_interval,
                    range_size=spec.range_size,
                    mira_fraction=spec.mira_fraction,
                )
                started = time.perf_counter()
                report = await session.run_jobs(
                    jobs, mode="closed", concurrency=spec.concurrency
                )
                wall = time.perf_counter() - started
                stats = await session.stats()
                if kill_stats is not None:
                    stats["kill_restart"] = kill_stats
                if dead_peer is not None:
                    stats["kill_peer"] = dead_peer
                stats["obs"] = registry.snapshot()
                if spec.trace_out is not None:
                    stats["trace_out"] = _write_trace(tracer, spec.trace_out)
            finally:
                await session.close()
        except BaseException:
            # A soak that dies mid-run is exactly what the flight recorder is
            # for: capture everything seen so far before the exception escapes.
            if recorder is not None:
                recorder.dump(
                    os.path.join(spec.record_dir, "flight.dump"), reason="exception"
                )
            raise
    if recorder is not None:
        # ``postmortem_on_fail`` keeps healthy runs dump-free; without it a
        # record_dir always gets the full ring (the replay-test workflow).
        failed = report.success_ratio < 1.0
        if failed or not spec.postmortem_on_fail:
            dump_path = recorder.dump(
                os.path.join(spec.record_dir, "flight.dump"),
                reason="postmortem" if failed else "soak-end",
            )
            stats["postmortem"] = {
                "path": dump_path,
                "events": len(recorder.events()),
                "evicted": recorder.evicted,
                "reason": "postmortem" if failed else "soak-end",
            }
    return SoakResult(spec=spec, report=report, wall_seconds=wall, stats=stats)


def _write_trace(tracer: Any, path: str) -> Dict[str, Any]:
    """Drain the tracer into a Chrome ``trace_event`` JSON file."""
    traces = tracer.drain()
    payload = spans_to_chrome(traces)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    return {
        "path": path,
        "traces": len(traces),
        "spans": len(payload["traceEvents"]),
    }
