"""``repro serve``: boot a live cluster + gateway and run until signalled.

The runner owns the process lifecycle:

1. boot the :class:`~repro.runtime.cluster.LiveCluster` (its peer nodes
   on localhost TCP) and the :class:`~repro.runtime.gateway.Gateway`
   (:func:`live_gateway` — the one boot and teardown order this loop
   shares with the one live run, :mod:`repro.experiments.livefaults`,
   behind ``repro soak`` and ``repro livefaults``);
2. print the connect line (``gateway listening on HOST:PORT ...``) — the
   CLI contract scripts and the CI smoke job parse;
3. wait for SIGINT/SIGTERM (or a programmatic stop event);
4. **drain**: refuse new requests, await every in-flight one (each bounded
   by the per-query deadline, so shutdown latency is capped), and only
   then close the cluster's sockets.

The serve loop is also where the observability planes come together: a
``metrics_port`` exposes the shared registry over Prometheus text
exposition, the gateway's tracer collects the span trees of requests that
ask for one (``options.trace``), and lifecycle events go through the
structured ``repro.serve`` logger (the contract lines above stay plain
prints).
"""

from __future__ import annotations

import asyncio
import signal
import sys
from contextlib import AsyncExitStack, asynccontextmanager
from dataclasses import dataclass
from typing import AsyncIterator, Optional, Sequence, TextIO, Tuple

from repro.obs.exposition import MetricsServer
from repro.obs.logs import configure_logging, get_logger
from repro.obs.recorder import FlightRecorder
from repro.runtime.cluster import LiveCluster
from repro.runtime.gateway import Gateway

log = get_logger("serve")


@dataclass(frozen=True)
class ServeSettings:
    """Everything ``repro serve`` needs to boot."""

    #: network size
    peers: int = 32
    #: seed of the overlay and the published values
    seed: int = 42
    #: interface the live cluster binds on
    host: str = "127.0.0.1"
    #: gateway port (0 picks an ephemeral port)
    port: int = 7411
    #: peer-node count; peers are distributed round-robin (None hosts one
    #: node per peer)
    nodes: Optional[int] = None
    #: per-query deadline, wall-clock seconds
    deadline: float = 5.0
    attribute_interval: Tuple[float, float] = (0.0, 1000.0)
    attribute_intervals: Optional[Sequence[Tuple[float, float]]] = ((0.0, 1000.0), (0.0, 1000.0))
    #: expose /metrics on this port (None disables the endpoint; 0 picks
    #: an ephemeral port)
    metrics_port: Optional[int] = None
    log_level: str = "info"
    log_json: bool = False
    #: arm the flight recorder and write dumps into this directory
    #: (``SIGUSR1`` dumps on demand, shutdown always dumps)
    record_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.peers < 3:
            raise ValueError("need at least 3 peers")
        if self.port < 0 or self.port > 65535:
            raise ValueError("port must be within [0, 65535] (0 picks an ephemeral port)")
        if self.nodes is not None and self.nodes < 1:
            raise ValueError("nodes must be positive")
        if self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if self.metrics_port is not None and not 0 <= self.metrics_port <= 65535:
            raise ValueError("metrics_port must be within [0, 65535]")


def build_observability(cluster: LiveCluster):
    """One tracer + one registry wired to a cluster's live counters.

    Returns ``(tracer, registry)``.  The registry's callback gauges read
    the cluster's transport and storage counters at scrape time, so the
    metrics plane costs nothing between scrapes.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import Tracer

    tracer = Tracer()
    registry = MetricsRegistry()
    transport = cluster.transport

    # Membership gauges read the gossip observer view when the control
    # plane runs, and the centralized down-peer authority otherwise —
    # either way the series exist, so dashboards need no mode switch.
    def _membership(state: str):
        return lambda: cluster.membership_counts().get(state, 0)

    gauges = (
        ("transport_messages_sent", lambda: transport.messages_sent,
         "Forwarding messages put on inter-node TCP links"),
        ("transport_messages_dropped", lambda: transport.messages_dropped,
         "Forwarding messages that found no live node"),
        ("cluster_peers", lambda: cluster.network.size, "Peers currently in the overlay"),
        ("peer_store_objects",
         lambda: sum(len(peer.objects()) for peer in cluster.network.peers()),
         "Objects held across all peer stores"),
        ("storage_replica_records",
         lambda: sum(peer.backend.replica_count() for peer in cluster.network.peers()),
         "Replica copies held across all peer storage backends"),
        ("storage_replayed_records", lambda: cluster.replayed_records,
         "Records replayed from durable logs after restarts"),
        ("peer_frames_total", lambda: sum(node.frames_received for node in cluster.nodes),
         "Wire frames received across every peer node (casts and requests)"),
        ("peer_store_sync_total", lambda: cluster.store_syncs,
         "Store writes acknowledged after a backend sync, across all peers"),
        ("membership_alive", _membership("alive"), "Peers the membership view holds alive"),
        ("membership_suspect", _membership("suspect"),
         "Peers currently under unrefuted suspicion"),
        ("membership_dead", _membership("dead"), "Peers the membership view has confirmed dead"),
    )
    for name, read, help_text in gauges:
        registry.register_callback(name, lambda read=read: float(read()), help_text)
    gossip_frames = registry.counter(
        "gossip_frames_total",
        "Gossip control frames sent, by operation",
        ("type",),
    )
    cluster.set_gossip_metrics(gossip_frames)
    return tracer, registry


@asynccontextmanager
async def live_gateway(
    cluster: LiveCluster,
    *,
    deadline: float,
    host: str = "127.0.0.1",
    port: int = 0,
    metrics_port: Optional[int] = None,
    record: bool = False,
) -> AsyncIterator[Tuple[Gateway, Optional[MetricsServer]]]:
    """Boot ``cluster`` behind a gateway; tear down in one order.

    Boot: cluster → tracer + registry (:func:`build_observability`) →
    flight recorder (``record``) → ``/metrics`` endpoint (``metrics_port``)
    → gateway.  Teardown is the reverse: the gateway drains first, so the
    endpoint stays scrapeable while in-flight queries finish, and the
    cluster's sockets close last.  Yields ``(gateway, metrics_server)``;
    the tracer, registry and recorder are the gateway's ``tracer``,
    ``metrics`` and ``recorder``.
    """
    async with AsyncExitStack() as stack:
        await cluster.start()
        stack.push_async_callback(cluster.stop)
        tracer, registry = build_observability(cluster)
        recorder = None
        if record:
            recorder = FlightRecorder()
            cluster.attach_recorder(recorder)
        metrics_server = None
        if metrics_port is not None:
            metrics_server = await MetricsServer(registry, host=host, port=metrics_port).start()
            stack.push_async_callback(metrics_server.stop)
        gateway = await Gateway(
            cluster,
            host=host,
            port=port,
            deadline=deadline,
            tracer=tracer,
            metrics=registry,
            recorder=recorder,
        ).start()
        stack.push_async_callback(gateway.shutdown, drain=True)
        yield gateway, metrics_server


async def serve_async(
    settings: ServeSettings,
    stop_event: Optional[asyncio.Event] = None,
    out: TextIO = sys.stdout,
) -> int:
    """Run the serving loop; returns the number of queries served.

    ``stop_event`` lets tests stop the server programmatically; without it
    only SIGINT/SIGTERM end the loop.
    """
    configure_logging(settings.log_level, settings.log_json)
    loop = asyncio.get_running_loop()
    stop = stop_event if stop_event is not None else asyncio.Event()

    cluster = LiveCluster(
        num_peers=settings.peers,
        seed=settings.seed,
        host=settings.host,
        num_nodes=settings.nodes,
        attribute_interval=settings.attribute_interval,
        attribute_intervals=settings.attribute_intervals,
    )
    installed_signals = []
    recorder = None
    try:
        async with live_gateway(
            cluster,
            deadline=settings.deadline,
            host=settings.host,
            port=settings.port,
            metrics_port=settings.metrics_port,
            record=settings.record_dir is not None,
        ) as (gateway, metrics_server):
            recorder = gateway.recorder
            if recorder is not None:
                recorder.install(settings.record_dir)
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, stop.set)
                    installed_signals.append(signum)
                except (NotImplementedError, RuntimeError):  # pragma: no cover - non-unix
                    pass

            print(
                f"gateway listening on {gateway.host}:{gateway.port} "
                f"({cluster.network.size} peers on {len(cluster.nodes)} nodes, "
                f"deadline {settings.deadline:g}s, protocol v2)",
                file=out,
                flush=True,
            )
            if metrics_server is not None:
                print(
                    f"metrics listening on {metrics_server.host}:{metrics_server.port}/metrics",
                    file=out,
                    flush=True,
                )
            if recorder is not None:
                print(
                    f"flight recorder armed, dumps land in {settings.record_dir} "
                    "(SIGUSR1 dumps on demand)",
                    file=out,
                    flush=True,
                )
            log.info(
                "gateway up",
                extra={
                    "peers": cluster.network.size,
                    "nodes": len(cluster.nodes),
                    "port": gateway.port,
                },
            )
            await stop.wait()
            print(f"draining {gateway.in_flight} in-flight queries", file=out, flush=True)
            log.info("draining", extra={"in_flight": gateway.in_flight})
    finally:
        for signum in installed_signals:
            loop.remove_signal_handler(signum)
        if recorder is not None:
            dump_path = recorder.dump(reason="shutdown")
            recorder.uninstall()
            print(f"flight recorder dump written to {dump_path}", file=out, flush=True)
    print(
        f"drained; served {gateway.queries_served} queries, sockets closed",
        file=out,
        flush=True,
    )
    log.info("stopped", extra={"queries_served": gateway.queries_served})
    return gateway.queries_served


def serve(settings: ServeSettings) -> int:
    """Blocking entry point for the CLI; returns a process exit code."""
    try:
        asyncio.run(serve_async(settings))
    except KeyboardInterrupt:  # pragma: no cover - raced signal delivery
        pass
    return 0
