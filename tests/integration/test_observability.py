"""Integration tests for the observability layer on the live runtime.

Covers the ``trace`` request option (honoured by every gateway, with or
without a tracer passed in), end-to-end traced queries through a real
gateway, the stats-payload parity contract, the Prometheus exposition
endpoint, and the sim-vs-live hop-count equality the tracing plane makes
checkable.
"""

from __future__ import annotations

import asyncio

from repro.api.live import LiveSession
from repro.api.requests import RangeQuery, RequestOptions
from repro.api.sim import SimSession
from repro.core.armada import ArmadaSystem
from repro.obs.exposition import MetricsServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer, trace_from_wire
from repro.runtime.cluster import LiveCluster
from repro.runtime.gateway import Gateway
from repro.runtime.server import build_observability
from repro.sim.rng import DeterministicRNG
from repro.workloads.values import uniform_values

SEED = 7
INTERVALS = ((0.0, 1000.0), (0.0, 1000.0))
LOW, HIGH = 200.0, 320.0


async def boot(num_peers: int = 8, observed: bool = True):
    """A live cluster + gateway; ``observed`` attaches tracer and metrics."""
    cluster = LiveCluster(num_peers=num_peers, seed=SEED, attribute_intervals=INTERVALS)
    await cluster.start()
    if observed:
        tracer, registry = build_observability(cluster)
    else:
        tracer = registry = None
    gateway = await Gateway(cluster, tracer=tracer, metrics=registry).start()
    return cluster, gateway, registry


async def teardown(cluster, gateway):
    await gateway.shutdown()
    await cluster.stop()


async def seed_objects(session, count: int = 100):
    from repro.api.requests import Insert

    values = uniform_values(
        DeterministicRNG(SEED).substream("values"), count, 0.0, 1000.0
    )
    await session.batch([Insert(value=value) for value in values])


class TestTraceOption:
    def test_gateway_without_a_passed_tracer_traces_on_request(self):
        """A request's own ``trace`` option is its only switch: a gateway
        booted without a tracer builds one and honours it."""

        async def scenario():
            cluster, gateway, _ = await boot(observed=False)
            try:
                session = await LiveSession.connect(*gateway.address)
                try:
                    reply = await session.submit(
                        RangeQuery(
                            low=LOW, high=HIGH, options=RequestOptions(trace=True)
                        )
                    )
                    assert reply.status == "ok"
                    assert reply.trace_id is not None
                    assert trace_from_wire(reply.trace).trace_id == reply.trace_id
                finally:
                    await session.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())


class TestTracedQueries:
    def test_traced_reply_ships_the_span_tree(self):
        async def scenario():
            cluster, gateway, _ = await boot()
            try:
                session = await LiveSession.connect(*gateway.address)
                try:
                    await seed_objects(session)
                    reply = await session.submit(
                        RangeQuery(low=LOW, high=HIGH, options=RequestOptions(trace=True))
                    )
                    assert reply.status == "ok"
                    assert reply.trace_id is not None
                    trace = trace_from_wire(reply.trace)
                    assert trace.trace_id == reply.trace_id
                    assert trace.done
                    hop_spans = [
                        s for s in trace.spans if s.name.startswith("hop ")
                    ]
                    assert len(hop_spans) == reply.result.messages
                finally:
                    await session.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())

    def test_untraced_request_stays_untraced(self):
        async def scenario():
            cluster, gateway, _ = await boot()
            try:
                session = await LiveSession.connect(*gateway.address)
                try:
                    reply = await session.submit(RangeQuery(low=LOW, high=HIGH))
                    assert reply.trace_id is None
                    assert reply.trace == ()
                finally:
                    await session.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())


class TestStatsParity:
    def test_every_connection_sees_one_stats_field_set(self):
        """``stats`` is answered by one method for every connection, so
        every connection sees the same fields."""

        async def scenario():
            cluster, gateway, _ = await boot()
            try:
                pooled = await LiveSession.connect(*gateway.address)
                single = await LiveSession.connect(*gateway.address, pool=1)
                try:
                    pooled_stats = await pooled.stats()
                    single_stats = await single.stats()
                    assert set(single_stats) == set(pooled_stats)
                    assert single_stats["connections"] == pooled.pool_size + 1
                finally:
                    await single.close()
                    await pooled.close()
            finally:
                await teardown(cluster, gateway)

        asyncio.run(scenario())


async def http_get(host: str, port: int, path: str = "/metrics"):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    return head.decode(), body.decode()


class TestMetricsEndpoint:
    def test_prometheus_text_has_the_core_series(self):
        async def scenario():
            cluster, gateway, registry = await boot()
            server = await MetricsServer(registry, port=0).start()
            try:
                session = await LiveSession.connect(*gateway.address)
                try:
                    await seed_objects(session)
                    for _ in range(3):
                        await session.submit(RangeQuery(low=LOW, high=HIGH))
                finally:
                    await session.close()
                head, body = await http_get(server.host, server.port)
                assert "200" in head.splitlines()[0]
                assert "text/plain; version=0.0.4" in head
                assert "# TYPE repro_gateway_frames_total counter" in body
                assert 'repro_gateway_queries_total{kind="pira"} 3' in body
                assert "repro_gateway_query_latency_seconds_count 3" in body
                assert 'repro_gateway_query_latency_seconds_bucket{le="+Inf"} 3' in body
                assert "repro_gateway_query_hops_count 3" in body
                assert "repro_gateway_in_flight 0" in body
                assert "repro_query_retries_total 0" in body
                assert "repro_cluster_peers 8" in body
            finally:
                await server.stop()
                await teardown(cluster, gateway)

        asyncio.run(scenario())

    def test_unknown_path_is_404(self):
        async def scenario():
            registry = MetricsRegistry()
            server = await MetricsServer(registry, port=0).start()
            try:
                head, _ = await http_get(server.host, server.port, "/nope")
                assert "404" in head.splitlines()[0]
            finally:
                await server.stop()

        asyncio.run(scenario())


class TestSoakObservability:
    def test_soak_snapshots_metrics_and_writes_perfetto_trace(self, tmp_path):
        import json

        from dataclasses import replace

        from repro.experiments.livefaults import SOAK, run

        trace_path = tmp_path / "soak_trace.json"
        result = run(
            replace(
                SOAK,
                peers=8,
                nodes=2,
                queries=20,
                concurrency=4,
                objects=50,
                metrics_port=0,
                trace_out=str(trace_path),
            )
        )
        obs = result.stats["obs"]
        assert obs["repro_gateway_frames_total"] > 0
        assert obs["repro_gateway_query_latency_seconds_count"] == 20.0
        assert result.record()["frames"] > 0
        info = result.stats["trace_out"]
        assert info["traces"] == 20
        payload = json.loads(trace_path.read_text())
        assert len(payload["traceEvents"]) == info["spans"]
        assert all(event["ph"] in ("X", "i") for event in payload["traceEvents"])


class TestSimLiveParity:
    def test_hop_counts_match_the_sim_for_the_same_seed(self):
        """The acceptance check: a traced live query resolves in exactly
        the hop count the simulator predicts for the same seed, because
        both run the identical executor over the identical Kautz overlay."""

        async def scenario():
            values = list(
                uniform_values(
                    DeterministicRNG(SEED).substream("parity"), 200, 0.0, 1000.0
                )
            )

            sim_system = ArmadaSystem(
                num_peers=8, seed=SEED, attribute_intervals=INTERVALS
            )
            sim_system.insert_many(values)
            origin = sim_system.network.peer_ids()[0]
            sim_session = SimSession(sim_system, tracer=Tracer())
            sim_reply = await sim_session.submit(
                RangeQuery(
                    low=LOW,
                    high=HIGH,
                    options=RequestOptions(origin=origin, trace=True),
                )
            )

            cluster, gateway, _ = await boot()
            try:
                live_session = await LiveSession.connect(*gateway.address)
                try:
                    from repro.api.requests import Insert

                    await live_session.batch(
                        [Insert(value=value) for value in values]
                    )
                    live_reply = await live_session.submit(
                        RangeQuery(
                            low=LOW,
                            high=HIGH,
                            options=RequestOptions(origin=origin, trace=True),
                        )
                    )
                finally:
                    await live_session.close()
            finally:
                await teardown(cluster, gateway)

            assert live_reply.result.delay_hops == sim_reply.result.delay_hops
            assert sorted(live_reply.result.destinations.items()) == sorted(
                sim_reply.result.destinations.items()
            )
            sim_hops = [
                s
                for s in trace_from_wire(sim_reply.trace).spans
                if s.name.startswith("hop ")
            ]
            live_hops = [
                s
                for s in trace_from_wire(live_reply.trace).spans
                if s.name.startswith("hop ")
            ]
            assert len(sim_hops) == len(live_hops)
            assert {s.attributes["receiver"] for s in sim_hops} == {
                s.attributes["receiver"] for s in live_hops
            }

        asyncio.run(scenario())
