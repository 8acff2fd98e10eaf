"""Graceful-shutdown audit: draining in-flight queries before closing.

The contract of ``repro serve`` (and :meth:`Gateway.shutdown`):

1. a query that is *in flight* when shutdown begins completes normally —
   bounded by the per-query deadline, never abandoned;
2. queries arriving after shutdown began are refused with a usable error;
3. the process-level SIGINT path drains and exits 0.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys

import pytest

from repro.api.live import LiveSession
from repro.api.requests import ApiError, InsertReply, RangeQuery, RequestOptions
from repro.runtime.cluster import LiveCluster
from repro.runtime.gateway import Gateway
from repro.obs.exposition import MetricsServer
from repro.obs.recorder import FlightRecorder
from repro.obs.replay import replay_events
from repro.runtime.server import ServeSettings, live_gateway, serve_async
from repro.runtime.transport import AsyncioTransport


async def boot(deadline: float = 5.0):
    cluster = LiveCluster(num_peers=8, seed=3)
    await cluster.start()
    gateway = await Gateway(cluster, deadline=deadline).start()
    return cluster, gateway


def slow_transit(monkeypatch, seconds: float) -> None:
    """Hold every forwarding message ``seconds`` before it is sent, so a
    query is genuinely in flight (frames not yet delivered) when a test
    begins a shutdown.  Patched on the class: the executors bind
    ``transport.send`` when the cluster is built."""
    send = AsyncioTransport.send

    def delayed(transport, message):
        asyncio.get_running_loop().call_later(seconds, send, transport, message)

    monkeypatch.setattr(AsyncioTransport, "send", delayed)


class TestGatewayDrain:
    def test_inflight_query_completes_during_shutdown(self, monkeypatch):
        """The drain waits for the in-flight query; the client gets its
        full result, not a reset connection."""
        slow_transit(monkeypatch, 0.15)

        async def scenario():
            cluster, gateway = await boot()
            client = await LiveSession.connect(*gateway.address, pool=1)
            await client.insert(500.0)

            pending = asyncio.create_task(client.range(0.0, 1000.0))
            await asyncio.sleep(0.05)
            assert gateway.in_flight == 1

            drained = await gateway.shutdown(drain=True)
            assert drained == 1
            reply = await pending
            assert reply.status == "ok"
            assert reply.result.complete
            assert reply.result.destination_count == cluster.network.size
            assert 500.0 in reply.result.matching_values()

            await client.close()
            await cluster.stop()

        asyncio.run(scenario())

    def test_shutdown_with_idle_connected_client(self):
        """Since Python 3.12.1, ``Server.wait_closed()`` blocks until every
        client connection closes — an idle client must therefore never be
        able to stall the drain (regression: the gateway once awaited
        ``wait_closed`` before draining and hung forever on 3.12/3.13)."""

        async def scenario():
            cluster, gateway = await boot()
            idle = await LiveSession.connect(*gateway.address, pool=1)
            try:
                await asyncio.wait_for(gateway.shutdown(drain=True), timeout=10.0)
            finally:
                await idle.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_new_queries_refused_while_draining(self, monkeypatch):
        slow_transit(monkeypatch, 0.15)

        async def scenario():
            cluster, gateway = await boot()
            client = await LiveSession.connect(*gateway.address, pool=1)
            pending = asyncio.create_task(client.range(0.0, 1000.0))
            await asyncio.sleep(0.05)

            shutdown = asyncio.create_task(gateway.shutdown(drain=True))
            await asyncio.sleep(0.01)
            # New work is refused while the drain runs: the listener is
            # closed (a new connection fails) and an already-connected
            # client gets the parseable "shutting down" error.
            with pytest.raises((ConnectionError, OSError)):
                await LiveSession.connect(*gateway.address, pool=1)
            with pytest.raises(ApiError, match="shutting down"):
                await client.range(1.0, 2.0)

            await shutdown
            assert (await pending).status == "ok"
            await client.close()
            await cluster.stop()

        asyncio.run(scenario())

    def test_deadline_bounds_the_drain(self, monkeypatch):
        """A query that cannot finish (its route was severed mid-flight) is
        force-completed as failed by its deadline, so the drain returns in
        bounded time instead of hanging."""
        slow_transit(monkeypatch, 0.1)

        async def scenario():
            cluster, gateway = await boot(deadline=0.4)
            client = await LiveSession.connect(*gateway.address, pool=1)

            pending = asyncio.create_task(client.range(0.0, 1000.0))
            await asyncio.sleep(0.02)
            # Sever every route: in-flight frames can still be enqueued but
            # re-sends/new hops have nowhere to go; the executor cannot
            # complete the full tree.
            for peer_id in list(cluster.transport.node_ids()):
                cluster.transport.unregister(peer_id)

            started = asyncio.get_running_loop().time()
            await gateway.shutdown(drain=True)
            elapsed = asyncio.get_running_loop().time() - started
            assert elapsed < 5.0, "drain must be bounded by the deadline, not hang"

            reply = await pending
            assert reply.status in ("deadline", "partial")
            await client.close()
            await cluster.stop()

        asyncio.run(scenario())

    def test_drain_waits_for_inserts_too(self):
        """Only queries count as in flight, but the drain also awaits the
        other requests: an insert accepted before the shutdown gets its
        acknowledgement, not a connection closed under it."""

        async def scenario():
            cluster, gateway = await boot()
            store = cluster.store

            async def slow_store(*args):
                await asyncio.sleep(0.3)
                return await store(*args)

            cluster.store = slow_store
            client = await LiveSession.connect(*gateway.address, pool=1)
            insert = asyncio.create_task(client.insert(500.0))
            query = asyncio.create_task(client.range(0.0, 1000.0))
            await asyncio.sleep(0.05)
            assert gateway.in_flight == 0  # the insert is not a query

            await gateway.shutdown(drain=True)
            await cluster.stop()
            assert isinstance(await insert, InsertReply)
            assert (await query).status == "ok"
            await client.close()

        asyncio.run(scenario())

    def test_new_inserts_refused_while_draining(self, monkeypatch):
        """An insert that arrives after the drain began is not awaited by
        it, so it is refused with the "shutting down" error like a query,
        not left to have its connection closed under it."""
        slow_transit(monkeypatch, 0.15)

        async def scenario():
            cluster, gateway = await boot()
            store = cluster.store

            async def slow_store(*args):
                await asyncio.sleep(0.3)
                return await store(*args)

            cluster.store = slow_store
            client = await LiveSession.connect(*gateway.address, pool=1)
            query = asyncio.create_task(client.range(0.0, 1000.0))
            await asyncio.sleep(0.05)

            shutdown = asyncio.create_task(gateway.shutdown(drain=True))
            await asyncio.sleep(0.01)
            with pytest.raises(ApiError, match="shutting down"):
                await client.insert(500.0)

            await shutdown
            assert (await query).status == "ok"
            await client.close()
            await cluster.stop()

        asyncio.run(scenario())

    def test_fired_deadline_is_a_recorded_timer(self):
        """The gateway's deadline is the executor's timer on the cluster's
        transport, so a flight recorder sees it fire like any other timer
        ("every timer fire is recorded"), and a replay of the dump agrees."""

        async def scenario():
            cluster = await LiveCluster(num_peers=8, seed=3).start()
            recorder = FlightRecorder()
            cluster.attach_recorder(recorder)
            gateway = await Gateway(cluster, deadline=0.2, recorder=recorder).start()
            origin, victim = cluster.network.peer_ids()[:2]
            # kill -9: frames to the victim die on the floor and, with no
            # resilience policy, nothing but the deadline ends the query.
            cluster.crash_peer(victim)
            async with await LiveSession.connect(*gateway.address, pool=1) as client:
                reply = await client.submit(
                    RangeQuery(low=0.0, high=1000.0, options=RequestOptions(origin=origin))
                )
            assert reply.status == "deadline"
            assert victim not in reply.result.destinations
            events = recorder.events()
            await gateway.shutdown(drain=True)
            await cluster.stop()
            return events

        events = asyncio.run(scenario())
        fired = [event for event in events if event["type"] == "timer"]
        assert [event["label"] for event in fired] == ["query-deadline"]
        assert fired[0]["delay"] == 0.2
        report = replay_events(events)
        assert report.ok and report.timers == 1


class TestLiveGateway:
    def test_one_boot_and_one_teardown_order(self, monkeypatch):
        """serve, soak and livefaults share this context: the gateway
        drains first (metrics stay scrapeable meanwhile), the cluster's
        sockets close last — also when the body raises."""
        order = []

        def recording(cls, method, label):
            original = getattr(cls, method)

            async def wrapper(self, *args, **kwargs):
                order.append(label)
                return await original(self, *args, **kwargs)

            monkeypatch.setattr(cls, method, wrapper)

        recording(Gateway, "shutdown", "gateway")
        recording(MetricsServer, "stop", "metrics")
        recording(LiveCluster, "stop", "cluster")

        async def scenario():
            cluster = LiveCluster(num_peers=8, seed=3, num_nodes=4)
            with pytest.raises(RuntimeError, match="boom"):
                async with live_gateway(
                    cluster, deadline=2.0, metrics_port=0, record=True
                ) as (gateway, metrics_server):
                    assert gateway.recorder is not None
                    assert gateway.tracer is not None and gateway.metrics is not None
                    assert metrics_server.port > 0
                    async with await LiveSession.connect(*gateway.address, pool=1) as session:
                        assert await session.ping()
                    raise RuntimeError("boom")

        asyncio.run(scenario())
        assert order == ["gateway", "metrics", "cluster"]


class TestServeRunner:
    def test_programmatic_stop_drains(self, capsys):
        async def scenario():
            stop = asyncio.Event()
            settings = ServeSettings(peers=8, port=0, deadline=2.0)
            served_task = asyncio.create_task(serve_async(settings, stop_event=stop))
            # wait for the listening line
            for _ in range(200):
                await asyncio.sleep(0.01)
                if "listening" in capsys.readouterr().out:
                    break
            stop.set()
            served = await served_task
            assert served == 0

        asyncio.run(scenario())

    def test_sigint_drains_and_exits_zero(self, tmp_path):
        """The full process contract: serve, query, SIGINT, clean exit."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--peers", "6", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            assert "gateway listening on" in banner
            host_port = banner.split("listening on ")[1].split()[0]
            host, port = host_port.rsplit(":", 1)

            async def one_query():
                async with await LiveSession.connect(host, int(port), pool=1) as session:
                    return await session.range(100.0, 300.0)

            assert asyncio.run(one_query()).ok

            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "draining" in out
        assert "drained; served 1 queries, sockets closed" in out
