"""Integration tests: the live asyncio cluster vs the simulator.

The acceptance bar of the live-runtime PR: an N=32 live cluster must
answer the same query set with result sets **identical** to the simulator
built from the same seed — destinations, matches, message counts and hop
delays — because both drive the same resumable executors over the same
(deterministically bootstrapped) topology.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api.live import LiveSession
from repro.api.requests import ApiError
from repro.core.armada import ArmadaSystem
from repro.engine.reporting import QueryJob
from repro.runtime.cluster import ClusterError, LiveCluster
from repro.runtime.gateway import Gateway
from repro.runtime.loadgen import make_mixed_jobs, run_jobs
from repro.sim.rng import DeterministicRNG

SEED = 7
INTERVALS = ((0.0, 1000.0), (0.0, 1000.0))
VALUES = [float(v) for v in range(0, 1000, 25)]
MULTI_VALUES = [(float(v), float(1000 - v)) for v in range(0, 1000, 100)]


def build_reference(num_peers: int) -> ArmadaSystem:
    system = ArmadaSystem(num_peers=num_peers, seed=SEED, attribute_intervals=INTERVALS)
    system.insert_many(VALUES)
    for pair in MULTI_VALUES:
        system.insert_multi(pair)
    return system


async def boot_cluster(num_peers: int, **kwargs):
    cluster = LiveCluster(
        num_peers=num_peers, seed=SEED, attribute_intervals=INTERVALS, **kwargs
    )
    await cluster.start()
    gateway = await Gateway(cluster).start()
    client = await LiveSession.connect(*gateway.address, pool=2)
    for value in VALUES:
        await client.insert(value)
    for pair in MULTI_VALUES:
        await client.insert_multi(pair)
    return cluster, gateway, client


class TestSimLiveEquivalence:
    def test_n32_identical_results(self):
        """Same seed, same queries → byte-equal result sets, sim vs live."""
        system = build_reference(32)

        async def scenario():
            cluster, gateway, session = await boot_cluster(32)
            try:
                assert sorted(cluster.network.peer_ids()) == sorted(
                    system.network.peer_ids()
                ), "bootstrap must replay the simulator's topology"

                rng = DeterministicRNG(1234)
                origins = sorted(cluster.network.peer_ids())
                checked = 0
                sim_sent = system.overlay.messages_sent
                live_sent = cluster.transport.messages_sent
                for index, origin in enumerate(origins):
                    low = rng.uniform(0.0, 800.0)
                    high = low + rng.uniform(1.0, 150.0)
                    sim = system.range_query(low, high, origin=origin)
                    live = (await session.range(low, high, origin=origin)).result
                    assert live.destinations == sim.destinations
                    assert sorted(live.matching_values()) == sorted(sim.matching_values())
                    assert live.messages == sim.messages
                    assert live.delay_hops == sim.delay_hops
                    assert live.complete and sim.complete
                    checked += 1

                    if index % 4 == 0:  # interleave MIRA boxes
                        box = ((low, high), (100.0, 900.0))
                        sim_m = system.multi_range_query(box, origin=origin)
                        live_m = (await session.multi_range(box, origin=origin)).result
                        assert live_m.destinations == sim_m.destinations
                        assert sorted(live_m.matching_values()) == sorted(
                            sim_m.matching_values()
                        )
                        assert live_m.messages == sim_m.messages
                        assert live_m.delay_hops == sim_m.delay_hops
                assert checked == 32
                # Both transports count the same sends: the loop moved them equally.
                assert (
                    system.overlay.messages_sent - sim_sent
                    == cluster.transport.messages_sent - live_sent
                    == 380
                )
            finally:
                await session.close()
                await gateway.shutdown()
                await cluster.stop()

        asyncio.run(scenario())

    def test_messages_really_cross_sockets(self):
        """The equivalence is honest: forwarding frames traverse TCP."""

        async def scenario():
            cluster, gateway, client = await boot_cluster(16, num_nodes=4)
            try:
                reply = await client.range(100.0, 400.0)
                assert reply.result.messages > 0
                frames = sum(node.frames_received for node in cluster.nodes)
                # every forwarding message plus every store request arrived
                # through some node's server socket
                assert frames >= reply.result.messages
                assert cluster.transport.messages_sent >= reply.result.messages
            finally:
                await client.close()
                await gateway.shutdown()
                await cluster.stop()

        asyncio.run(scenario())


    def test_one_socket_per_node(self, monkeypatch):
        """Casts (query forwarding, gossip) and requests (store, fetch) to
        a node share one TCP connection: after the inserts, queries and
        gossip rounds the cluster process has dialled every node exactly
        once."""
        dials: dict = {}
        create_connection = asyncio.BaseEventLoop.create_connection

        async def counting_create_connection(loop, factory, host, port, *args, **kwargs):
            dials[(host, port)] = dials.get((host, port), 0) + 1
            return await create_connection(loop, factory, host, port, *args, **kwargs)

        monkeypatch.setattr(asyncio.BaseEventLoop, "create_connection", counting_create_connection)

        async def scenario():
            cluster, gateway, client = await boot_cluster(8, gossip=True)
            try:
                for value in VALUES[:5]:
                    assert (await client.get(value)).found
                for origin in cluster.network.peer_ids():
                    assert (await client.range(0.0, 1000.0, origin=origin)).result.complete
                rounds = cluster.gossip_frames.get("ping", 0)
                while cluster.gossip_frames.get("ping", 0) < rounds + 2 * len(cluster.nodes):
                    await asyncio.sleep(0.01)
                assert len(cluster.nodes) == 8
                assert {node.address: dials.get(node.address) for node in cluster.nodes} == {
                    node.address: 1 for node in cluster.nodes
                }
            finally:
                await client.close()
                await gateway.shutdown()
                await cluster.stop()

        asyncio.run(scenario())


class TestLoopWakeups:
    @pytest.mark.parametrize("op", ["insert", "get"])
    def test_a_sequential_write_or_read_costs_at_most_six_loop_iterations(self, op, wakeups):
        """An insert or a get crosses two sockets and back (client →
        gateway → owner's node → gateway → client).  Each frame costs the
        event loop one iteration where it is read, not one to wake a reader
        task and one to run it, and the node's reply is answered by a
        callback, not by a task: counted with the loop's own ``_run_once``,
        so the bound holds on any machine (5.0 per request; 7.0 while each
        write and read ran as its own task).

        Nor does a request arm a loop timer: each connection keeps its
        requests' deadlines in a heap under one timer, armed for the
        earliest deadline and re-armed only when it fires or an earlier one
        is posted.  200 inserts and then 200 gets arm at most 2 in all
        (0 here; 400 for each kind while the session's ``asyncio.timeout``
        and a ``call_later`` per node request bounded every request)."""

        async def scenario():
            cluster = LiveCluster(num_peers=8, num_nodes=8, seed=SEED)
            await cluster.start()
            gateway = await Gateway(cluster).start()
            session = await LiveSession.connect(*gateway.address, pool=1)
            request = session.insert if op == "insert" else session.get
            try:
                for value in range(200):  # every link to a node dialled
                    await session.insert(float(value))
                with wakeups.counting(asyncio.get_running_loop()) as counts:
                    for value in range(200):
                        await request(float(value))
            finally:
                await session.close()
                await gateway.shutdown()
                await cluster.stop()
            return counts

        counts = asyncio.run(scenario())
        assert counts["iterations"] <= 6 * 200, f"{counts['iterations'] / 200:.2f} loop iterations per {op}"
        assert counts["timers"] <= 1, f"{counts['timers']} loop timers over 200 {op}s"


class TestGatewaySmoke:
    def test_8_peers_50_mixed_queries_all_succeed(self):
        """The CI smoke contract: 8 peers, ~50 mixed queries, 100% success."""

        async def scenario():
            cluster, gateway, client = await boot_cluster(8, num_nodes=8)
            try:
                jobs = make_mixed_jobs(
                    seed=SEED,
                    count=50,
                    peer_ids=cluster.network.peer_ids(),
                    mira_fraction=0.3,
                )
                session = await LiveSession.connect(*gateway.address, pool=2)
                try:
                    report = await run_jobs(session, jobs, mode="closed", concurrency=8)
                finally:
                    await session.close()
                assert report.queries == 50
                assert report.succeeded == 50
                assert report.success_ratio == 1.0
                assert report.stalled == 0
                assert report.latency_percentiles["p99"] > 0.0
                stats = await client.stats()
                assert stats["peers"] == 8
                assert stats["queries_served"] >= 50
                # protocol v2 multiplexing really happened: more requests
                # were concurrently in flight than pooled connections
                assert stats["peak_in_flight"] > 2
                assert "protocol_versions" not in stats  # nothing is negotiated
            finally:
                await client.close()
                await gateway.shutdown()
                await cluster.stop()

        asyncio.run(scenario())

    def test_32_peers_1000_mixed_queries_soak(self):
        """The full-size ``repro soak`` defaults: nothing lost, nothing
        stalled, and the pooled connections really multiplexed."""
        from dataclasses import replace

        from repro.experiments.livefaults import SOAK, run as run_soak

        spec = replace(
            SOAK, peers=32, nodes=8, queries=1000, concurrency=16, objects=500, seed=42, pool=4
        )
        result = run_soak(spec)
        assert result.report.queries == 1000
        assert result.report.stalled == 0
        assert result.report.success_ratio >= 0.99
        assert result.stats["peak_in_flight"] > spec.pool

    def test_open_loop_load(self):
        async def scenario():
            cluster, gateway, client = await boot_cluster(8)
            try:
                jobs = make_mixed_jobs(
                    seed=3, count=20, peer_ids=cluster.network.peer_ids(), rate=100.0
                )
                session = await LiveSession.connect(*gateway.address, pool=4)
                try:
                    report = await run_jobs(session, jobs, mode="open", time_scale=0.001)
                finally:
                    await session.close()
                assert report.queries == 20
                assert report.succeeded == 20
            finally:
                await client.close()
                await gateway.shutdown()
                await cluster.stop()

        asyncio.run(scenario())

    def test_gateway_error_replies(self):
        async def scenario():
            cluster, gateway, client = await boot_cluster(8)
            try:
                with pytest.raises(ApiError, match="unknown origin"):
                    await client.range(1.0, 2.0, origin="nonexistent")
                with pytest.raises(ApiError, match="exceeds"):
                    await client.range(10.0, 1.0)
                # the connection survives every error reply
                assert await client.ping()
            finally:
                await client.close()
                await gateway.shutdown()
                await cluster.stop()

        asyncio.run(scenario())

    def test_no_query_is_launched_from_a_crashed_peer(self):
        """A client that names no origin gets one whose process is up."""

        async def scenario():
            cluster = LiveCluster(num_peers=8, seed=SEED)
            await cluster.start()
            # A short deadline: queries that reach a crashed zone stall.
            gateway = await Gateway(cluster, deadline=0.05).start()
            down = set(cluster.network.peer_ids()[::3])
            for peer_id in down:
                cluster.crash_peer(peer_id)
            try:
                async with await LiveSession.connect(*gateway.address, pool=2) as client:
                    replies = await asyncio.gather(
                        *(client.range(float(i), float(i) + 1.0) for i in range(200))
                    )
            finally:
                await gateway.shutdown()
                await cluster.stop()
            return down, {reply.result.origin for reply in replies}

        down, origins = asyncio.run(scenario())
        assert len(down) == 3 and len(origins) > 1
        assert not origins & down

    def test_cluster_validation(self):
        with pytest.raises(ClusterError):
            LiveCluster(num_peers=2)
        with pytest.raises(ClusterError):
            LiveCluster(num_peers=8, num_nodes=0)

    def test_job_helper_against_reference_peers(self):
        """make_mixed_jobs is origin-deterministic across peer-list sources."""
        system = build_reference(16)

        async def scenario():
            cluster, gateway, client = await boot_cluster(16)
            try:
                sim_jobs = make_mixed_jobs(
                    seed=5, count=30, peer_ids=system.network.peer_ids(), mira_fraction=0.5
                )
                live_jobs = make_mixed_jobs(
                    seed=5, count=30, peer_ids=cluster.network.peer_ids(), mira_fraction=0.5
                )
                assert sim_jobs == live_jobs
                assert any(job.kind == "mira" for job in live_jobs)
                assert any(job.kind == "pira" for job in live_jobs)
            finally:
                await client.close()
                await gateway.shutdown()
                await cluster.stop()

        asyncio.run(scenario())
