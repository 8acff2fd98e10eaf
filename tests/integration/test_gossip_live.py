"""Integration tests: the gossip control plane on the live asyncio cluster.

Everything here runs real sockets on localhost: SWIM frames ride the v2
transport between peer-node processes, membership verdicts feed the
routing layer, and churn operations reshape the overlay while queries
keep flowing.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api.live import LiveSession
from repro.gossip import SwimConfig
from repro.obs.recorder import FlightRecorder
from repro.runtime.cluster import LiveCluster
from repro.runtime.gateway import Gateway

FAST = SwimConfig(
    interval=0.05, ping_timeout=0.05, indirect_timeout=0.08, suspicion_timeout=0.3
)


async def wait_converged(cluster, expect_dead=(), timeout=10.0) -> bool:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if cluster.membership_converged(expect_dead):
            return True
        await asyncio.sleep(0.05)
    return False


def gossip_cluster(**overrides) -> LiveCluster:
    options = dict(num_peers=8, num_nodes=4, seed=3, gossip=True, gossip_config=FAST)
    options.update(overrides)
    return LiveCluster(**options)


class TestFailureDetection:
    def test_crash_is_detected_and_route_withdrawn(self):
        async def scenario():
            cluster = gossip_cluster()
            await cluster.start()
            try:
                assert await wait_converged(cluster)
                victim = sorted(cluster.network.peer_ids())[0]
                cluster.crash_peer(victim)  # no unregister: gossip must do it
                assert await wait_converged(cluster, expect_dead={victim})
                assert cluster.transport.address_of(victim) is None
                counts = cluster.membership_counts()
                assert counts["dead"] == 1
            finally:
                await cluster.stop()

        asyncio.run(scenario())

    def test_restart_rejoins_and_restores_the_route(self):
        async def scenario():
            cluster = gossip_cluster()
            await cluster.start()
            try:
                assert await wait_converged(cluster)
                victim = sorted(cluster.network.peer_ids())[3]
                cluster.crash_peer(victim)
                assert await wait_converged(cluster, expect_dead={victim})
                cluster.restart_peer(victim)
                assert await wait_converged(cluster)
                assert cluster.transport.address_of(victim) is not None
                assert cluster.membership_counts()["alive"] == cluster.network.size
            finally:
                await cluster.stop()

        asyncio.run(scenario())


    def test_every_view_confirming_a_death_withdraws_the_route_once(self):
        async def scenario():
            cluster = gossip_cluster()
            await cluster.start()
            recorder = FlightRecorder()
            cluster.attach_recorder(recorder)
            try:
                assert await wait_converged(cluster)
                victim = sorted(cluster.network.peer_ids())[2]
                cluster.crash_peer(victim)
                assert await wait_converged(cluster, expect_dead={victim})
                routes = [
                    event["action"]
                    for event in recorder.events()
                    if event["type"] == "route" and event["peer"] == victim
                ]
                assert routes == ["unregister"]
                cluster.restart_peer(victim)
                assert await wait_converged(cluster)
                assert cluster.transport.address_of(victim) is not None
            finally:
                await cluster.stop()

        asyncio.run(scenario())


class TestLiveChurn:
    def test_join_then_leave_keeps_views_and_routes_consistent(self):
        async def scenario():
            cluster = gossip_cluster()
            await cluster.start()
            try:
                assert await wait_converged(cluster)
                before = cluster.network.size
                assigned = await cluster.join_peer()
                assert cluster.network.size == before + 1
                assert await wait_converged(cluster)
                assert cluster.membership_counts()["alive"] == cluster.network.size
                assert cluster.transport.address_of(assigned) is not None

                leaver = sorted(cluster.network.peer_ids())[-1]
                merged = await cluster.leave_peer(leaver)
                assert merged  # the parent zone some sibling absorbed
                assert cluster.network.size == before
                assert await wait_converged(cluster)
                assert cluster.membership_counts()["alive"] == cluster.network.size
                for peer_id in cluster.network.peer_ids():
                    assert cluster.transport.address_of(peer_id) is not None
            finally:
                await cluster.stop()

        asyncio.run(scenario())

    def test_queries_survive_a_leave(self):
        async def scenario():
            cluster = gossip_cluster()
            await cluster.start()
            gateway = await Gateway(cluster, deadline=5.0).start()
            try:
                session = await LiveSession.connect(*gateway.address, pool=2)
                try:
                    for value in range(0, 200, 5):
                        await session.insert(float(value))
                    leaver = sorted(cluster.network.peer_ids())[-1]
                    await cluster.leave_peer(leaver)
                    assert await wait_converged(cluster)
                    reply = await session.range(0.0, 1000.0)
                    values = sorted(match.key for match in reply.result.matches)
                    # The leaver's slice was handed to the inheriting
                    # sibling before departure: nothing is lost.
                    assert values == [float(value) for value in range(0, 200, 5)]
                finally:
                    await session.close()
            finally:
                await gateway.shutdown(drain=True)
                await cluster.stop()

        asyncio.run(scenario())


class TestGatewayLoss:
    def test_session_fails_cleanly_with_no_gateway_left(self):
        async def scenario():
            cluster = gossip_cluster()
            await cluster.start()
            gateway = await Gateway(cluster, deadline=5.0).start()
            try:
                session = await LiveSession.connect(*gateway.address, pool=1)
                try:
                    await session.insert(1.0)
                    await gateway.shutdown(drain=True)
                    with pytest.raises(ConnectionError):
                        await session.range(0.0, 10.0)
                finally:
                    await session.close()
            finally:
                await cluster.stop()

        asyncio.run(scenario())


class TestLiveFaultsExperiment:
    def test_small_run_detects_and_serves(self):
        from repro.experiments.livefaults import LiveFaultsSpec, run_async

        spec = LiveFaultsSpec(
            peers=8,
            nodes=4,
            queries=60,
            objects=100,
            fraction=0.25,
            concurrency=8,
            gossip_config=FAST,
        )
        result = asyncio.run(run_async(spec))
        assert result.converged, "membership never converged on the kills"
        assert len(result.killed) == 2
        assert result.success_ratio >= 0.8
        assert result.report.queries == spec.queries
        metrics = result.record()
        assert metrics["converged"] == 1.0
        assert metrics["gossip_frames"] > 0

    def test_kill_lands_exactly_after_query_k(self):
        """The victims die from the driver's completion listener, so the
        kill point is a query count — not wherever a 5 ms poll caught it."""
        from repro.experiments.livefaults import LiveFaultsSpec, run_async

        spec = LiveFaultsSpec(
            peers=16, nodes=4, queries=200, objects=100, concurrency=16, gossip_config=FAST
        )
        result = asyncio.run(run_async(spec))
        assert result.stats["killed_after"] == int(spec.queries * spec.kill_after_fraction) == 50
        assert result.report.queries == spec.queries
        # Every job — so every job launched after the kill — has a survivor
        # as its origin.
        assert all(record.job.origin not in result.killed for record in result.report.completed)
