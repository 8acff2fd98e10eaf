"""Integration tests: the live cluster's tenancy map under churn.

In FISSIONE a PeerID *is* its zone, so a join renames the split incumbent
and a leave hands the leaver's id to a relocated sibling.  ``LiveCluster``
records where each live PeerID lives in one map (``homes``) and edits it,
with the transport route and the down flag, in one placement and one
rename.  These tests hold that record consistent after every churn
operation, and pin the two churn bugs the old per-node copies hid.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.gossip import ALIVE, SwimConfig
from repro.runtime.cluster import LiveCluster

FAST = SwimConfig(
    interval=0.05, ping_timeout=0.05, indirect_timeout=0.08, suspicion_timeout=0.3
)


async def wait_for(condition, timeout=10.0) -> bool:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if condition():
            return True
        await asyncio.sleep(0.05)
    return False


async def wait_converged(cluster, expect_dead=()) -> bool:
    return await wait_for(lambda: cluster.membership_converged(expect_dead))


def check_tenancy(cluster: LiveCluster, seen: set) -> None:
    """The tenancy invariants, checked after every churn operation."""
    live = set(cluster.network.peer_ids())
    # Every live PeerID has exactly one home, and only live ids have one.
    assert set(cluster.homes) == live
    assert all(any(home is node for node in cluster.nodes) for home in cluster.homes.values())
    assert cluster.down_peers <= live
    # No retired id keeps a home, a down flag or a route.
    for retired in seen - live:
        assert retired not in cluster.homes
        assert retired not in cluster.down_peers
        assert cluster.transport.address_of(retired) is None
    # A routed peer is routed to its home; without gossip nothing withdraws
    # a route, so every live peer is routed.
    for peer_id, home in cluster.homes.items():
        route = cluster.transport.address_of(peer_id)
        if route is not None or not cluster.gossip_enabled:
            assert route == home.address, peer_id
    # SWIM's hosted() callback is the node's share of the same map.
    for node in cluster.nodes:
        agent = cluster.agents.get(node.name)
        if agent is not None:
            tenants = {peer_id for peer_id, home in cluster.homes.items() if home is node}
            assert set(agent._hosted()) == tenants, node.name


def _up(cluster: LiveCluster, ids) -> list:
    return sorted(peer_id for peer_id in ids if peer_id not in cluster.down_peers)


async def _churn_step(cluster: LiveCluster, op: str, rng: random.Random, shapes: set) -> None:
    pair = cluster.network._deepest_sibling_pair()
    if op == "join":
        await cluster.join_peer()
    elif op == "crash-pair":
        # A crashed member of the deepest pair is renamed by the next leave.
        cluster.crash_peer(rng.choice(_up(cluster, pair) or _up(cluster, cluster.homes)))
    elif op == "crash":
        cluster.crash_peer(rng.choice(_up(cluster, cluster.network.peer_ids())))
    elif op == "restart":
        down = sorted(cluster.down_peers)
        if down:
            cluster.restart_peer(rng.choice(down))
    else:
        # "leave-pair": the leaver is one of the deepest siblings, the other
        # absorbs the parent zone in place.  "leave-other": the freed right
        # sibling relocates into the leaver's zone under the leaver's id.
        in_pair = _up(cluster, pair)
        others = _up(cluster, set(cluster.network.peer_ids()) - set(pair))
        leaver = rng.choice(in_pair if op == "leave-pair" and in_pair else others)
        await cluster.leave_peer(leaver)
        shapes.add("relocated" if cluster.network.has_peer(leaver) else "in-place")


CYCLE = (
    "join", "crash-pair", "leave-pair", "restart",
    "join", "crash-pair", "leave-other", "restart",
    "crash", "join", "leave-other", "leave-pair", "restart",
)


@pytest.mark.parametrize("gossip", [False, True], ids=["static", "gossip"])
@pytest.mark.parametrize("num_nodes", [None, 2, 4])
@pytest.mark.parametrize("seed", [1, 3, 7, 12])
def test_every_churn_op_keeps_one_home_per_peer(seed, num_nodes, gossip):
    async def scenario():
        cluster = LiveCluster(
            num_peers=10, seed=seed, num_nodes=num_nodes, gossip=gossip, gossip_config=FAST
        )
        await cluster.start()
        rng = random.Random(seed)
        seen = set(cluster.network.peer_ids())
        shapes: set = set()
        try:
            check_tenancy(cluster, seen)
            for op in CYCLE * 2:
                await _churn_step(cluster, op, rng, shapes)
                seen |= set(cluster.network.peer_ids())
                check_tenancy(cluster, seen)
                await asyncio.sleep(0)
            assert shapes == {"in-place", "relocated"}
            for peer_id in sorted(cluster.down_peers):
                cluster.restart_peer(peer_id)
            check_tenancy(cluster, seen)
            assert cluster.stats()["down_peers"] == 0
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_a_relocated_heir_on_the_leavers_node_keeps_its_home():
    """Seed 1, 8 peers on 4 nodes: ``'20'`` leaves and the freed sibling
    ``'012'`` — hosted on the same node — relocates under ``'20'``.  The
    heir must stay hosted there, so after a crash and a restart its route
    comes back and every view holds it alive."""

    async def scenario():
        cluster = LiveCluster(
            num_peers=8, seed=1, num_nodes=4, gossip=True, gossip_config=FAST
        )
        await cluster.start()
        try:
            assert await wait_converged(cluster)
            await cluster.leave_peer("20")
            assert cluster.network.has_peer("20")  # the heir took the id
            assert await wait_converged(cluster)
            cluster.crash_peer("20")
            assert await wait_converged(cluster, expect_dead={"20"})
            cluster.restart_peer("20")
            assert cluster.transport.address_of("20") is not None
            # A FAST-timer view may briefly suspect anyone; it must settle alive.
            assert await wait_for(
                lambda: all(
                    agent.table.state_of("20") == ALIVE for agent in cluster.agents.values()
                )
            )
            assert cluster.transport.address_of("20") is not None
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_a_down_flag_follows_the_split_of_a_dead_zone():
    """Seed 12: a join splits the crashed ``'12'`` zone, renaming its
    incumbent ``'120'``.  The incumbent is still down under its new name,
    the retired id is gone from every structure, and a restart under the
    new name clears the flag."""

    async def scenario():
        cluster = LiveCluster(num_peers=8, seed=12, num_nodes=4)
        await cluster.start()
        try:
            cluster.crash_peer("12")
            assert await cluster.join_peer() == "121"
            assert cluster.down_peers == {"120"}
            assert not cluster.network.has_peer("12")
            assert "12" not in cluster.homes
            assert cluster.transport.address_of("12") is None
            assert cluster.stats()["down_peers"] == 1
            cluster.restart_peer("120")
            assert cluster.stats()["down_peers"] == 0
            assert cluster.membership_counts()["alive"] == cluster.network.size
        finally:
            await cluster.stop()

    asyncio.run(scenario())
