"""Unit tests for the core transport seam (OverlayNetwork / AsyncioTransport)."""

from __future__ import annotations

import asyncio
from types import SimpleNamespace

import pytest

from repro.core.armada import ArmadaSystem
from repro.core.errors import QueryError
from repro.core.pira import PiraExecutor
from repro.core.resumable import QueryState
from repro.faults import ResiliencePolicy
from repro.runtime.transport import AsyncioTransport
from repro.sim.network import Message, OverlayNetwork


class TestOverlayTransport:
    def test_delegates_to_overlay(self):
        overlay = OverlayNetwork()
        transport = overlay
        assert transport is overlay
        assert transport.now == overlay.simulator.now

        class Node:
            node_id = "n1"

            def handle_message(self, network, message):
                pass

        node = Node()
        transport.register(node)
        assert transport.has_node("n1")
        assert "n1" in transport.node_ids()
        transport.send(Message(sender="n1", receiver="n1", kind="t"))
        assert overlay.messages_sent == 1
        transport.unregister("n1")
        assert not transport.has_node("n1")

    def test_timer_handle_cancels(self):
        overlay = OverlayNetwork()
        transport = overlay
        fired = []
        handle = transport.schedule_after(1.0, lambda: fired.append(True), label="t")
        handle.cancel()
        overlay.run()
        assert fired == []

    def test_default_executor_transport_is_sim(self):
        system = ArmadaSystem(num_peers=16, seed=5)
        assert isinstance(system.pira.transport, OverlayNetwork)
        assert system.pira.transport is system.overlay

    def test_explicit_transport_equals_default(self):
        """The seam itself must not change any measurement."""
        baseline = ArmadaSystem(num_peers=64, seed=9)
        baseline.insert_many([float(v) for v in range(0, 1000, 40)])

        seamed = ArmadaSystem(num_peers=64, seed=9)
        seamed.insert_many([float(v) for v in range(0, 1000, 40)])
        explicit = PiraExecutor(
            seamed.network,
            seamed.single_namer,
            seamed.overlay,
        )

        origin = sorted(baseline.network.peer_ids())[0]
        want = baseline.pira.execute(origin, [(100.0, 300.0)])
        got = explicit.execute(origin, [(100.0, 300.0)])
        assert got.destinations == want.destinations
        assert got.messages == want.messages
        assert got.delay_hops == want.delay_hops
        assert sorted(got.matching_values()) == sorted(want.matching_values())


class TestAsyncioTransport:
    def test_routes_and_membership(self):
        transport = AsyncioTransport()
        transport.assign("010", ("127.0.0.1", 1234))
        assert transport.has_node("010")
        assert transport.address_of("010") == ("127.0.0.1", 1234)
        assert list(transport.node_ids()) == ["010"]
        # register() is a no-op: reachability comes from assigned addresses
        transport.register(object())
        assert list(transport.node_ids()) == ["010"]
        transport.unregister("010")
        assert not transport.has_node("010")

    def test_unrouted_send_degrades_to_drop(self):
        async def scenario():
            transport = AsyncioTransport()
            dropped = []
            message = Message(
                sender="a",
                receiver="missing",
                kind="pira",
                on_drop=dropped.append,
            )
            transport.send(message)
            assert dropped == [message]
            assert transport.messages_dropped == 1
            assert transport.messages_sent == 0

        asyncio.run(scenario())

    def test_broken_link_reports_drops(self):
        async def scenario():
            # Bind a listener, close it, then send to its (now dead) port.
            server = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            server.close()
            await server.wait_closed()

            transport = AsyncioTransport()
            transport.assign("peer", ("127.0.0.1", port))
            dropped = []
            transport.send(
                Message(sender="a", receiver="peer", kind="pira", on_drop=dropped.append)
            )
            await asyncio.sleep(0.1)
            await transport.close()
            assert len(dropped) == 1

        asyncio.run(scenario())

    def test_live_executor_refuses_sync_execute(self):
        system = ArmadaSystem(num_peers=8, seed=2)
        executor = PiraExecutor(
            system.network, system.single_namer, AsyncioTransport()
        )
        assert not hasattr(executor.transport, "run")
        with pytest.raises(QueryError):
            executor.execute("0", [(1.0, 2.0)])


class TestDetourTimerAllowance:
    """A detour's per-hop timer allows for the extra hops only where the
    transport really spends them: the overlay delays a detour by its
    ``latency`` in hops, a socket carries it as one hop."""

    TIMEOUT = 0.5

    def armed_delay(self, executor, sender, receiver):
        """The hop-timeout delay armed for a 3-hop detour from ``sender``."""
        executor.set_resilience(ResiliencePolicy(per_hop_timeout=self.TIMEOUT))
        transport = executor.transport
        armed = []
        schedule = transport.schedule_after

        def spy(delay, callback, label=""):
            armed.append((label, delay))
            return schedule(delay, callback, label)

        transport.schedule_after = spy
        executor._send = lambda message: None
        state = QueryState(result=SimpleNamespace(query_id=1, messages=0, forwarding_steps=[]))
        failed = SimpleNamespace(hop=2, receiver="gone", span=None)
        executor._forward_message(sender, receiver, 3, 5, 0, state, around=failed)
        (pending,) = state.pending.values()
        pending.timer.cancel()
        assert pending.latency == 3.0
        return armed

    def test_overlay_allows_one_unit_per_extra_hop(self):
        system = ArmadaSystem(num_peers=8, seed=2)
        sender, receiver = system.network.peer_ids()[:2]
        armed = self.armed_delay(system.pira, sender, receiver)
        assert armed == [("hop-timeout", self.TIMEOUT + 2.0)]

    def test_asyncio_transport_allows_nothing_extra(self):
        system = ArmadaSystem(num_peers=8, seed=2)
        sender, receiver = system.network.peer_ids()[:2]
        transport = AsyncioTransport()
        transport.assign(receiver, ("127.0.0.1", 9))
        executor = PiraExecutor(system.network, system.single_namer, transport)

        async def scenario():
            return self.armed_delay(executor, sender, receiver)

        assert asyncio.run(scenario()) == [("hop-timeout", self.TIMEOUT)]
