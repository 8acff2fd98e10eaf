"""The acceptance bar of the API-redesign PR: one ``Session`` surface.

Everything here runs through :mod:`repro.api` only — no direct executor,
engine or client calls — because that is the redesign's contract:

* the N=32 sim≡live equivalence holds when *both* sides are driven
  through the session API (``SimSession`` vs a pooled v2 ``LiveSession``,
  including the object publication);
* a single protocol-v2 connection really pipelines: ≥ 4 requests
  concurrently in flight, replies completing out of order;
* a query's keys, and ``batch`` submission, are identical on both
  backends.
"""

from __future__ import annotations

import asyncio
import re
import struct

import pytest

from repro.api import RangeQuery, RequestOptions
from repro.api.live import LiveSession
from repro.api.requests import ApiError, InsertReply, PongReply, QueryReply
from repro.api.sim import SimSession
from repro.core.armada import ArmadaSystem
from repro.engine import QueryJob
from repro.runtime.cluster import LiveCluster
from repro.runtime.gateway import Gateway
from repro.runtime.protocol import encode_frame
from repro.sim.rng import DeterministicRNG

from raw_frames import read_frame

SEED = 7
INTERVALS = ((0.0, 1000.0), (0.0, 1000.0))
VALUES = [float(v) for v in range(0, 1000, 25)]
MULTI_VALUES = [(float(v), float(1000 - v)) for v in range(0, 1000, 100)]


async def seed_through_session(session) -> None:
    """Publish the reference population through the session API itself."""
    for value in VALUES:
        reply = await session.insert(value)
        assert isinstance(reply, InsertReply) and reply.object_id
    for pair in MULTI_VALUES:
        reply = await session.insert_multi(pair)
        assert isinstance(reply, InsertReply) and reply.object_id


def exact_bits(values) -> list:
    """Sorted ``(type name, IEEE-754 bytes)`` of keys: floats or tuples of floats."""
    return sorted(
        (type(value).__name__, b"".join(struct.pack("<d", part) for part in parts))
        for value in values
        for parts in [value if isinstance(value, tuple) else (value,)]
    )


async def boot_live(num_peers: int, pool: int = 2):
    cluster = LiveCluster(num_peers=num_peers, seed=SEED, attribute_intervals=INTERVALS)
    await cluster.start()
    gateway = await Gateway(cluster).start()
    session = await LiveSession.connect(*gateway.address, pool=pool)
    return cluster, gateway, session


def make_sim_session(num_peers: int) -> SimSession:
    return SimSession(
        ArmadaSystem(num_peers=num_peers, seed=SEED, attribute_intervals=INTERVALS)
    )


class TestSimLiveEquivalenceThroughSession:
    def test_n32_identical_results_via_session_api(self):
        """Both backends behind ``Session``; same queries, identical results."""

        async def scenario():
            sim = make_sim_session(32)
            cluster, gateway, live = await boot_live(32)
            try:
                assert sorted(cluster.network.peer_ids()) == sorted(
                    sim.system.network.peer_ids()
                ), "bootstrap must replay the simulator's topology"
                await seed_through_session(sim)
                await seed_through_session(live)

                rng = DeterministicRNG(1234)
                origins = sorted(cluster.network.peer_ids())
                for index, origin in enumerate(origins):
                    low = rng.uniform(0.0, 800.0)
                    high = low + rng.uniform(1.0, 150.0)
                    sim_reply = await sim.range(low, high, origin=origin)
                    live_reply = await live.range(low, high, origin=origin)
                    for reply in (sim_reply, live_reply):
                        assert isinstance(reply, QueryReply)
                        assert reply.status == "ok" and reply.ok
                    assert live_reply.result.destinations == sim_reply.result.destinations
                    assert sorted(live_reply.result.matching_values()) == sorted(
                        sim_reply.result.matching_values()
                    )
                    assert live_reply.result.messages == sim_reply.result.messages
                    assert live_reply.result.delay_hops == sim_reply.result.delay_hops

                    if index % 4 == 0:  # interleave MIRA boxes
                        box = ((low, high), (100.0, 900.0))
                        sim_m = await sim.multi_range(box, origin=origin)
                        live_m = await live.multi_range(box, origin=origin)
                        assert live_m.result.destinations == sim_m.result.destinations
                        assert sorted(live_m.result.matching_values()) == sorted(
                            sim_m.result.matching_values()
                        )
                        assert live_m.result.messages == sim_m.result.messages
                        assert live_m.result.delay_hops == sim_m.result.delay_hops
            finally:
                await live.close()
                await gateway.shutdown()
                await cluster.stop()

        asyncio.run(scenario())

    def test_keys_are_type_and_bit_equal_between_backends(self):
        """A reply's keys cross the socket through the column codec: the live
        ones are type- and bit-equal to the simulator's, which crossed no
        socket — for PIRA's floats and MIRA's tuples of floats."""

        async def scenario():
            sim = make_sim_session(16)
            cluster, gateway, live = await boot_live(16, pool=1)
            try:
                await seed_through_session(sim)
                await seed_through_session(live)
                origin = sorted(cluster.network.peer_ids())[0]
                box = ((0.0, 1000.0), (100.0, 900.0))
                for kind, sim_reply, live_reply in (
                    (
                        float,
                        await sim.range(100.0, 700.0, origin=origin),
                        await live.range(100.0, 700.0, origin=origin),
                    ),
                    (
                        tuple,
                        await sim.multi_range(box, origin=origin),
                        await live.multi_range(box, origin=origin),
                    ),
                ):
                    keys = exact_bits(live_reply.result.matching_values())
                    assert len(keys) > 1 and {name for name, _ in keys} == {kind.__name__}
                    assert keys == exact_bits(sim_reply.result.matching_values())
                    assert live_reply.result.destinations == sim_reply.result.destinations
            finally:
                await live.close()
                await gateway.shutdown()
                await cluster.stop()

        asyncio.run(scenario())


class TestOneRuleOnBothBackends:
    """What a request does to a deployment is decided once
    (:class:`repro.core.deployment.Deployment`), so each rule below holds
    on the simulator and on the live cluster alike."""

    @staticmethod
    async def boot(backend: str, num_peers: int):
        """``(session, owner, close)``: ``owner`` is the ``ArmadaSystem`` or
        ``LiveCluster`` — either way it has ``.network``, ``.single_namer``
        and ``.crash_peer``."""
        if backend == "sim":
            session = make_sim_session(num_peers)
            return session, session.system, session.close
        cluster, gateway, session = await boot_live(num_peers)

        async def close() -> None:
            await session.close()
            await gateway.shutdown()
            await cluster.stop()

        return session, cluster, close

    @pytest.mark.parametrize("backend", ["sim", "live"])
    def test_default_origin_is_never_a_down_peer(self, backend):
        async def scenario():
            session, owner, close = await self.boot(backend, 32)
            try:
                down = set(owner.network.peer_ids()[::4])
                assert len(down) == 8
                for peer_id in down:
                    owner.crash_peer(peer_id)
                # A query that reaches a crashed zone stalls live (no
                # resilience policy), hence the short wall-clock deadline;
                # the simulator settles the drop at once.
                deadline = 0.05 if backend == "live" else None
                replies = await asyncio.gather(
                    *(
                        session.range(float(i * 20), float(i * 20) + 1.0, deadline=deadline)
                        for i in range(40)
                    )
                )
                assert [r.result.origin for r in replies if r.result.origin in down] == []
            finally:
                await close()

        asyncio.run(scenario())

    @pytest.mark.parametrize("backend", ["sim", "live"])
    def test_write_with_a_down_target_is_refused_before_any_copy(self, backend):
        async def scenario():
            session, owner, close = await self.boot(backend, 16)
            try:
                value = 512.5
                object_id = owner.single_namer.name(value)
                victim = owner.network.replica_peers(object_id, 2)[1]
                owner.crash_peer(victim)
                with pytest.raises(ApiError, match=re.escape(repr(victim))):
                    await session.insert(value, replicas=2)
                copies = sum(
                    peer.backend.object_count() + peer.backend.replica_count()
                    for peer in owner.network.peers()
                )
                assert copies == 0
                assert not (await session.get(value)).found
            finally:
                await close()

        asyncio.run(scenario())

    @pytest.mark.parametrize("backend", ["sim", "live"])
    def test_a_traced_query_is_traced_under_its_own_query_id(self, backend):
        async def scenario():
            session, owner, close = await self.boot(backend, 16)
            try:
                await seed_through_session(session)
                request = RangeQuery(
                    low=100.0,
                    high=700.0,
                    options=RequestOptions(origin=owner.network.peer_ids()[0], trace=True),
                )
                reply = await session.submit(request)
                assert reply.trace
                assert reply.trace_id == f"pira-{reply.result.query_id}"
            finally:
                await close()

        asyncio.run(scenario())


class TestPipelining:
    def test_four_plus_in_flight_out_of_order_on_one_connection(self):
        """The multiplexing proof: one v2 connection, ≥ 4 concurrent
        requests, replies completing out of submission order."""

        async def scenario():
            cluster, gateway, session = await boot_live(16, pool=1)
            try:
                assert (await session.stats())["connections"] == 1
                await seed_through_session(session)

                completion_order: list = []

                async def tracked(tag: str, coroutine) -> None:
                    await coroutine
                    completion_order.append(tag)

                # Eight broad queries (multi-hop, real socket round trips)
                # submitted before one ping, all on the same connection.  The
                # gateway answers the ping immediately while every query is
                # still waiting on the cluster — so the last-submitted
                # request completes first: out-of-order by construction.
                queries = [
                    tracked(f"q{i}", session.range(50.0 + i, 950.0 - i))
                    for i in range(8)
                ]
                await asyncio.gather(*queries, tracked("ping", session.ping()))

                assert len(completion_order) == 9
                assert completion_order.index("ping") < 5, (
                    "the ping was submitted last; completing it before the "
                    "earlier-submitted queries is the out-of-order proof, got "
                    f"{completion_order}"
                )
                # the client saw ≥ 4 requests concurrently awaiting replies
                assert session.peak_in_flight >= 4
                # ... and so did the gateway, on that single connection
                stats = await session.stats()
                assert stats["peak_in_flight"] >= 4
                assert stats["connections"] == 1
            finally:
                await session.close()
                await gateway.shutdown()
                await cluster.stop()

        asyncio.run(scenario())

    def test_raw_frames_reply_out_of_order(self):
        """Frame-level version of the same proof, with no client machinery:
        a ping posted after four queries is answered before them."""

        async def scenario():
            cluster = LiveCluster(
                num_peers=16, seed=SEED, attribute_intervals=INTERVALS
            )
            await cluster.start()
            gateway = await Gateway(cluster).start()
            try:
                reader, writer = await asyncio.open_connection(*gateway.address)
                for rid in range(1, 5):
                    writer.write(
                        encode_frame(
                            {
                                "type": "request",
                                "rid": rid,
                                "request": {"op": "range", "low": 0.0, "high": 900.0},
                            }
                        )
                    )
                writer.write(
                    encode_frame(
                        {"type": "request", "rid": 99, "request": {"op": "ping"}}
                    )
                )
                await writer.drain()

                received = []
                while len(received) < 5:
                    frame = await read_frame(reader)
                    assert frame["type"] == "reply"
                    assert frame["payload"]["ok"] is True
                    received.append(frame["rid"])
                assert sorted(received) == [1, 2, 3, 4, 99]
                assert received[-1] != 99, (
                    f"rid 99 (ping) was submitted last but must not finish "
                    f"last on a multiplexed connection, got order {received}"
                )
                writer.close()
            finally:
                await gateway.shutdown()
                await cluster.stop()

        asyncio.run(scenario())


class TestBatch:
    def test_batch_mixes_ops_and_preserves_request_order(self):
        """One ``batch`` call: replies come back typed, in request order."""
        from repro.api.requests import Insert, MultiRangeQuery, Ping

        async def scenario():
            cluster, gateway, session = await boot_live(8, pool=2)
            try:
                # A batch's requests run concurrently, so what its query
                # must see is published by a call that completed before it.
                await session.insert(250.0)
                requests: list = [Insert(value=750.0), Insert(value=900.0)]
                requests += [
                    RangeQuery(low=0.0, high=500.0),
                    MultiRangeQuery(ranges=((0.0, 1000.0), (0.0, 1000.0))),
                    Ping(),
                ]
                replies = await session.batch(requests)
                assert len(replies) == len(requests)
                assert isinstance(replies[0], InsertReply)
                assert isinstance(replies[1], InsertReply)
                assert isinstance(replies[2], QueryReply)
                assert replies[2].result.matching_values() == [250.0]
                assert isinstance(replies[3], QueryReply)
                assert isinstance(replies[4], PongReply)
            finally:
                await session.close()
                await gateway.shutdown()
                await cluster.stop()

        asyncio.run(scenario())

    def test_batch_on_sim_session_matches_live(self):
        """The generic (sim) batch path returns the same typed replies."""
        from repro.api.requests import Insert

        async def scenario():
            sim = make_sim_session(8)
            replies = await sim.batch(
                [Insert(value=100.0), RangeQuery(low=0.0, high=500.0)]
            )
            assert isinstance(replies[0], InsertReply)
            assert isinstance(replies[1], QueryReply)
            assert replies[1].result.matching_values() == [100.0]

        asyncio.run(scenario())


class TestRunJobsArguments:
    """One driver, one validation site: both backends reject a bad
    ``run_jobs`` argument the same way."""

    @pytest.mark.parametrize("backend", ["sim", "live"])
    def test_bad_mode_and_concurrency_are_api_errors(self, backend):
        jobs = [QueryJob(arrival=0.0, low=100.0, high=200.0)]

        async def messages(session):
            found = []
            for arguments in ({"mode": "sideways"}, {"concurrency": 0}):
                with pytest.raises(ApiError) as caught:
                    await session.run_jobs(jobs, **arguments)
                found.append(str(caught.value))
            report = await session.run_jobs(jobs)  # still usable afterwards
            assert report.queries == 1
            return found

        async def scenario():
            if backend == "sim":
                return await messages(make_sim_session(8))
            cluster, gateway, session = await boot_live(8)
            try:
                with pytest.raises(ApiError, match="time_scale must be positive"):
                    await session.run_jobs(jobs, mode="open", time_scale=0.0)
                return await messages(session)
            finally:
                await session.close()
                await gateway.shutdown()
                await cluster.stop()

        assert asyncio.run(scenario()) == [
            "unknown workload mode 'sideways' (use 'open' or 'closed')",
            "concurrency must be at least 1",
        ]


class TestUnexpectedFailures:
    """Whatever a request's launch or one of its callbacks raises is that
    request's one reply, ``<Type>: <message>`` under ``payload``, and the
    rid, the connection and every node link go on serving."""

    def test_a_launch_failure_keeps_its_text_and_frees_the_rid(self, monkeypatch):
        def broken(gateway, request, answer):
            raise RuntimeError("boom")

        monkeypatch.setattr(Gateway, "_start_query", broken)

        async def scenario():
            cluster, gateway, session = await boot_live(8, pool=1)
            try:
                with pytest.raises(ApiError, match=r"^RuntimeError: boom$"):
                    await session.range(0.0, 100.0)
                assert await session.ping()
                reader, writer = await asyncio.open_connection(*gateway.address)
                request = {"type": "request", "rid": 5, "request": {"op": "range", "low": 0.0, "high": 100.0}}
                for _ in range(2):  # the same rid again: its first reply freed it
                    writer.write(encode_frame(request))
                    frame = await read_frame(reader)
                    assert frame["type"] == "reply" and frame["rid"] == 5
                    assert frame["payload"] == {"ok": False, "error": "RuntimeError: boom"}
                writer.close()
                await writer.wait_closed()
            finally:
                await session.close()
                await gateway.shutdown()
                await cluster.stop()

        asyncio.run(scenario())

    def test_a_launch_that_raises_after_answering_is_answered_once(self, monkeypatch):
        """A request answered before its launch raised keeps that first
        reply: the failure is not a second one, and the drain still sees
        every request answered."""

        def answers_then_raises(gateway, request, answer):
            answer(lambda _: PongReply())
            raise RuntimeError("after the reply")

        monkeypatch.setattr(Gateway, "_execute", answers_then_raises)

        async def scenario():
            cluster, gateway, session = await boot_live(8, pool=1)
            try:
                assert await session.ping()
                assert gateway._unanswered == 0
                await session.close()
                await asyncio.wait_for(gateway.shutdown(drain=True), timeout=5.0)
            finally:
                await session.close()
                await gateway.shutdown(drain=False)
                await cluster.stop()

        asyncio.run(scenario())

    @pytest.mark.parametrize("where", ["insert-reply", "get-read"])
    def test_a_callback_that_raises_leaves_its_node_link_open(self, monkeypatch, where):
        """The callback that ends an insert or a get runs inside the node
        link's ``data_received``, where an escaped exception would close
        the link under every request in flight on it."""
        import repro.runtime.cluster as cluster_module
        import repro.runtime.gateway as gateway_module

        name, module = {
            "insert-reply": ("InsertReply", gateway_module),
            "get-read": ("objects_from_wire", cluster_module),
        }[where]
        original = getattr(module, name)
        failures = [RuntimeError("callback broken")]

        def fails_once(*args, **kwargs):
            if failures:
                raise failures.pop()
            return original(*args, **kwargs)

        async def scenario():
            cluster, gateway, session = await boot_live(8, pool=1)
            try:
                value = VALUES[3]
                if where == "get-read":
                    await session.insert(value)
                owner = cluster.network.owner_id(cluster.single_namer.name(value))
                address = cluster.transport.address_of(owner)
                await session.ping()
                monkeypatch.setattr(module, name, fails_once)
                call = session.insert if where == "insert-reply" else session.get
                with pytest.raises(ApiError, match=r"^RuntimeError: callback broken$"):
                    await call(value)
                link = cluster.transport._links[address]
                assert not link.broken
                reply = await call(value)
                assert cluster.transport._links[address] is link and not link.broken
                assert reply.ok
            finally:
                await session.close()
                await gateway.shutdown()
                await cluster.stop()

        asyncio.run(scenario())
