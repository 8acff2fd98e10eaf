"""Integration tests: crash consistency of the durable storage stack.

Four layers of the same promise — *an acknowledged write survives
``kill -9``* — each tested at the level where it is actually enforced:

* **process**: a :mod:`repro.runtime.storenode` subprocess is killed with
  ``SIGKILL`` mid-stream and restarted on the same log; every ``put``
  that was acknowledged before the kill must be served after replay, and
  the replay itself must never error on whatever torn tail the kill left;
* **cluster**: a live WAL-backed cluster takes acknowledged inserts
  through the gateway, hard-kills one peer and restarts it; the peer's
  content-addressed digest must be intact and the cluster must equal a
  same-seed simulator peer for peer;
* **soak**: ``repro soak --kill-restart`` restarts the drill's drawn
  victim mid-run and loses no acknowledged write;
* **replication**: ``replicas=2`` inserts stay readable through the
  ``get`` failover path after the owner crashes, and writes that cannot
  reach every replica are *reported* failed — never silently dropped.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import tempfile
from dataclasses import replace

import pytest

from repro.api.live import LiveSession
from repro.api.requests import ApiError
from repro.api.sim import SimSession
from repro.core.armada import ArmadaSystem
from repro.experiments.drill import FaultDrill
from repro.experiments.livefaults import SOAK, run
from repro.runtime.cluster import ClusterError, LiveCluster
from repro.runtime.gateway import Gateway
from repro.storage import StorageError, store_path
from repro.storage.wal import WAL_HEADER

SEED = 7
INTERVALS = ((0.0, 1000.0), (0.0, 1000.0))
VALUES = [float(v) for v in range(0, 1000, 40)]

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


# --------------------------------------------------------------------------- #
# storenode: a real process, a real SIGKILL                                    #
# --------------------------------------------------------------------------- #


def launch_storenode(path: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.runtime.storenode", "--path", path],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    hello = json.loads(proc.stdout.readline())
    return proc, hello


def reap(proc) -> None:
    """Wait for a storenode process to exit and close our end of its pipe."""
    proc.wait(timeout=10)
    proc.stdout.close()


async def storenode_rpc(port: int, **frame):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        body = json.dumps({"rid": 1, **frame}).encode("utf-8")
        writer.write(len(body).to_bytes(4, "big") + body)
        await writer.drain()
        length = int.from_bytes(await reader.readexactly(4), "big")
        return json.loads(await reader.readexactly(length))
    finally:
        writer.close()


class TestStoreNodeSigkill:
    def test_acked_writes_survive_sigkill(self, tmp_path):
        path = str(tmp_path / "peer.wal")

        async def scenario():
            proc, hello = launch_storenode(path)
            try:
                assert hello["replayed"] == 0
                digest = None
                for index in range(12):
                    reply = await storenode_rpc(
                        hello["port"], op="put", object_id=f"obj{index:02d}",
                        key=float(index), value=float(index) * 10,
                    )
                    assert reply["ok"] and reply["synced"]
                digest = (await storenode_rpc(hello["port"], op="digest"))["digest"]
            finally:
                proc.send_signal(signal.SIGKILL)
                reap(proc)

            proc, hello = launch_storenode(path)
            try:
                assert hello["replayed"] == 12  # zero acked writes lost
                assert (await storenode_rpc(hello["port"], op="digest"))["digest"] == digest
                reply = await storenode_rpc(hello["port"], op="get", object_id="obj07")
                assert reply["objects"] == [[7.0, 70.0]]
            finally:
                await storenode_rpc(hello["port"], op="quit")
                reap(proc)

        asyncio.run(scenario())

    def test_sigkill_midstream_keeps_every_acked_write(self, tmp_path):
        """Kill while writes are still in flight: the acked prefix is the
        contract — later writes may be torn, but replay must not error and
        must serve every write whose ack the client actually read."""
        path = str(tmp_path / "peer.wal")

        async def scenario():
            proc, hello = launch_storenode(path)
            reader, writer = await asyncio.open_connection("127.0.0.1", hello["port"])
            acked = 0
            try:
                # Fire a burst without awaiting acks, then read acks until
                # a threshold and kill the process with replies (and
                # possibly disk writes) still outstanding.
                for index in range(40):
                    body = json.dumps(
                        {"rid": index, "op": "put", "object_id": f"obj{index:02d}",
                         "key": float(index), "value": float(index)}
                    ).encode("utf-8")
                    writer.write(len(body).to_bytes(4, "big") + body)
                await writer.drain()
                while acked < 15:
                    length = int.from_bytes(await reader.readexactly(4), "big")
                    reply = json.loads(await reader.readexactly(length))
                    assert reply["ok"]
                    acked += 1
            finally:
                proc.send_signal(signal.SIGKILL)
                reap(proc)
                writer.close()

            proc, hello = launch_storenode(path)
            try:
                assert hello["replayed"] >= acked  # never fewer than acked
                for index in range(acked):
                    reply = await storenode_rpc(
                        hello["port"], op="get", object_id=f"obj{index:02d}"
                    )
                    assert reply["objects"] == [[float(index), float(index)]], (
                        f"acked write obj{index:02d} was lost"
                    )
            finally:
                await storenode_rpc(hello["port"], op="quit")
                reap(proc)

        asyncio.run(scenario())


# --------------------------------------------------------------------------- #
# live cluster: kill-restart one peer, compare against the simulator           #
# --------------------------------------------------------------------------- #


class TestClusterKillRestart:
    @pytest.mark.parametrize("storage", ["wal"])
    def test_restarted_peer_serves_every_acked_write(self, storage, tmp_path):
        async def scenario():
            cluster = LiveCluster(
                num_peers=12, seed=SEED, attribute_intervals=INTERVALS,
                storage=storage,
                data_dir=str(tmp_path / "logs"),  # created on demand
            )
            await cluster.start()
            gateway = await Gateway(cluster).start()
            session = await LiveSession.connect(*gateway.address, pool=2)
            try:
                for value in VALUES:
                    reply = await session.insert(value)
                    assert reply.object_id  # acked == durable on the owner

                # every peer must survive kill -9, not a lucky one
                for victim in cluster.network.peer_ids():
                    peer = cluster.network.peer(victim)
                    objects = peer.object_count()
                    digest = peer.backend.digest()
                    cluster.crash_peer(victim)
                    assert peer.object_count() == 0
                    cluster.restart_peer(victim)
                    assert peer.object_count() == objects
                    assert peer.backend.digest() == digest

                # the fault-free sim built from the same seed agrees
                system = ArmadaSystem(
                    num_peers=12, seed=SEED, attribute_intervals=INTERVALS
                )
                for value in VALUES:
                    system.insert(value, payload=float(value))
                assert sorted(system.network.peer_ids()) == sorted(
                    cluster.network.peer_ids()
                )
                for peer_id in system.network.peer_ids():
                    assert (
                        cluster.network.peer(peer_id).backend.digest()
                        == system.network.peer(peer_id).backend.digest()
                    ), f"live peer {peer_id} diverged from the simulator"
            finally:
                await session.close()
                await gateway.shutdown()
                await cluster.stop()

        asyncio.run(scenario())

    def test_non_memory_backend_requires_data_dir(self):
        with pytest.raises(ClusterError, match="data_dir"):
            LiveCluster(num_peers=8, seed=SEED, storage="wal")
        with pytest.raises(ClusterError, match="unknown storage backend"):
            LiveCluster(num_peers=8, seed=SEED, storage="floppy", data_dir="/tmp")

    def test_a_failed_start_closes_every_listener(self, tmp_path):
        """A log corrupted mid-way fails the start, and the start stops
        what it had started: no node port still accepts a connection."""
        options = dict(num_peers=8, seed=SEED, storage="wal", data_dir=str(tmp_path))

        async def scenario():
            cluster = await LiveCluster(**options).start()
            victim = cluster.network.peer_ids()[0]
            store = cluster.network.peer(victim).backend
            store.put(victim + "0", 1.0, "a")
            store.put(victim + "1", 2.0, "b")
            await cluster.stop()
            with open(store_path(str(tmp_path), victim), "r+b") as log:
                log.seek(len(WAL_HEADER) + 8)  # the first record's body
                byte = log.read(1)[0]
                log.seek(-1, os.SEEK_CUR)
                log.write(bytes([byte ^ 0xFF]))

            failed = LiveCluster(**options)
            with pytest.raises(StorageError, match="CRC mismatch"):
                await failed.start()
            assert not failed.started and len(failed.nodes) == 8
            refused = 0
            for node in failed.nodes:
                try:
                    _, writer = await asyncio.open_connection(*node.address)
                except OSError:
                    refused += 1
                else:
                    writer.close()
            assert refused == len(failed.nodes)

        asyncio.run(scenario())


class TestSoakKillRestart:
    """``repro soak --storage wal --kill-restart --replicas 2``, in-process."""

    def test_drawn_victim_restarts_with_every_acked_write(self, tmp_path):
        spec = replace(
            SOAK, peers=8, nodes=8, queries=50, objects=200, concurrency=8,
            mira_fraction=0.3, storage="wal", data_dir=str(tmp_path),
            kill_restart=True, write_replicas=2,
        )
        result = run(spec)
        assert result.report.success_ratio == 1.0
        assert result.success_ratio == 1.0
        boot = ArmadaSystem(num_peers=8, seed=spec.seed).network.peer_ids()
        (drawn,) = FaultDrill(peers=8, seed=spec.seed, fraction=1 / 8).pick_victims(boot)
        restart = result.stats["kill_restart"]
        assert result.killed == [restart["victim"]] == [drawn]
        assert restart["replayed"] > 0
        assert restart["objects_before"] == restart["objects_after"] > 0

    def test_auto_created_data_dir_is_removed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        spec = replace(SOAK, peers=4, nodes=2, queries=8, objects=20, storage="wal")
        assert run(spec).report.success_ratio == 1.0
        assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------------- #
# replication: acked means k copies, reads fail over, failures are reported    #
# --------------------------------------------------------------------------- #


class TestReplication:
    def test_acked_keys_survive_owner_crash(self, tmp_path):
        async def scenario():
            cluster = LiveCluster(
                num_peers=12, seed=SEED, attribute_intervals=INTERVALS,
                storage="wal", data_dir=str(tmp_path),
            )
            await cluster.start()
            gateway = await Gateway(cluster).start()
            session = await LiveSession.connect(*gateway.address, pool=2)
            try:
                placements = {}
                for value in VALUES:
                    reply = await session.insert(value, replicas=2)
                    assert len(reply.replicas) == 2  # acked == 2 durable copies
                    placements[value] = reply.replicas

                victim = cluster.network.peer_ids()[0]
                cluster.crash_peer(victim)

                for value in VALUES:
                    reply = await session.get(value)
                    assert reply.found, f"acked write {value} unreadable after crash"
                    assert reply.values == (float(value),)
                    assert reply.peer != victim
                    if placements[value][0] == victim:
                        # served from the sibling's replica copy
                        assert reply.peer in placements[value][1:]
            finally:
                await session.close()
                await gateway.shutdown()
                await cluster.stop()

        asyncio.run(scenario())

    def test_write_to_down_replica_is_reported_failed(self, tmp_path):
        """A write that cannot reach every replica raises — the client sees
        the failure (and how many copies made it), never a silent drop."""
        async def scenario():
            cluster = LiveCluster(
                num_peers=12, seed=SEED, attribute_intervals=INTERVALS,
                storage="wal", data_dir=str(tmp_path),
            )
            await cluster.start()
            gateway = await Gateway(cluster).start()
            session = await LiveSession.connect(*gateway.address, pool=2)
            try:
                victim = cluster.network.peer_ids()[0]
                cluster.crash_peer(victim)
                hit, ok = 0, 0
                for value in VALUES:
                    object_id = cluster.single_namer.name(value)
                    if victim in cluster.network.replica_peers(object_id, 2):
                        hit += 1
                        with pytest.raises(ApiError, match="down"):
                            await session.insert(value, replicas=2)
                        # the failed write is not readable as a ghost
                        assert not (await session.get(value)).found
                    else:
                        ok += 1
                        reply = await session.insert(value, replicas=2)
                        assert len(reply.replicas) == 2
                assert hit > 0 and ok > 0  # both paths actually exercised
            finally:
                await session.close()
                await gateway.shutdown()
                await cluster.stop()

        asyncio.run(scenario())

    def test_refused_copy_is_reported_with_the_durable_count(self):
        """A node that *answers* ``ok: false`` to a ``store`` is a reply, not
        a transport failure: the client gets the (k/n copies durable) error
        promptly instead of sitting out its session timeout."""
        async def scenario():
            cluster = await LiveCluster(num_peers=8, seed=SEED).start()
            gateway = await Gateway(cluster).start()
            session = await LiveSession.connect(*gateway.address, pool=1, timeout=3.0)
            handle_store = cluster._handle_store

            def refuse_replicas(frame):
                if frame.get("role") == "replica":
                    return {"ok": False, "error": "disk full"}
                return handle_store(frame)

            cluster._handle_store = refuse_replicas
            loop = asyncio.get_running_loop()
            try:
                started = loop.time()
                with pytest.raises(ApiError, match="disk full.*1/2 copies durable"):
                    await session.insert(VALUES[3], replicas=2)
                assert loop.time() - started < 1.0
                assert await session.ping()  # the connection is still serving
            finally:
                await session.close()
                await gateway.shutdown()
                await cluster.stop()

        asyncio.run(scenario())

    def test_store_frame_without_a_peer_is_malformed(self):
        """Every ``store`` frame names the peer and role of its one copy; one
        that does not is answered ``ok: false`` and appends nothing."""
        async def scenario():
            cluster = await LiveCluster(num_peers=8, seed=SEED).start()
            try:
                object_id = cluster.single_namer.name(VALUES[3])
                address = cluster.transport.address_of(cluster.network.owner_id(object_id))
                reply = await cluster.transport.request(
                    address,
                    {"type": "store", "object_id": object_id, "key": VALUES[3], "value": None},
                )
                assert reply["ok"] is False and "peer" in reply["error"]
                assert cluster.network.total_objects() == 0 and cluster.store_syncs == 0
            finally:
                await cluster.stop()

        asyncio.run(scenario())

    def test_get_falls_over_when_the_holder_refuses(self):
        """``ok: false`` from the first copy holder's ``fetch`` sends the
        read to the next replica holder."""
        async def scenario():
            cluster = await LiveCluster(num_peers=8, seed=SEED).start()
            gateway = await Gateway(cluster).start()
            session = await LiveSession.connect(*gateway.address, pool=1, timeout=3.0)
            handle_fetch = cluster._handle_fetch
            try:
                owner, sibling = (await session.insert(VALUES[3], replicas=2)).replicas

                def owner_refuses(frame):
                    if frame["peer"] == owner:
                        return {"ok": False, "error": "compacting"}
                    return handle_fetch(frame)

                cluster._handle_fetch = owner_refuses
                reply = await session.get(VALUES[3])
                assert reply.found and reply.values == (VALUES[3],)
                assert reply.peer == sibling
            finally:
                await session.close()
                await gateway.shutdown()
                await cluster.stop()

        asyncio.run(scenario())

    def test_unexpected_failure_still_answers_the_request(self):
        """Whatever an insert dies of, its rid gets exactly one reply frame:
        ``<Type>: <message>``, the rule a peer node applies to its handlers."""
        async def scenario():
            cluster = await LiveCluster(num_peers=8, seed=SEED).start()
            gateway = await Gateway(cluster).start()
            session = await LiveSession.connect(*gateway.address, pool=1, timeout=3.0)

            async def broken_store(*args, **kwargs):
                raise RuntimeError("placement table corrupt")

            cluster.store = broken_store
            try:
                with pytest.raises(ApiError, match="RuntimeError: placement table corrupt"):
                    await session.insert(VALUES[3])
                assert await session.ping()
            finally:
                await session.close()
                await gateway.shutdown()
                await cluster.stop()

        asyncio.run(scenario())

    def test_sim_session_matches_live_semantics(self):
        """The sim binding honours the same replica ack rule and failover
        read — with the fault injector supplying the crash."""

        async def scenario():
            system = ArmadaSystem(num_peers=12, seed=SEED, attribute_intervals=INTERVALS)
            session = SimSession(system)
            placements = {}
            for value in VALUES:
                reply = await session.insert(value, replicas=2)
                assert len(reply.replicas) == 2
                placements[value] = reply.replicas

            victim = system.network.peer_ids()[0]
            system.crash_peer(victim)

            for value in VALUES:
                reply = await session.get(value)
                assert reply.found
                assert reply.values == (float(value),)
                assert reply.peer != victim

        asyncio.run(scenario())
