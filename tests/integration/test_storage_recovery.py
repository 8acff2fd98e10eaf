"""Integration tests: crash consistency of the durable storage stack.

Four layers of the same promise — *an acknowledged write survives
``kill -9``* — each tested at the level where it is actually enforced:

* **process**: a writer process putting into a WAL is killed with
  ``SIGKILL`` mid-stream and its log is replayed; every ``put`` whose ack
  was read before the kill must be served after replay, and the replay
  itself must never error on whatever torn tail the kill left;
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
import os
import signal
import subprocess
import sys
import tempfile
from dataclasses import replace
from typing import Optional

import pytest

from repro.api.live import LiveSession
from repro.api.requests import ApiError
from repro.api.sim import SimSession
from repro.core.armada import ArmadaSystem
from repro.experiments.drill import FaultDrill
from repro.experiments.livefaults import SOAK, run
from repro.runtime.cluster import ClusterError, LiveCluster
from repro.runtime.gateway import Gateway
from repro.storage import StorageError, WALStore, store_path
from repro.storage.wal import WAL_HEADER

from raw_frames import posted

SEED = 7
INTERVALS = ((0.0, 1000.0), (0.0, 1000.0))
VALUES = [float(v) for v in range(0, 1000, 40)]

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


# --------------------------------------------------------------------------- #
# a real process, a real SIGKILL                                               #
# --------------------------------------------------------------------------- #

#: The kill target: it replays the WAL at ``argv[1]``, as a restarting peer
#: does, then puts each ``object_id key value`` line of stdin into it and
#: syncs, then acks with the store's digest.  A line with a fourth field,
#: ``cut``, tears its record instead: the first ``cut`` bytes go to the file
#: in one write, ``torn`` is printed, and the rest would follow a pause that
#: the kill lands in.
WRITER = """
import sys, time
from repro.storage import WALStore
store = WALStore(sys.argv[1], sync_mode="manual")
store.replay()
for line in sys.stdin:
    object_id, key, value, *cut = line.split()
    store.put(object_id, key=float(key), value=float(value))
    if cut:
        record = bytes(store._pending)
        store._file.write(record[: int(cut[0])])
        store._file.flush()
        print("torn", flush=True)
        time.sleep(30)
        store._file.write(record[int(cut[0]) :])
        continue
    store.sync()
    print(store.digest(), flush=True)
"""


def kill_mid_write(path: str, writes: int, acks: int, cut: Optional[int] = None) -> list:
    """Send ``writes`` writes to a writer process in one burst, read
    ``acks`` acks and SIGKILL it; returns the acks read.  With ``cut``, the
    last write is torn after ``cut`` bytes, and the kill waits until it is
    (``acks`` is then every other write)."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    lines = [f"obj{index:02d} {index} {index * 10}" for index in range(writes)]
    if cut is not None:
        lines[-1] += f" {cut}"
    with subprocess.Popen(
        [sys.executable, "-c", WRITER, path],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
    ) as proc:
        try:
            proc.stdin.write("".join(line + "\n" for line in lines))
            proc.stdin.flush()
            read = [proc.stdout.readline() for _ in range(acks)]
            if cut is not None:
                assert proc.stdout.readline().strip() == "torn"
        finally:
            proc.send_signal(signal.SIGKILL)
    return [ack.strip() for ack in read]


def stored(store, object_id: str) -> list:
    return [(found.key, found.value) for found in store.get(object_id)]


class TestWriterSigkill:
    def test_acked_writes_survive_sigkill(self, tmp_path):
        path = str(tmp_path / "peer.wal")
        digests = kill_mid_write(path, writes=12, acks=12)
        store = WALStore(path)
        try:
            assert store.replay() == 12  # zero acked writes lost
            assert store.digest() == digests[-1]
            assert stored(store, "obj07") == [(7.0, 70.0)]
        finally:
            store.close()

    @pytest.mark.parametrize("acks", [0, 1, 15])
    def test_sigkill_midstream_keeps_every_acked_write(self, tmp_path, acks):
        """Kill while writes are still in flight: the acked prefix is the
        contract -- later writes may be torn, but replay must not error, must
        serve every write whose ack was read, and must cut a torn tail at a
        record boundary so the next append replays too."""
        path = str(tmp_path / "peer.wal")
        kill_mid_write(path, writes=40, acks=acks)
        store = WALStore(path)
        try:
            replayed = store.replay()
            assert replayed >= acks  # never fewer than acked
            for index in range(acks):
                assert stored(store, f"obj{index:02d}") == [(float(index), index * 10.0)], (
                    f"acked write obj{index:02d} was lost"
                )
            store.put("after", key=1.0, value=1.0)
            assert store.replay() == replayed + 1
        finally:
            store.close()

    @pytest.mark.parametrize("cut", [3, 12], ids=["mid-header", "mid-body"])
    def test_a_record_torn_by_the_kill_is_cut_off_and_the_log_appends_again(self, tmp_path, cut):
        """The kill lands between the two writes of one record: replay
        serves every acked write, truncates the torn bytes, and an append
        after it replays."""
        path = str(tmp_path / "peer.wal")
        digests = kill_mid_write(path, writes=4, acks=3, cut=cut)
        torn_size = os.path.getsize(path)
        store = WALStore(path)
        try:
            assert store.replay() == 3
            assert store.digest() == digests[-1] and stored(store, "obj03") == []
            assert os.path.getsize(path) == torn_size - cut
            store.put("after", key=1.0, value=1.0)
            assert store.replay() == 4
            assert stored(store, "after") == [(1.0, 1.0)]
        finally:
            store.close()

    def test_a_restarted_writer_replays_then_appends(self, tmp_path):
        """A second process replays the log a killed one left and appends
        to it: both processes' acked writes replay, and the digest matches
        the second one's last ack."""
        path = str(tmp_path / "peer.wal")
        kill_mid_write(path, writes=40, acks=5)
        digests = kill_mid_write(path, writes=3, acks=3)
        store = WALStore(path)
        try:
            replayed = store.replay()
            assert replayed >= 5 + 3
            assert store.digest() == digests[-1]
            for index in range(5):
                assert stored(store, f"obj{index:02d}")[-1] == (float(index), index * 10.0)
        finally:
            store.close()


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
                reply = await posted(
                    cluster.transport.post,
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

            def broken_store(*args, **kwargs):
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
