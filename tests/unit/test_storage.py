"""Unit tests for the durable peer-storage layer (`repro.storage`).

The contract under test is the one the crash-consistency suite leans on:

* ``sync()`` is the durability barrier — after it returns, a power
  failure (:meth:`~repro.storage.base.Store.power_fail`) followed by
  :meth:`~repro.storage.base.Store.replay` restores exactly the synced
  state, bit for bit by content-addressed digest;
* unsynced writes are *allowed* to vanish at a power failure and must
  never resurrect;
* a torn final record (the crash landed mid-``write``) is truncated on
  replay, while corruption *followed by* valid records — which no crash
  can produce in an append-only log — is an integrity error.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import zlib

import pytest

from repro.binframe import encode_binary
from repro.experiments.livefaults import LiveFaultsSpec
from repro.runtime.cluster import ClusterError, LiveCluster
from repro.storage import BACKENDS, store_path
from repro.storage.base import (
    StorageError,
    StoredObject,
    ObjectList,
    objects_from_wire,
    objects_to_wire,
)
from repro.storage.memory import MemoryStore
from repro.storage.wal import WAL_HEADER, WALStore

DURABLE = ("wal",)


def make_store(backend, tmp_path, name="peer", sync_mode="always"):
    if backend == "memory":
        return MemoryStore()
    return WALStore(str(tmp_path / f"{name}.{backend}"), sync_mode=sync_mode)


def fill(store):
    """A small population exercising both ops and both key shapes."""
    store.put("0101", key=1.0, value=10.0)
    store.put("0102", key=2.0, value=None)
    store.put("0101", key=1.0, value=11.0)  # second copy under the same id
    store.put("0210", key=(3.0, 4.0), value="multi")
    store.put_replica("0120", key=9.0, value=90.0)


class TestStoreContract:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_put_get_round_trip(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        fill(store)
        assert [s.value for s in store.get("0101")] == [10.0, 11.0]
        assert store.get("0102")[0].value is None
        assert store.get("0210")[0].key == (3.0, 4.0)
        assert store.object_count() == 4
        assert store.replica_count() == 1
        assert [s.value for s in store.get_replica("0120")] == [90.0]
        # replica copies never appear in the query-scanned view
        assert "0120" not in store.view
        store.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_digest_is_backend_independent(self, backend, tmp_path):
        reference = MemoryStore()
        fill(reference)
        store = make_store(backend, tmp_path)
        fill(store)
        assert store.digest() == reference.digest()
        assert store.digest("01") == reference.digest("01")
        assert store.digest("01") != store.digest("02")
        assert store.digest(replicas=True) != store.digest(replicas=False)
        store.close()

    @pytest.mark.parametrize("backend", DURABLE)
    def test_synced_writes_survive_power_failure(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        fill(store)
        store.sync()
        digest = store.digest()
        replica_digest = store.digest(replicas=True)
        store.power_fail()
        assert store.object_count() == 0  # volatile views are gone
        assert store.replay() == 5
        assert store.digest() == digest
        assert store.digest(replicas=True) == replica_digest
        store.close()

    @pytest.mark.parametrize("backend", DURABLE)
    def test_unsynced_writes_may_vanish_and_never_resurrect(self, backend, tmp_path):
        store = make_store(backend, tmp_path, sync_mode="manual")
        store.put("0101", key=1.0, value=10.0)
        store.sync()
        store.put("0102", key=2.0, value=20.0)  # acked? no — never synced
        store.power_fail()
        store.replay()
        assert [s.value for s in store.get("0101")] == [10.0]
        assert store.get("0102") == []
        store.close()

    @pytest.mark.parametrize("backend", DURABLE)
    def test_take_prefix_is_durable(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        fill(store)
        moved = store.take_prefix("01")
        assert sorted({s.object_id for s in moved}) == ["0101", "0102"]
        store.sync()
        store.power_fail()
        store.replay()
        assert store.get("0101") == []
        assert [s.key for s in store.get("0210")] == [(3.0, 4.0)]
        store.close()

    @pytest.mark.parametrize("backend", DURABLE)
    def test_reopen_from_disk(self, backend, tmp_path):
        path = str(tmp_path / f"peer.{backend}")
        store = WALStore(path)
        fill(store)
        digest = store.digest()
        store.close()
        reopened = WALStore(path)
        assert reopened.replay() == 5
        assert reopened.digest() == digest
        reopened.close()


class TestRun:
    """The key-sorted run :meth:`Store.scan` slices."""

    @pytest.mark.parametrize("backend", DURABLE)
    def test_replay_sorts_the_run_once(self, backend, tmp_path, monkeypatch):
        """A replay appends and sorts once: never an insort per record."""
        store = make_store(backend, tmp_path, sync_mode="manual")
        for index, key in enumerate([3.0, 1, 2.5, True, -1.0, 1.0]):
            store.put(f"01{index % 3}", key=key, value=index)
        store.take_prefix("012")
        store.sync()
        before = [(s.object_id, s.key, s.value) for s in store.run]

        def no_insort(*args, **kwargs):
            raise AssertionError("replay insorted a record")

        monkeypatch.setattr("repro.storage.base.insort_right", no_insort)
        store.power_fail()
        assert store.replay() == 7
        assert [(s.object_id, s.key, s.value) for s in store.run] == before
        assert [s.value for s in store.run] == [4, 1, 3, 0]  # equal keys 1 / True in put order
        store.close()

    def test_take_prefix_keeps_the_rest_of_the_run_in_order(self):
        store = MemoryStore()
        for index, key in enumerate([2.0, 1.0, 2.0, 1.0]):
            store.put(("0101", "0201")[index % 2], key=key, value=index)
        assert [s.value for s in store.take_prefix("02")] == [1, 3]
        assert [s.value for s in store.run] == [0, 2]
        assert store.scan(2.0, 2.0) == store.run and store.scan(1.0, 1.0) == []


class TestWALIntegrity:
    def put_n(self, path, n):
        store = WALStore(path)
        for i in range(n):
            store.put(f"obj{i}", key=float(i), value=float(i))
        store.close()
        return store

    def test_torn_final_record_is_truncated(self, tmp_path):
        path = str(tmp_path / "peer.wal")
        self.put_n(path, 3)
        with open(path, "r+b") as handle:
            handle.seek(0, os.SEEK_END)
            handle.truncate(handle.tell() - 2)  # tear the last record
        store = WALStore(path)
        assert store.replay() == 2
        # the log is clean again: appends after the truncation replay fine
        store.put("obj9", key=9.0, value=9.0)
        store.sync()
        store.power_fail()
        assert store.replay() == 3
        store.close()

    def test_mid_log_corruption_is_an_error(self, tmp_path):
        path = str(tmp_path / "peer.wal")
        self.put_n(path, 3)
        with open(path, "r+b") as handle:
            handle.seek(len(WAL_HEADER) + 12)  # inside the first record body
            handle.write(b"\xff\xff")
        store = WALStore(path)
        with pytest.raises(StorageError, match="CRC mismatch"):
            store.replay()

    def test_missing_header_is_an_error(self, tmp_path):
        path = str(tmp_path / "peer.wal")
        with open(path, "wb") as handle:
            handle.write(b"not a wal file")
        with pytest.raises(StorageError, match="header"):
            WALStore(path).replay()

    def test_crc_protects_every_record(self, tmp_path):
        path = str(tmp_path / "peer.wal")
        self.put_n(path, 1)
        body = encode_binary(["put", "x", 1.0, 1.0])
        with open(path, "ab") as handle:  # append a record with a bad CRC
            handle.write(struct.pack(">II", len(body), zlib.crc32(body) ^ 1) + body)
        store = WALStore(path)
        assert store.replay() == 1  # trailing garbage == torn tail, dropped
        store.close()

    def append_framed(self, path, body):
        """Append one record whose CRC is right, whatever its body holds."""
        with open(path, "ab") as handle:
            handle.write(struct.pack(">II", len(body), zlib.crc32(body)) + body)

    def test_torn_frame_header_is_truncated(self, tmp_path):
        path = str(tmp_path / "peer.wal")
        self.put_n(path, 2)
        good_size = os.path.getsize(path)
        with open(path, "ab") as handle:  # the crash landed inside a frame header
            handle.write(b"\x00\x00\x00")
        store = WALStore(path)
        assert store.replay() == 2
        assert os.path.getsize(path) == good_size
        store.close()

    def test_undecodable_record_is_an_error(self, tmp_path):
        path = str(tmp_path / "peer.wal")
        self.put_n(path, 1)
        self.append_framed(path, b"\xff\xff")
        with pytest.raises(StorageError, match="undecodable record"):
            WALStore(path).replay()

    def test_unknown_record_op_is_an_error(self, tmp_path):
        path = str(tmp_path / "peer.wal")
        self.put_n(path, 1)
        self.append_framed(path, encode_binary(["drop", "obj0"]))
        with pytest.raises(StorageError, match="unknown record op 'drop'"):
            WALStore(path).replay()

    @pytest.mark.parametrize(
        "record, message",
        [
            (["put", "x", 1.0], "malformed put"),
            (["rput", "x", 1.0, 2.0, 3.0], "malformed rput"),
            (["take"], "malformed take"),
            ("put", "malformed record"),
        ],
    )
    def test_malformed_record_is_an_error(self, tmp_path, record, message):
        path = str(tmp_path / "peer.wal")
        self.put_n(path, 1)
        self.append_framed(path, encode_binary(record))
        with pytest.raises(StorageError, match=message):
            WALStore(path).replay()

    def test_unknown_sync_mode_is_refused(self, tmp_path):
        path = tmp_path / "peer.wal"
        with pytest.raises(StorageError, match="unknown sync_mode 'never'"):
            WALStore(str(path), sync_mode="never")
        assert not path.exists()

    def test_manual_mode_writes_nothing_until_sync(self, tmp_path):
        path = str(tmp_path / "peer.wal")
        store = WALStore(path, sync_mode="manual")
        assert os.path.getsize(path) == len(WAL_HEADER)
        store.put("obj0", key=0.0, value=0.0)
        store.put_replica("obj1", key=1.0, value=1.0)
        assert os.path.getsize(path) == len(WAL_HEADER)  # bytes on disk == bytes synced
        store.sync()
        synced_size = os.path.getsize(path)
        assert synced_size > len(WAL_HEADER)
        store.sync()  # nothing pending: no write
        assert os.path.getsize(path) == synced_size
        store.close()

    def test_a_deleted_log_replays_empty_and_is_recreated(self, tmp_path):
        path = str(tmp_path / "peer.wal")
        store = self.put_n(path, 3)
        os.remove(path)
        assert store.replay() == 0
        assert store.object_count() == 0
        with open(path, "rb") as handle:
            assert handle.read() == WAL_HEADER
        store.put("obj9", key=9.0, value=9.0)
        store.power_fail()
        assert store.replay() == 1
        store.close()

    def test_a_closed_log_refuses_writes(self, tmp_path):
        store = self.put_n(str(tmp_path / "peer.wal"), 1)
        with pytest.raises(StorageError, match="is closed"):
            store.put("obj1", key=1.0, value=1.0)
        store.close()  # closing twice is harmless


class TestBackendChoice:
    def test_only_memory_and_wal_are_backends(self, tmp_path):
        assert BACKENDS == ("memory", "wal")
        with pytest.raises(ClusterError, match="unknown storage backend"):
            LiveCluster(num_peers=8, storage="sqlite", data_dir=str(tmp_path))
        with pytest.raises(ValueError, match="storage must be one of memory, wal"):
            LiveFaultsSpec(storage="sqlite")

    def test_store_path_names_by_peer(self, tmp_path):
        assert store_path(str(tmp_path), "0121").endswith("peer-0121.wal")


class TestObjectColumns:
    """The one wire form of a list of stored objects: a list per field."""

    def test_column_shape(self):
        objects = [StoredObject("0101", 1.5, "a"), StoredObject("0120", 2, None)]
        assert objects_to_wire(objects) == {
            "object_id": ["0101", "0120"],
            "key": [1.5, 2],
            "value": ["a", None],
        }
        assert objects_to_wire([]) == {"object_id": [], "key": [], "value": []}

    def test_round_trip_with_tuple_key_and_nested_value(self):
        objects = [
            StoredObject(object_id="0101", key=(1.0, 2.0), value={"a": [1, (2, "x")]}),
            StoredObject(object_id="0102", key=7.5, value=7.5),
        ]
        wire = json.loads(json.dumps(objects_to_wire(objects)))
        assert wire["key"][0] == {"__tuple__": [1.0, 2.0]}
        assert objects_from_wire(wire) == objects

    def test_bool_keys_stay_bool(self):
        objects = [StoredObject("0101", True, False), StoredObject("0102", 1, 0)]
        rebuilt = objects_from_wire(json.loads(json.dumps(objects_to_wire(objects))))
        assert [(type(o.key), type(o.value)) for o in rebuilt] == [(bool, bool), (int, int)]

    def test_reserved_tuple_key_in_a_value_is_still_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            objects_to_wire([StoredObject("0101", 1.0, {"__tuple__": [1]})])

    def test_unequal_columns_name_their_lengths(self):
        wire = {"object_id": ["0101", "0102"], "key": [1.0], "value": [1.0, 2.0]}
        with pytest.raises(ValueError, match=r"'object_id': 2, 'key': 1, 'value': 2"):
            objects_from_wire(wire)

    def test_missing_column_is_a_value_error(self):
        with pytest.raises(ValueError, match="'value': None"):
            objects_from_wire({"object_id": ["0101"], "key": [1.0]})

    def test_row_form_is_not_decoded(self):
        """One wire form: the list of per-object dicts it replaced is malformed."""
        with pytest.raises(ValueError, match="missing"):
            objects_from_wire([{"object_id": "0101", "key": 1.0, "value": 1.0}])


class TestObjectList:
    """One sequence, two forms: the executor's objects, a client's columns."""

    OBJECTS = [StoredObject("0101", 1.5, "a"), StoredObject("0120", (2.0, 3.0), None)]

    def columns_form(self) -> ObjectList:
        return objects_from_wire(json.loads(json.dumps(objects_to_wire(self.OBJECTS))))

    def test_either_form_is_the_same_sequence(self):
        built, adopted = ObjectList(self.OBJECTS), self.columns_form()
        for matches in (built, adopted):
            assert len(matches) == 2 and matches
            assert matches.keys() == [1.5, (2.0, 3.0)]
            assert matches.columns() == (["0101", "0120"], [1.5, (2.0, 3.0)], ["a", None])
            assert matches == self.OBJECTS and matches == built and matches == adopted
            assert matches != self.OBJECTS[:1] and matches != "0101"
            assert repr(matches) == repr(self.OBJECTS)
        assert list(adopted) == self.OBJECTS and adopted[1] == self.OBJECTS[1]
        assert adopted[0] is adopted[0]  # built once, then kept
        assert self.OBJECTS[0] in adopted and adopted.index(self.OBJECTS[1]) == 1

    def test_keys_belong_to_the_caller(self):
        adopted = self.columns_form()
        adopted.keys().clear()
        assert adopted.keys() == [1.5, (2.0, 3.0)]

    def test_a_column_form_list_can_still_grow(self):
        """``append`` / ``extend`` build the objects first: nothing is lost."""
        extra = StoredObject("0201", 9.0, 9.0)
        for grow in (lambda m: m.append(extra), lambda m: m.extend([extra])):
            adopted = self.columns_form()
            grow(adopted)
            assert list(adopted) == self.OBJECTS + [extra]
            assert objects_to_wire(adopted)["object_id"] == ["0101", "0120", "0201"]

    def test_the_executor_form_holds_the_stores_objects_by_reference(self):
        matches = ObjectList()
        matches.extend(self.OBJECTS)
        matches.append(self.OBJECTS[0])
        assert len(matches) == 3 and matches.keys() == [1.5, (2.0, 3.0), 1.5]
        assert all(kept is stored for kept, stored in zip(matches, self.OBJECTS))

    def test_both_forms_survive_pickle(self):
        for matches in (ObjectList(self.OBJECTS), self.columns_form()):
            copy = pickle.loads(pickle.dumps(matches))
            assert copy == matches
            copy.extend(self.OBJECTS[:1])
            assert len(copy) == 3 and len(matches) == 2
