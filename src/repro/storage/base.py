"""The storage seam under the overlay: :class:`Store` and its contract.

Every FISSIONE peer owns the objects published into its Kautz prefix zone.
Until this layer existed those objects lived in a bare dict on the peer —
a crash-recover fault could "recover" state that was never at risk, and
the ``replicas`` request option could only re-run queries.  A
:class:`Store` separates the two concerns a real deployment has to keep
apart:

* the **read view** (:attr:`Store.view`): the in-memory
  ``{object_id: [StoredObject, ...]}`` buckets the query executors scan on
  the hot path.  The view is plain data — the PIRA destination loop reads
  it directly, so the simulator's fault-free byte-identical guarantee is
  preserved no matter which backend maintains it;
* the **durable log** (backend-specific): an ordered record of every write
  (`put` / `rput` / `take`) that survives a process kill.  A write is
  *acknowledged* only once :meth:`Store.sync` has returned — the
  durability barrier replication and the gateway ack rule are built on.

The crash/recovery contract (exercised by the crash-consistency suite in
``tests/property/test_prop_storage.py``):

* :meth:`power_fail` models losing the process *and* everything that was
  not yet synced: the read views vanish, the unsynced log tail vanishes.
  It is deliberately **stricter than a real ``kill -9``** (where
  OS-buffered ``write()`` data usually survives): anything the tests prove
  under :meth:`power_fail` holds under a mere process kill too;
* :meth:`replay` rebuilds the views from the durable medium, tolerating a
  torn final record (a crash mid-append), and returns the number of
  records applied.  After ``power_fail(); replay()`` the view must equal
  the view at the last :meth:`sync` — that is the crash-consistency
  property, word for word.

Replica copies (:attr:`Store.replica_view`) are objects this peer stores
on behalf of a *prefix sibling* (see
:meth:`repro.fissione.network.FissioneNetwork.replica_peers`).  They are
durably logged like primary writes but kept out of :attr:`view`, so range
queries scanning a destination peer never double-count an object that is
both owned by one peer and replicated on another.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence

from repro.binframe import encode_binary
from repro.wire import SCALAR_TYPES, decode_value, encode_value


class StorageError(RuntimeError):
    """Raised on invalid storage operations or an unusable durable medium."""


@dataclass(slots=True)
class StoredObject:
    """An object published into the DHT."""

    object_id: str
    key: Any
    value: Any


#: the wire columns of a list of stored objects, one list per field
OBJECT_COLUMNS = ("object_id", "key", "value")


def objects_to_wire(objects: Sequence[StoredObject]) -> Dict[str, List[Any]]:
    """Column form: no dict and no repeated field names per object, and no
    codec call for a scalar key or value (tuples are tagged as ever)."""
    scalars = SCALAR_TYPES
    return {
        "object_id": [s.object_id for s in objects],
        "key": [s.key if type(s.key) in scalars else encode_value(s.key) for s in objects],
        "value": [s.value if type(s.value) in scalars else encode_value(s.value) for s in objects],
    }


def objects_from_wire(wire: Dict[str, List[Any]]) -> List[StoredObject]:
    """Inverse of :func:`objects_to_wire`; a missing column or columns of
    unequal length are a :class:`ValueError` naming the lengths."""
    columns = [wire[name] if name in wire else None for name in OBJECT_COLUMNS]
    lengths = [len(column) if isinstance(column, list) else None for column in columns]
    if None in lengths or len(set(lengths)) != 1:
        named = dict(zip(OBJECT_COLUMNS, lengths))
        raise ValueError(f"object columns missing or of unequal length: {named}")
    plain, decode = SCALAR_TYPES, decode_value
    return [
        StoredObject(oid, k if type(k) in plain else decode(k), v if type(v) in plain else decode(v))
        for oid, k, v in zip(*columns)
    ]


class Store:
    """Base store: the in-memory read views plus no-op durability hooks.

    Used directly as the **memory backend** (see
    :class:`~repro.storage.memory.MemoryStore`): the view manipulation
    here is byte-for-byte the dict logic that used to live on
    :class:`~repro.fissione.peer.FissionePeer`, so simulator runs on the
    default backend are unchanged.  Durable backends override the three
    ``_log_*`` hooks plus :meth:`sync` / :meth:`replay` /
    :meth:`_drop_unsynced` / :meth:`close`.
    """

    #: short name reported in stats and CLI flags
    backend_name = "memory"

    def __init__(self) -> None:
        #: primary read view — scanned directly by the query executors
        self.view: Dict[str, List[StoredObject]] = {}
        #: replica copies held for prefix siblings — never query-scanned
        self.replica_view: Dict[str, List[StoredObject]] = {}

    # ------------------------------------------------------------------ #
    # write path                                                           #
    # ------------------------------------------------------------------ #

    def put(self, object_id: str, key: Any, value: Any) -> StoredObject:
        """Append one primary object (durably logged, view updated)."""
        stored = StoredObject(object_id=object_id, key=key, value=value)
        self._log_record("put", object_id, key, value)
        self.view.setdefault(object_id, []).append(stored)
        return stored

    def put_replica(self, object_id: str, key: Any, value: Any) -> StoredObject:
        """Append one replica copy held on behalf of a prefix sibling."""
        stored = StoredObject(object_id=object_id, key=key, value=value)
        self._log_record("rput", object_id, key, value)
        self.replica_view.setdefault(object_id, []).append(stored)
        return stored

    def absorb(self, objects: Iterable[StoredObject]) -> None:
        """Add primary objects handed over from another peer (zone moves)."""
        for stored in objects:
            self._log_record("put", stored.object_id, stored.key, stored.value)
            self.view.setdefault(stored.object_id, []).append(stored)

    def take_prefix(self, prefix: str) -> List[StoredObject]:
        """Remove and return primary objects whose ObjectID extends ``prefix``.

        Used when a zone splits and half of the objects move to the new
        peer; the removal is durably logged so a replay never resurrects
        handed-over objects.
        """
        moved: List[StoredObject] = []
        remaining: Dict[str, List[StoredObject]] = {}
        for object_id, bucket in self.view.items():
            if object_id.startswith(prefix):
                moved.extend(bucket)
            else:
                remaining[object_id] = bucket
        if moved:
            self._log_take(prefix)
        self.view = remaining
        return moved

    # ------------------------------------------------------------------ #
    # durability barrier / crash / recovery                                #
    # ------------------------------------------------------------------ #

    def sync(self) -> None:
        """Durability barrier: on return every prior write survives a crash.

        The ack rule of the write path: an insert is acknowledged to the
        client only after ``sync()`` returned on every replica's store.
        The memory backend has no durable medium — sync is a no-op and a
        crash loses everything, which is exactly what the corrected
        ``CrashRecover`` semantics expose.
        """

    def power_fail(self) -> None:
        """Crash the store: views are gone, the unsynced log tail is gone."""
        self.view = {}
        self.replica_view = {}
        self._drop_unsynced()

    def replay(self) -> int:
        """Rebuild the views from the durable medium; returns records applied."""
        return 0

    def close(self) -> None:
        """Graceful shutdown: flush everything durably and release handles."""

    # -- hooks for durable backends ---------------------------------------

    def _log_record(self, op: str, object_id: str, key: Any, value: Any) -> None:
        """Append one write record to the durable log (no-op in memory)."""

    def _log_take(self, prefix: str) -> None:
        """Append one prefix-removal record to the durable log."""

    def _drop_unsynced(self) -> None:
        """Discard log records not yet covered by a :meth:`sync`."""

    # -- replay helper shared by the durable backends ----------------------

    def _apply_record(self, op: str, object_id: str, key: Any, value: Any) -> None:
        """Apply one decoded log record to the in-memory views."""
        if op == "put":
            self.view.setdefault(object_id, []).append(
                StoredObject(object_id=object_id, key=key, value=value)
            )
        elif op == "rput":
            self.replica_view.setdefault(object_id, []).append(
                StoredObject(object_id=object_id, key=key, value=value)
            )
        elif op == "take":
            prefix = object_id
            self.view = {
                oid: bucket
                for oid, bucket in self.view.items()
                if not oid.startswith(prefix)
            }
        else:
            raise StorageError(f"unknown log record op {op!r}")

    # ------------------------------------------------------------------ #
    # reads                                                                #
    # ------------------------------------------------------------------ #

    def get(self, object_id: str) -> List[StoredObject]:
        """Primary objects stored under ``object_id`` (empty when none)."""
        return list(self.view.get(object_id, []))

    def get_replica(self, object_id: str) -> List[StoredObject]:
        """Replica copies held under ``object_id`` (empty when none)."""
        return list(self.replica_view.get(object_id, []))

    def objects(self) -> List[StoredObject]:
        """All primary objects, bucket by bucket."""
        result: List[StoredObject] = []
        for bucket in self.view.values():
            result.extend(bucket)
        return result

    def object_count(self) -> int:
        """Number of primary objects."""
        return sum(len(bucket) for bucket in self.view.values())

    def replica_count(self) -> int:
        """Number of replica copies held for siblings."""
        return sum(len(bucket) for bucket in self.replica_view.values())

    # ------------------------------------------------------------------ #
    # content-addressed integrity                                          #
    # ------------------------------------------------------------------ #

    def digest(self, prefix: str = "", replicas: bool = False) -> str:
        """SHA-256 over the canonical serialisation of a prefix slice.

        The canonical form sorts buckets by ObjectID and serialises every
        record with the deterministic binary codec, so two stores hold the
        same slice *iff* their digests match — the content-addressed
        integrity check the recovery tests pin replayed state with.
        """
        view = self.replica_view if replicas else self.view
        hasher = hashlib.sha256()
        for object_id in sorted(view):
            if prefix and not object_id.startswith(prefix):
                continue
            for stored in view[object_id]:
                hasher.update(
                    encode_binary(
                        [
                            stored.object_id,
                            encode_value(stored.key),
                            encode_value(stored.value),
                        ]
                    )
                )
        return hasher.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"{type(self).__name__}(objects={self.object_count()}, "
            f"replicas={self.replica_count()})"
        )
