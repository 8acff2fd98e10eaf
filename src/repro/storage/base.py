"""The storage seam under the overlay: :class:`Store` and its contract.

Every FISSIONE peer owns the objects published into its Kautz prefix zone.
Until this layer existed those objects lived in a bare dict on the peer —
a crash-recover fault could "recover" state that was never at risk, and
the ``replicas`` request option could only re-run queries.  A
:class:`Store` separates the two concerns a real deployment has to keep
apart:

* the **read views**: :attr:`Store.view`, the in-memory
  ``{object_id: [StoredObject, ...]}`` buckets that ``get``, ``digest``,
  ``objects`` and ``take_prefix`` read, and :attr:`Store.run`, the same
  primary objects with a numeric key in one list sorted by key.
  ``Single_hash`` is order-preserving, so a PIRA destination's matches
  are one contiguous slice of its run: :meth:`Store.scan` bisects the two
  bounds instead of walking the zone.  Every edit of the views goes
  through ``_add`` / ``_drop_prefix`` / ``_reset_views``, so the two
  cannot disagree;
* the **durable log** (the WAL's; none in memory): an ordered record of every write
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
  records applied.  After ``power_fail(); replay()`` the views must equal
  the views at the last :meth:`sync` — that is the crash-consistency
  property, word for word.  Replay appends each record's object to the
  run unsorted and sorts the run once at the end; the sort is stable, so
  equal keys keep log order, which is the order a live run inserted them
  in.

Replica copies (:attr:`Store.replica_view`) are objects this peer stores
on behalf of a *prefix sibling* (see
:meth:`repro.fissione.network.FissioneNetwork.replica_peers`).  They are
durably logged like primary writes but kept out of :attr:`view`, so range
queries scanning a destination peer never double-count an object that is
both owned by one peer and replicated on another.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right, insort_right
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.binframe import encode_binary
from repro.wire import decode_column, encode_column, encode_value


class StorageError(RuntimeError):
    """Raised on invalid storage operations or an unusable durable medium."""


@dataclass(slots=True)
class StoredObject:
    """An object published into the DHT."""

    object_id: str
    key: Any
    value: Any


_by_key = attrgetter("key")


def _in_run(key: Any) -> bool:
    """Does an object with this key belong in a store's key-sorted run?

    Exactly the keys a PIRA destination has always matched: ``int`` /
    ``float`` (``bool`` included).  NaN stays out — it matches no range,
    and as an element it would break the run's order and so the bisect.
    """
    return isinstance(key, (int, float)) and key == key


#: the wire columns of a list of stored objects, one list per field
OBJECT_COLUMNS = ("object_id", "key", "value")


class ObjectList(Sequence):
    """A list of stored objects, held as objects *or* as columns.

    The two ends of a reply want different forms of the same list.  The
    executor gathers matches by reference to the store's own objects
    (:meth:`extend`), and only the gateway ever wants their columns — once,
    to write them.  A client receives columns (:meth:`from_columns` adopts
    the decoded lists as they are), and most callers ask only how many
    matches there are or what their keys are (:meth:`keys`), which the
    columns answer without building one :class:`StoredObject` per match.

    So the list holds one form and derives the other on demand: iterating
    or indexing a column-form list builds the objects once and drops the
    columns (a caller that does iterate pays for one form, not two);
    :meth:`columns` of an object-form list is computed per call.  Either
    form is the same sequence — it compares equal to the other form and to
    a plain ``list`` of the same objects, field for field.
    """

    __slots__ = ("_objects", "_columns")

    def __init__(self, objects: Iterable[StoredObject] = ()) -> None:
        self._objects: Optional[List[StoredObject]] = list(objects)
        self._columns: Optional[Tuple[List[str], List[Any], List[Any]]] = None

    @classmethod
    def from_columns(
        cls, object_ids: List[str], keys: List[Any], values: List[Any]
    ) -> "ObjectList":
        """Adopt three equally long columns (not copied, not checked)."""
        self = cls.__new__(cls)
        self._objects = None
        self._columns = (object_ids, keys, values)
        return self

    @classmethod
    def of(cls, objects: Iterable[StoredObject]) -> "ObjectList":
        """``objects`` itself when it already is one, else a new list of them."""
        return objects if isinstance(objects, cls) else cls(objects)

    def objects(self) -> List[StoredObject]:
        """The object form — the list itself, so appends to it are kept."""
        objects = self._objects
        if objects is None:
            objects = self._objects = list(map(StoredObject, *self._columns))
            self._columns = None
        return objects

    def columns(self) -> Tuple[List[str], List[Any], List[Any]]:
        """``(object_ids, keys, values)``, in :data:`OBJECT_COLUMNS` order."""
        if self._columns is not None:
            return self._columns
        objects = self._objects
        return (
            [stored.object_id for stored in objects],
            [stored.key for stored in objects],
            [stored.value for stored in objects],
        )

    def keys(self) -> List[Any]:
        """The ``key`` column, as a list the caller owns."""
        if self._columns is not None:
            return list(self._columns[1])
        return [stored.key for stored in self._objects]

    def append(self, stored: StoredObject) -> None:
        self.objects().append(stored)

    def extend(self, objects: Iterable[StoredObject]) -> None:
        # Runs once per destination peer of every query: calls nothing it can avoid.
        if self._objects is None:
            self.objects()
        self._objects.extend(objects)

    def __len__(self) -> int:
        return len(self._columns[0] if self._objects is None else self._objects)

    def __getitem__(self, index):
        return self.objects()[index]

    def __iter__(self) -> Iterator[StoredObject]:
        return iter(self.objects())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (ObjectList, list)):
            return NotImplemented
        return self.columns() == ObjectList.of(other).columns()

    def __repr__(self) -> str:
        return repr(list(map(StoredObject, *self.columns())))  # a list's, in either form


def objects_to_wire(objects: Iterable[StoredObject]) -> Dict[str, Any]:
    """Column form: no dict and no repeated field names per object, each
    column spelled by :func:`repro.wire.encode_column`."""
    return dict(zip(OBJECT_COLUMNS, map(encode_column, ObjectList.of(objects).columns())))


def objects_from_wire(wire: Dict[str, Any]) -> ObjectList:
    """Inverse of :func:`objects_to_wire`; a missing column or (decoded)
    columns of unequal length are a :class:`ValueError` naming the lengths."""
    columns = [
        decode_column(wire[name], name) if name in wire else None for name in OBJECT_COLUMNS
    ]
    lengths = [None if column is None else len(column) for column in columns]
    if None in lengths or len(set(lengths)) != 1:
        named = dict(zip(OBJECT_COLUMNS, lengths))
        raise ValueError(f"object columns missing or of unequal length: {named}")
    return ObjectList.from_columns(*columns)


class Store:
    """Base store: the in-memory read views plus no-op durability hooks.

    Used directly as the **memory backend** (see
    :class:`~repro.storage.memory.MemoryStore`).  The durable backend,
    :class:`~repro.storage.wal.WALStore`, overrides the ``_log_*`` hooks
    plus :meth:`sync` / :meth:`replay` / :meth:`_drop_unsynced` /
    :meth:`close`.
    """

    #: short name reported in stats and CLI flags
    backend_name = "memory"

    def __init__(self) -> None:
        self._reset_views()

    # ------------------------------------------------------------------ #
    # write path                                                           #
    # ------------------------------------------------------------------ #

    def put(self, object_id: str, key: Any, value: Any) -> StoredObject:
        """Append one primary object (durably logged, views updated)."""
        stored = StoredObject(object_id=object_id, key=key, value=value)
        self._log_record("put", object_id, key, value)
        self._add(stored)
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
            self._add(stored)

    def take_prefix(self, prefix: str) -> List[StoredObject]:
        """Remove and return primary objects whose ObjectID extends ``prefix``.

        Used when a zone splits and half of the objects move to the new
        peer; the removal is durably logged so a replay never resurrects
        handed-over objects.
        """
        if any(object_id.startswith(prefix) for object_id in self.view):
            self._log_take(prefix)
        return self._drop_prefix(prefix)

    # -- the view edits: every write and every replayed record is one of these

    def _reset_views(self) -> None:
        """Empty every view: a new store, a power failure, a replay's start."""
        #: primary objects by ObjectID
        self.view: Dict[str, List[StoredObject]] = {}
        #: replica copies held for prefix siblings — never query-scanned
        self.replica_view: Dict[str, List[StoredObject]] = {}
        #: the primary objects :func:`_in_run` admits, sorted by key; equal
        #: keys in the order they were added — what :meth:`scan` slices
        self.run: List[StoredObject] = []

    def _add(self, stored: StoredObject, ordered: bool = True) -> None:
        """Enter one primary object into both views.

        ``ordered=False`` appends it to the run unsorted: a replay adds
        every record that way and then sorts the run once
        (:meth:`_sort_run`), so a long log is one sort, not one insort
        per record.
        """
        self.view.setdefault(stored.object_id, []).append(stored)
        if _in_run(stored.key):
            if ordered:
                insort_right(self.run, stored, key=_by_key)
            else:
                self.run.append(stored)

    def _drop_prefix(self, prefix: str) -> List[StoredObject]:
        """Remove the primary objects whose ObjectID extends ``prefix`` from
        both views and return them, bucket by bucket."""
        moved: List[StoredObject] = []
        remaining: Dict[str, List[StoredObject]] = {}
        for object_id, bucket in self.view.items():
            if object_id.startswith(prefix):
                moved.extend(bucket)
            else:
                remaining[object_id] = bucket
        self.view = remaining
        if moved:
            self.run = [stored for stored in self.run if not stored.object_id.startswith(prefix)]
        return moved

    def _sort_run(self) -> None:
        """Restore the run's order after unordered adds; stable, so equal
        keys keep the order they were added in."""
        self.run.sort(key=_by_key)

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
        self._reset_views()
        self._drop_unsynced()

    def replay(self) -> int:
        """Rebuild the views from the durable medium; returns records applied.

        The durable backend resets the views, feeds every record to
        :meth:`_apply_record` in log order, then calls :meth:`_sort_run`.
        """
        return 0

    def close(self) -> None:
        """Graceful shutdown: flush everything durably and release handles."""

    # -- hooks for the durable backend -------------------------------------

    def _log_record(self, op: str, object_id: str, key: Any, value: Any) -> None:
        """Append one write record to the durable log (no-op in memory)."""

    def _log_take(self, prefix: str) -> None:
        """Append one prefix-removal record to the durable log."""

    def _drop_unsynced(self) -> None:
        """Discard log records not yet covered by a :meth:`sync`."""

    # -- replay helper for the durable backend -----------------------------

    def _apply_record(self, op: str, object_id: str, key: Any, value: Any) -> None:
        """Apply one decoded log record to the in-memory views (the run is
        left unsorted until the replay's :meth:`_sort_run`)."""
        if op == "put":
            self._add(StoredObject(object_id=object_id, key=key, value=value), ordered=False)
        elif op == "rput":
            self.replica_view.setdefault(object_id, []).append(
                StoredObject(object_id=object_id, key=key, value=value)
            )
        elif op == "take":
            self._drop_prefix(object_id)
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

    def scan(self, low: Any, high: Any) -> List[StoredObject]:
        """Primary objects with a numeric key in ``[low, high]``, in key order.

        The objects that filtering :meth:`objects` with
        ``isinstance(key, (int, float)) and low <= key <= high`` keeps —
        as a slice of :attr:`run`: two bisects and one copy, however many
        objects the zone holds.  Equal keys come in the order they were
        added.
        """
        if not low <= high:  # an empty range, or a NaN bound: nothing matches
            return []
        run = self.run
        return run[bisect_left(run, low, key=_by_key) : bisect_right(run, high, key=_by_key)]

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
