"""SQLite backend: the same log contract on an embedded relational store.

The schema is deliberately a *log*, not a key/value table::

    CREATE TABLE log (
        seq       INTEGER PRIMARY KEY AUTOINCREMENT,
        op        TEXT    NOT NULL,     -- 'put' | 'rput' | 'take'
        object_id TEXT    NOT NULL,     -- the take prefix for 'take'
        body      BLOB                  -- binframe [key, value]; NULL for take
    )

Replaying ``SELECT ... ORDER BY seq`` through the shared
``_apply_record`` reproduces exactly the view a :class:`WALStore` replay
produces for the same write sequence — the two backends are
interchangeable behind the :class:`~repro.storage.base.Store` contract,
and the property suite holds them to it.

Durability mapping: a write is an uncommitted ``INSERT`` on the
connection; :meth:`SQLiteStore.sync` is ``COMMIT`` (with
``synchronous=FULL`` and SQLite's own WAL journal, a committed
transaction survives a crash); :meth:`SQLiteStore.power_fail` rolls the
open transaction back and drops the connection, so unsynced writes
vanish just as the userspace buffer does in :class:`WALStore`.  Torn
final records never reach replay at all — SQLite's journal makes partial
transactions invisible, which is precisely the framing+CRC work the raw
WAL does by hand.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Optional

from repro.binframe import decode_binary, encode_binary
from repro.storage.base import StorageError, Store
from repro.wire import decode_value, encode_value

__all__ = ["SQLiteStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS log (
    seq       INTEGER PRIMARY KEY AUTOINCREMENT,
    op        TEXT    NOT NULL,
    object_id TEXT    NOT NULL,
    body      BLOB
)
"""


class SQLiteStore(Store):
    """Durable store over one SQLite database file."""

    backend_name = "sqlite"

    def __init__(self, path: str, sync_mode: str = "always") -> None:
        if sync_mode not in ("always", "manual"):
            raise StorageError(f"unknown sync_mode {sync_mode!r}")
        super().__init__()
        self.path = path
        self.sync_mode = sync_mode
        self._conn: Optional[sqlite3.Connection] = None
        self._connect()

    def _connect(self) -> None:
        conn = sqlite3.connect(self.path)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=FULL")
        conn.execute(_SCHEMA)
        conn.commit()
        self._conn = conn

    def _require_conn(self) -> sqlite3.Connection:
        if self._conn is None:
            raise StorageError(f"SQLite store {self.path} is closed")
        return self._conn

    # ------------------------------------------------------------------ #
    # logging hooks                                                        #
    # ------------------------------------------------------------------ #

    def _log_record(self, op: str, object_id: str, key: Any, value: Any) -> None:
        body = encode_binary([encode_value(key), encode_value(value)])
        self._require_conn().execute(
            "INSERT INTO log (op, object_id, body) VALUES (?, ?, ?)",
            (op, object_id, body),
        )
        if self.sync_mode == "always":
            self.sync()

    def _log_take(self, prefix: str) -> None:
        self._require_conn().execute(
            "INSERT INTO log (op, object_id, body) VALUES ('take', ?, NULL)",
            (prefix,),
        )
        if self.sync_mode == "always":
            self.sync()

    def _drop_unsynced(self) -> None:
        if self._conn is not None:
            self._conn.rollback()
            self._conn.close()
            self._conn = None

    # ------------------------------------------------------------------ #
    # durability barrier / recovery                                        #
    # ------------------------------------------------------------------ #

    def sync(self) -> None:
        """Commit the open transaction — the durability barrier."""
        self._require_conn().commit()

    def replay(self) -> int:
        """Rebuild the views from the committed log rows, in sequence order."""
        if self._conn is None:
            self._connect()
        self._reset_views()
        applied = 0
        cursor = self._require_conn().execute(
            "SELECT op, object_id, body FROM log ORDER BY seq"
        )
        for op, object_id, body in cursor:
            if op == "take":
                self._apply_record("take", object_id, None, None)
            elif op in ("put", "rput"):
                wire_key, wire_value = decode_binary(body)
                self._apply_record(
                    op, object_id, decode_value(wire_key), decode_value(wire_value)
                )
            else:
                raise StorageError(f"{self.path}: unknown log op {op!r}")
            applied += 1
        self._sort_run()
        return applied

    def close(self) -> None:
        """Commit any open transaction and close the connection."""
        if self._conn is not None:
            self._conn.commit()
            self._conn.close()
            self._conn = None

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"SQLiteStore(path={self.path!r}, objects={self.object_count()}, "
            f"replicas={self.replica_count()})"
        )
