"""Append-only write-ahead log backend with checksummed, framed records.

File layout::

    +----------+----------------+----------------+-----
    | "AWAL1\\n" | record | record | record | ...
    +----------+----------------+----------------+-----

    record := [ length : u32 BE ][ crc32 : u32 BE ][ body : length bytes ]

The body is a :mod:`repro.binframe` value — the stdlib msgpack-style
codec the flight recorder's dumps are written in too (no socket uses
it)::

    ["put",  object_id, encode_value(key), encode_value(value)]
    ["rput", object_id, encode_value(key), encode_value(value)]
    ["take", prefix]

``encode_value`` (the tuple-tagging wire codec) wraps key and value so
tuple keys — which MIRA multi-attribute objects use — survive the binary
round trip; the CRC is over the body only, the length frames it.

Durability model
----------------
Appends accumulate in a **userspace buffer** and reach the file only in
:meth:`WALStore.sync`, which writes, flushes, and ``fsync``\\ s.  Holding
unsynced records in userspace (instead of writing them unsynced) makes
:meth:`WALStore.power_fail` exact: bytes on disk == bytes synced, with no
dependence on what the OS page cache happened to flush.  This is the
*pessimistic* model — a real ``kill -9`` preserves OS-buffered writes, so
any recovery guarantee proven under this model also holds in practice.

Replay walks records in file order, rebuilding the views via the shared
``_apply_record``, then sorts the key-ordered run once.  A torn tail —
truncated header, truncated body, or a CRC mismatch on the final record,
exactly what a crash mid-append leaves behind — ends the replay at the
last good record and truncates the file there so later appends continue
from a clean boundary.  Corruption *before* the tail (a bad record
followed by good ones) is not a torn append but real damage, and raises
:class:`StorageError` instead of silently dropping acknowledged data.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Any, BinaryIO, List, Optional

from repro.binframe import BinaryCodecError, decode_binary, encode_binary
from repro.storage.base import StorageError, Store
from repro.wire import decode_value, encode_value

__all__ = ["WALStore", "WAL_HEADER"]

#: file magic: identifies an Armada WAL, version 1
WAL_HEADER = b"AWAL1\n"

_FRAME = struct.Struct(">II")  # length, crc32


class WALStore(Store):
    """Durable store over one append-only log file."""

    backend_name = "wal"

    def __init__(self, path: str, sync_mode: str = "always") -> None:
        """Open (or create) the log at ``path``.

        ``sync_mode`` is ``"always"`` (every write is its own durability
        barrier — what the replicated write path uses) or ``"manual"``
        (records buffer until an explicit :meth:`sync` — what the
        crash-consistency property tests use to place the barrier
        anywhere in an interleaving).
        """
        if sync_mode not in ("always", "manual"):
            raise StorageError(f"unknown sync_mode {sync_mode!r}")
        super().__init__()
        self.path = path
        self.sync_mode = sync_mode
        self._pending = bytearray()
        self._file: Optional[BinaryIO] = None
        self._open_file()

    # ------------------------------------------------------------------ #
    # file lifecycle                                                       #
    # ------------------------------------------------------------------ #

    def _open_file(self) -> None:
        exists = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        self._file = open(self.path, "ab")
        if not exists:
            self._file.write(WAL_HEADER)
            self._file.flush()
            os.fsync(self._file.fileno())

    # ------------------------------------------------------------------ #
    # logging hooks                                                        #
    # ------------------------------------------------------------------ #

    def _append(self, record: List[Any]) -> None:
        body = encode_binary(record)
        self._pending += _FRAME.pack(len(body), zlib.crc32(body))
        self._pending += body
        if self.sync_mode == "always":
            self.sync()

    def _log_record(self, op: str, object_id: str, key: Any, value: Any) -> None:
        self._append([op, object_id, encode_value(key), encode_value(value)])

    def _log_take(self, prefix: str) -> None:
        self._append(["take", prefix])

    def _drop_unsynced(self) -> None:
        self._pending.clear()
        if self._file is not None:
            self._file.close()
            self._file = None

    # ------------------------------------------------------------------ #
    # durability barrier / recovery                                        #
    # ------------------------------------------------------------------ #

    def sync(self) -> None:
        """Write buffered records, flush, and ``fsync`` — then they are acked."""
        if not self._pending:
            return
        if self._file is None:
            raise StorageError(f"WAL {self.path} is closed")
        self._file.write(self._pending)
        self._file.flush()
        os.fsync(self._file.fileno())
        self._pending.clear()

    def replay(self) -> int:
        """Rebuild the views from the log; returns the records applied.

        Reopens the file handle (the store may have just power-failed),
        validates the header, applies every intact record, and truncates
        a torn tail so the next append starts at a record boundary.
        """
        if self._file is not None:
            self._file.close()
            self._file = None
        self._reset_views()
        self._pending.clear()

        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            data = b""

        applied = 0
        good_end = len(WAL_HEADER)
        if data:
            if not data.startswith(WAL_HEADER):
                raise StorageError(f"{self.path} is not an Armada WAL (bad header)")
            offset = len(WAL_HEADER)
            total = len(data)
            while offset < total:
                if offset + _FRAME.size > total:
                    break  # torn header: crash mid-append
                length, crc = _FRAME.unpack_from(data, offset)
                body_start = offset + _FRAME.size
                body_end = body_start + length
                if body_end > total:
                    break  # torn body
                body = data[body_start:body_end]
                if zlib.crc32(body) != crc:
                    if body_end < total:
                        # Good bytes after a bad record: this is not a torn
                        # append, it is mid-log corruption of synced data.
                        raise StorageError(
                            f"{self.path}: CRC mismatch at offset {offset} "
                            "with records following it"
                        )
                    break  # torn final record
                try:
                    record = decode_binary(body)
                except BinaryCodecError as exc:
                    raise StorageError(
                        f"{self.path}: undecodable record at offset {offset}: {exc}"
                    ) from exc
                self._apply_decoded(record, offset)
                applied += 1
                offset = body_end
                good_end = offset
            if good_end < total:
                # Drop the torn tail so future appends restart cleanly.
                with open(self.path, "r+b") as handle:
                    handle.truncate(good_end)

        self._sort_run()
        self._open_file()
        return applied

    def _apply_decoded(self, record: Any, offset: int) -> None:
        if not isinstance(record, list) or not record:
            raise StorageError(f"{self.path}: malformed record at offset {offset}")
        op = record[0]
        if op in ("put", "rput"):
            if len(record) != 4:
                raise StorageError(f"{self.path}: malformed {op} at offset {offset}")
            _, object_id, wire_key, wire_value = record
            self._apply_record(
                op, object_id, decode_value(wire_key), decode_value(wire_value)
            )
        elif op == "take":
            if len(record) != 2:
                raise StorageError(f"{self.path}: malformed take at offset {offset}")
            self._apply_record("take", record[1], None, None)
        else:
            raise StorageError(
                f"{self.path}: unknown record op {op!r} at offset {offset}"
            )

    def close(self) -> None:
        """Flush everything durably and release the file handle."""
        if self._file is not None:
            self.sync()
            self._file.close()
            self._file = None

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"WALStore(path={self.path!r}, objects={self.object_count()}, "
            f"replicas={self.replica_count()}, pending={len(self._pending)}B)"
        )
