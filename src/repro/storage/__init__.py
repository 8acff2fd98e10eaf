"""Durable peer storage: the seam between the overlay and the disk.

See :mod:`repro.storage.base` for the :class:`Store` contract.  Two
backends:

* ``memory`` — :class:`MemoryStore`, the pre-seam dict semantics, volatile;
* ``wal`` — :class:`WALStore`, append-only checksummed log, fsync-on-ack.

A durable peer's log lives at :func:`store_path` under the data directory.
"""

from __future__ import annotations

import os
from typing import Literal, get_args

from repro.storage.base import StorageError, Store, StoredObject
from repro.storage.memory import MemoryStore
from repro.storage.wal import WALStore

__all__ = [
    "BACKENDS",
    "Backend",
    "MemoryStore",
    "StorageError",
    "Store",
    "StoredObject",
    "WALStore",
    "store_path",
]

#: backend names accepted by the CLI / soak / cluster ``storage=`` options
Backend = Literal["memory", "wal"]
BACKENDS = get_args(Backend)


def store_path(data_dir: str, peer_id: str) -> str:
    """The WAL file for ``peer_id``'s slice under ``data_dir``.

    Kautz peer ids are strings over the digits ``0..2``, so they embed
    directly in a filename.
    """
    return os.path.join(data_dir, f"peer-{peer_id}.wal")
