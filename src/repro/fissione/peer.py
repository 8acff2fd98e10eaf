"""FISSIONE peers.

A peer owns the contiguous zone of length-``k`` ObjectIDs that have its
PeerID as a prefix, and stores the objects published into that zone locally.
Neighbour relationships are derived from the global topology (held by
:class:`repro.fissione.network.FissioneNetwork`); peers cache nothing about
the topology so that joins and departures never leave stale peer state
behind.

Objects live behind the storage seam (:mod:`repro.storage`): every peer
delegates to a :class:`~repro.storage.base.Store` backend — the default
:class:`~repro.storage.memory.MemoryStore` reproduces the pre-seam dict
semantics byte for byte, while a :class:`~repro.storage.wal.WALStore`
adds a durable log the peer can replay after a crash.  The query
executors read the backend directly: a PIRA destination takes
``peer.backend.scan(low, high)``, a slice of the store's key-sorted run,
and a MIRA destination filters :meth:`FissionePeer.objects`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List

from repro.storage.base import Store, StoredObject
from repro.storage.memory import MemoryStore

__all__ = ["FissionePeer", "StoredObject"]


@dataclass(slots=True)
class FissionePeer:
    """A FISSIONE peer: a PeerID plus the local object store backend."""

    peer_id: str
    backend: Store = field(default_factory=MemoryStore)

    @property
    def node_id(self) -> str:
        """Alias used by the overlay-network layer."""
        return self.peer_id

    def owns(self, object_id: str) -> bool:
        """True when ``object_id`` falls in this peer's zone."""
        return object_id.startswith(self.peer_id)

    def put(self, object_id: str, key: Any, value: Any) -> StoredObject:
        """Store an object locally (the caller must have routed it here)."""
        if not self.owns(object_id):
            raise ValueError(
                f"peer {self.peer_id!r} does not own object id {object_id!r}"
            )
        return self.backend.put(object_id, key, value)

    def put_replica(self, object_id: str, key: Any, value: Any) -> StoredObject:
        """Hold a replica copy for a prefix sibling (not query-scanned)."""
        return self.backend.put_replica(object_id, key, value)

    def get(self, object_id: str) -> List[StoredObject]:
        """All objects stored under ``object_id`` (empty list when none)."""
        return self.backend.get(object_id)

    def get_any(self, object_id: str) -> List[StoredObject]:
        """Primary objects if held, else replica copies — the failover read."""
        return self.backend.get(object_id) or self.backend.get_replica(object_id)

    def objects(self) -> List[StoredObject]:
        """All objects stored at this peer."""
        return self.backend.objects()

    def object_count(self) -> int:
        """Number of objects stored at this peer."""
        return self.backend.object_count()

    def take_objects_with_prefix(self, prefix: str) -> List[StoredObject]:
        """Remove and return objects whose ObjectID extends ``prefix``.

        Used when a zone splits and half of the objects move to the new peer.
        """
        return self.backend.take_prefix(prefix)

    def absorb(self, objects: List[StoredObject]) -> None:
        """Add objects handed over from another peer."""
        self.backend.absorb(objects)

    # ------------------------------------------------------------------ #
    # crash / recovery hooks (driven by the fault injector)                #
    # ------------------------------------------------------------------ #

    def on_power_fail(self) -> None:
        """Crash: volatile state and the unsynced log tail are lost."""
        self.backend.power_fail()

    def on_recover(self) -> int:
        """Restart: replay the durable log (no-op for memory backends)."""
        return self.backend.replay()

    def handle_message(self, network, message) -> None:  # pragma: no cover - thin shim
        """Messages are dispatched by the query-processing layer, not the peer."""
        handler = message.handler
        if handler is not None:
            handler(self, network, message)

    def __repr__(self) -> str:
        return f"FissionePeer(peer_id={self.peer_id!r}, objects={self.object_count()})"
