"""The FISSIONE overlay: peer membership, zones, and neighbour relations.

The peers of a FISSIONE network partition the ObjectID namespace
``KautzSpace(2, k)`` into disjoint zones: each peer owns exactly the ObjectIDs
that extend its PeerID, and the set of PeerIDs is a *complete prefix-free
cover* of the namespace (no PeerID is a prefix of another, and together their
zones cover everything).  This is the "approximate Kautz graph" of the
FISSIONE paper: when all PeerIDs have the same length ``m`` the topology is
exactly ``K(2, m)``.

Joins split a zone in two (the splitting peer's PeerID grows by one symbol);
departures merge the deepest sibling pair and relocate the freed peer onto the
leaver's zone.  Both operations preserve

* the prefix-free cover, and
* the *neighborhood invariant*: PeerID lengths of neighbouring peers differ
  by at most one (joins are redirected to a strictly shorter neighbour when
  one exists, exactly the balancing rule FISSIONE prescribes).

Neighbour relations follow the Kautz edge rule lifted to zones: peer ``V`` is
an out-neighbour of ``U = u1 u2 .. ub`` when ``V``'s PeerID is *compatible*
with ``u2 .. ub`` (one is a prefix of the other), which with the invariant in
force means ``V = u2 .. ub q1 .. qm`` with ``0 <= m <= 2`` -- the form quoted
in Section 3 of the Armada paper.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.fissione.naming import kautz_hash
from repro.fissione.peer import FissionePeer, StoredObject
from repro.kautz import strings as ks
from repro.storage.base import Store


class FissioneError(RuntimeError):
    """Raised on invalid membership operations or broken topology assumptions."""


class FissioneNetwork:
    """Membership, zone ownership and neighbour computation for FISSIONE.

    The out-/in-neighbour tables are cached between membership changes:
    they are recomputed lazily per peer and every join or departure
    invalidates all of them at once.  Queries vastly outnumber membership
    changes in every experiment, so the event loop's per-hop neighbour
    lookups become dictionary hits instead of repeated Kautz-string
    derivations.  Ownership is not cached: it is two bisects of the sorted
    PeerID list.

    The maximum PeerID length is not a cache: a ``{length: count}``
    histogram is updated by each added or removed peer, so no join or
    leave rescans the membership for it.  Prefix questions are answered by
    bisecting the sorted PeerID list, which is the overlay's prefix index.
    """

    def __init__(
        self,
        object_id_length: int = 100,
        base: int = 2,
        store_factory: Optional[Callable[[str], Store]] = None,
    ) -> None:
        if object_id_length < 4:
            raise FissioneError("object_id_length must be at least 4")
        ks.alphabet(base)
        self.object_id_length = object_id_length
        self.base = base
        #: per-peer storage backend factory; ``None`` keeps the default
        #: (volatile) memory backend every peer had before the seam
        self.store_factory = store_factory
        self._peers: Dict[str, FissionePeer] = {}
        #: peer by PeerID, or ``None`` when absent — the hot-path variant of
        #: :meth:`has_peer` + :meth:`peer` (the per-message dispatch asks
        #: both about one id), bound to the table's own ``get``: no frame
        self.get_peer: Callable[[str], Optional[FissionePeer]] = self._peers.get
        self._sorted_ids: List[str] = []
        # Topology caches, invalidated wholesale on membership changes.
        self._out_cache: Dict[str, Tuple[str, ...]] = {}
        self._in_cache: Dict[str, Tuple[str, ...]] = {}
        # Exact at all times: PeerID length -> number of peers of that length.
        self._length_counts: Dict[int, int] = {}
        self._max_len = 0

    # ------------------------------------------------------------------ #
    # construction                                                         #
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        num_peers: int,
        rng,
        object_id_length: int = 100,
        base: int = 2,
        store_factory: Optional[Callable[[str], Store]] = None,
    ) -> "FissioneNetwork":
        """Build a network of ``num_peers`` peers via random joins.

        Each join targets a uniformly random point of the ObjectID namespace,
        mimicking peers hashing their own addresses, so zones stay balanced
        and the average PeerID length stays below ``log2 N``.
        """
        minimum = base + 1
        if num_peers < minimum:
            raise FissioneError(f"need at least {minimum} peers, got {num_peers}")
        network = cls(
            object_id_length=object_id_length, base=base, store_factory=store_factory
        )
        network.seed_initial()
        while network.size < num_peers:
            network.join(rng=rng)
        return network

    def seed_initial(self) -> None:
        """Create the initial ``base + 1`` peers with length-1 PeerIDs."""
        if self._peers:
            raise FissioneError("network already seeded")
        for symbol in ks.alphabet(self.base):
            self._add_peer(self._new_peer(symbol))

    def _new_peer(self, peer_id: str) -> FissionePeer:
        """Construct a peer with this network's storage backend."""
        if self.store_factory is None:
            return FissionePeer(peer_id=peer_id)
        return FissionePeer(peer_id=peer_id, backend=self.store_factory(peer_id))

    # ------------------------------------------------------------------ #
    # basic accessors                                                      #
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Number of peers currently in the network."""
        return len(self._peers)

    def peer(self, peer_id: str) -> FissionePeer:
        """Look up a peer by PeerID."""
        try:
            return self._peers[peer_id]
        except KeyError as exc:
            raise FissioneError(f"no peer with id {peer_id!r}") from exc

    def has_peer(self, peer_id: str) -> bool:
        """True when a peer with that PeerID exists."""
        return peer_id in self._peers

    def peers(self) -> Iterable[FissionePeer]:
        """Iterate over peers in lexicographic PeerID order."""
        return (self._peers[peer_id] for peer_id in self._sorted_ids)

    def peer_ids(self) -> List[str]:
        """Sorted list of PeerIDs (copy)."""
        return list(self._sorted_ids)

    def random_peer(self, rng) -> FissionePeer:
        """A uniformly random peer."""
        return self._peers[rng.choice(self._sorted_ids)]

    def average_id_length(self) -> float:
        """Average PeerID length (paper: ``< log2 N``)."""
        if not self._peers:
            return 0.0
        return sum(len(peer_id) for peer_id in self._sorted_ids) / len(self._sorted_ids)

    def max_id_length(self) -> int:
        """Maximum PeerID length (paper: ``< 2 log2 N``).

        Maintained incrementally by every membership change; ownership
        resolution truncates lookup keys to this length on every routing hop.
        """
        return self._max_len

    def log_size(self) -> float:
        """``log2`` of the network size, the paper's reference line."""
        return math.log2(self.size) if self.size > 0 else 0.0

    # ------------------------------------------------------------------ #
    # zone ownership                                                       #
    # ------------------------------------------------------------------ #

    def owner_id(self, key: str) -> str:
        """PeerID of the peer whose zone contains ``key``.

        ``key`` may be a full ObjectID or any Kautz string at least as long
        as the deepest PeerID; ownership is determined by prefix, so only the
        first ``max_id_length()`` symbols of ``key`` are looked at.
        """
        if not self._sorted_ids:
            raise FissioneError("network is empty")
        limit = self.max_id_length()
        if len(key) > limit:
            key = key[:limit]
        index = bisect.bisect_right(self._sorted_ids, key) - 1
        if index < 0:
            # ``key`` sorts before every PeerID; with a complete cover this
            # only happens when key is a strict prefix of the first PeerID.
            candidate = self._sorted_ids[0]
            if candidate.startswith(key):
                return candidate
            raise FissioneError(f"no owner found for key {key!r}")
        candidate = self._sorted_ids[index]
        if key.startswith(candidate):
            return candidate
        # ``key`` shorter than the owning PeerID (e.g. a short prefix): the
        # cover guarantees some PeerID extends it; return the first one.
        position = bisect.bisect_left(self._sorted_ids, key)
        if position < len(self._sorted_ids) and self._sorted_ids[position].startswith(key):
            return self._sorted_ids[position]
        raise FissioneError(f"no owner found for key {key!r}")

    def owner(self, key: str) -> FissionePeer:
        """The peer whose zone contains ``key``."""
        return self._peers[self.owner_id(key)]

    def _prefix_range(self, prefix: str) -> Tuple[int, int]:
        """``[start, end)`` of the sorted PeerIDs that extend ``prefix``."""
        if prefix == "":
            return 0, len(self._sorted_ids)
        start = bisect.bisect_left(self._sorted_ids, prefix)
        # The strings extending ``prefix`` are exactly those below the same
        # string with its last symbol bumped by one.
        bound = prefix[:-1] + chr(ord(prefix[-1]) + 1)
        return start, bisect.bisect_left(self._sorted_ids, bound, start)

    def peers_with_prefix(self, prefix: str) -> List[str]:
        """All PeerIDs extending ``prefix`` (possibly empty), sorted."""
        start, end = self._prefix_range(prefix)
        return self._sorted_ids[start:end]

    def compatible_peers(self, prefix: str) -> List[str]:
        """PeerIDs compatible with ``prefix``: extend it or are a prefix of it."""
        if prefix == "":
            return list(self._sorted_ids)
        result = self.peers_with_prefix(prefix)
        if result:
            return result
        # No peer extends the prefix, so exactly one peer's id is a strict
        # prefix of it (complete cover).
        for cut in range(min(len(prefix), self.max_id_length()), 0, -1):
            candidate = prefix[:cut]
            if candidate in self._peers:
                return [candidate]
        return []

    # ------------------------------------------------------------------ #
    # neighbour relations                                                  #
    # ------------------------------------------------------------------ #

    def out_neighbors_view(self, peer_id: str) -> Tuple[str, ...]:
        """Cached immutable out-neighbour table of ``peer_id``.

        The returned tuple is shared between callers and between calls —
        this is the hot-path accessor the query executors iterate on every
        forwarding hop.  Use :meth:`out_neighbors` for a fresh list.
        """
        cached = self._out_cache.get(peer_id)
        if cached is not None:
            return cached
        if peer_id not in self._peers:
            raise FissioneError(f"no peer with id {peer_id!r}")
        tail = peer_id[1:]
        if tail:
            neighbors = self.compatible_peers(tail)
        else:
            # Length-1 PeerID: its zone's out-edges reach every string whose
            # first symbol differs from the peer's symbol.
            neighbors = [
                other
                for other in self._sorted_ids
                if other and other[0] != peer_id[0]
            ]
        result = tuple(other for other in neighbors if other != peer_id)
        self._out_cache[peer_id] = result
        return result

    def out_neighbors(self, peer_id: str) -> List[str]:
        """Out-neighbours of ``peer_id`` in the approximate Kautz topology."""
        return list(self.out_neighbors_view(peer_id))

    def in_neighbors_view(self, peer_id: str) -> Tuple[str, ...]:
        """Cached immutable in-neighbour table of ``peer_id``."""
        cached = self._in_cache.get(peer_id)
        if cached is not None:
            return cached
        if peer_id not in self._peers:
            raise FissioneError(f"no peer with id {peer_id!r}")
        result: List[str] = []
        for symbol in ks.allowed_symbols(peer_id[0], base=self.base):
            for candidate in self.compatible_peers(symbol + peer_id):
                if candidate != peer_id and candidate not in result:
                    result.append(candidate)
        table = tuple(result)
        self._in_cache[peer_id] = table
        return table

    def in_neighbors(self, peer_id: str) -> List[str]:
        """In-neighbours of ``peer_id``: peers with an edge towards it."""
        return list(self.in_neighbors_view(peer_id))

    def neighbors(self, peer_id: str) -> List[str]:
        """Union of in- and out-neighbours."""
        return list(
            dict.fromkeys(self.out_neighbors_view(peer_id) + self.in_neighbors_view(peer_id))
        )

    def average_degree(self) -> float:
        """Average out-degree (paper: FISSIONE's average degree is 4 counting both directions)."""
        if not self._peers:
            return 0.0
        total = sum(len(self.out_neighbors_view(peer_id)) for peer_id in self._sorted_ids)
        return total / len(self._sorted_ids)

    # ------------------------------------------------------------------ #
    # membership changes                                                   #
    # ------------------------------------------------------------------ #

    def join(self, rng=None, target_key: Optional[str] = None) -> FissionePeer:
        """Add one peer by splitting a zone.

        The zone to split is the owner of ``target_key`` (or of a uniformly
        random ObjectID when only ``rng`` is given).  The split is redirected
        to a strictly shorter neighbour while one exists, which maintains the
        neighborhood invariant.
        """
        if target_key is None:
            if rng is None:
                raise FissioneError("join() needs either a target_key or an rng")
            target_key = self.random_object_id(rng)
        victim_id = self.owner_id(target_key)
        victim_id = self._redirect_to_shorter(victim_id)
        return self._split(victim_id)

    def leave(self, peer_id: str) -> Dict[str, str]:
        """Remove the peer ``peer_id``, preserving the cover and the invariant.

        The deepest sibling leaf pair in the system is merged into its parent
        zone; the peer freed by that merge adopts the leaver's PeerID and
        objects.  When the leaver itself is part of the deepest sibling pair
        the merge handles it directly.

        Returns the renames as ``{old_id: new_id}``, the merged parent
        first: ``{survivor: parent}`` when the leaver was one of the
        siblings, otherwise ``{left: parent, right: peer_id}``.
        """
        if peer_id not in self._peers:
            raise FissioneError(f"no peer with id {peer_id!r}")
        if self.size <= self.base + 1:
            raise FissioneError("cannot shrink below the initial peer set")

        pair = self._deepest_sibling_pair()
        if pair is None:
            raise FissioneError("topology has no mergeable sibling pair")
        left_id, right_id = pair
        parent = left_id[:-1]

        if peer_id in (left_id, right_id):
            # The leaver is one of the siblings: the survivor absorbs the zone.
            survivor_id = right_id if peer_id == left_id else left_id
            leaver = self._remove_peer(peer_id)
            survivor = self._remove_peer(survivor_id)
            merged = self._new_peer(parent)
            merged.absorb(survivor.objects())
            merged.absorb(leaver.objects())
            leaver.backend.close()
            survivor.backend.close()
            self._add_peer(merged)
            return {survivor_id: parent}

        leaver = self._remove_peer(peer_id)
        left = self._remove_peer(left_id)
        right = self._remove_peer(right_id)
        merged = self._new_peer(parent)
        merged.absorb(left.objects())
        relocated = self._new_peer(peer_id)
        relocated.absorb(right.objects())  # the relocated peer republishes at its new zone
        # Objects from the freed sibling belong to the parent zone, not the
        # leaver's zone, so they stay with the merged peer.
        merged.absorb(relocated.take_objects_with_prefix(parent))
        relocated.absorb(leaver.objects())
        leaver.backend.close()
        left.backend.close()
        right.backend.close()
        self._add_peer(merged)
        self._add_peer(relocated)
        return {left_id: parent, right_id: peer_id}

    # ------------------------------------------------------------------ #
    # object publication / lookup                                          #
    # ------------------------------------------------------------------ #

    def publish(self, object_id: str, key: Any, value: Any) -> FissionePeer:
        """Store an object on the peer owning ``object_id`` and return that peer."""
        self._validate_object_id(object_id)
        peer = self.owner(object_id)
        peer.put(object_id, key, value)
        return peer

    def publish_named(self, name: str, value: Any) -> Tuple[str, FissionePeer]:
        """Publish under ``Kautz_hash(name)`` (plain exact-match naming)."""
        object_id = kautz_hash(name, length=self.object_id_length, base=self.base)
        return object_id, self.publish(object_id, name, value)

    def replica_order(self, object_id: str) -> Iterator[str]:
        """Every PeerID, lazily, in the order copies of ``object_id`` are placed.

        The first entry is always the owner (the primary copy every range
        query scans); the rest are its nearest *prefix siblings* — peers
        found by walking the owner's PeerID prefix upward one symbol at a
        time and yielding, in sorted order, the peers each progressively
        wider prefix adds: those left of the previous prefix's range, then
        those right of it.  Prefix siblings are exactly the peers a zone
        merge would hand the owner's slice to, so replica placement
        follows the same locality the topology itself uses.  The walk is a
        pure function of the sorted PeerID list, so the simulator and the
        live cluster (built from the same seed) pick identical replica
        sets.

        Each level is snapshotted before it is yielded and located by
        prefix, not by remembered index, so a consumer that suspends
        between entries (the live cluster awaits a round trip per entry)
        never indexes past a membership change.
        """
        owner_id = self.owner_id(object_id)
        yield owner_id
        inner = owner_id
        for cut in range(len(owner_id) - 1, -1, -1):
            outer = owner_id[:cut]
            start, end = self._prefix_range(outer)
            inner_start, inner_end = self._prefix_range(inner)
            yield from self._sorted_ids[start:inner_start] + self._sorted_ids[inner_end:end]
            inner = outer

    def replica_peers(self, object_id: str, replicas: int) -> List[str]:
        """The ``replicas`` PeerIDs a write to ``object_id`` lands on.

        The first ``replicas`` entries of :meth:`replica_order`; fewer only
        when the whole network is smaller than ``replicas``.
        """
        if replicas < 1:
            raise FissioneError("replicas must be at least 1")
        return list(itertools.islice(self.replica_order(object_id), replicas))

    def lookup(self, object_id: str) -> List[StoredObject]:
        """Objects stored under ``object_id`` (no routing cost accounted)."""
        self._validate_object_id(object_id)
        return self.owner(object_id).get(object_id)

    def total_objects(self) -> int:
        """Total number of stored objects across all peers."""
        return sum(peer.object_count() for peer in self._peers.values())

    # ------------------------------------------------------------------ #
    # internals                                                            #
    # ------------------------------------------------------------------ #

    def _validate_object_id(self, object_id: str) -> None:
        ks.validate_kautz_string(object_id, base=self.base)
        if len(object_id) != self.object_id_length:
            raise FissioneError(
                f"object id {object_id!r} must have length {self.object_id_length}"
            )

    def random_object_id(self, rng) -> str:
        """A uniformly random ObjectID (one ``randint`` draw from ``rng``).

        :meth:`join` draws its target key here when given only an ``rng``
        — one draw per join, so :meth:`build` and the live cluster's
        growth step, drawing from the same substream, split the same zones.
        """
        index = rng.randint(0, ks.space_size(self.base, self.object_id_length) - 1)
        return ks.unrank(index, self.object_id_length, base=self.base)

    def _redirect_to_shorter(self, peer_id: str) -> str:
        """Follow strictly shorter neighbours until none exists."""
        current = peer_id
        for _ in range(4 * self.object_id_length + 8):
            shorter = [
                neighbor
                for neighbor in self.neighbors(current)
                if len(neighbor) < len(current)
            ]
            if not shorter:
                return current
            current = min(shorter, key=len)
        raise FissioneError("redirect loop while searching for a shorter neighbour")

    def _split(self, peer_id: str) -> FissionePeer:
        """Split ``peer_id``'s zone; the incumbent keeps the left child."""
        incumbent = self._remove_peer(peer_id)
        last = peer_id[-1]
        children = [peer_id + symbol for symbol in ks.allowed_symbols(last, base=self.base)]
        left_id, right_id = children[0], children[-1]
        if len(left_id) > self.object_id_length:
            # Re-add and refuse: the namespace cannot be subdivided further.
            self._add_peer(incumbent)
            raise FissioneError(
                f"cannot split peer {peer_id!r}: PeerID length would exceed the ObjectID length"
            )
        left = self._new_peer(left_id)
        right = self._new_peer(right_id)
        for stored in incumbent.objects():
            target = left if stored.object_id.startswith(left_id) else right
            target.absorb([stored])
        incumbent.backend.close()
        self._add_peer(left)
        self._add_peer(right)
        return right

    def _deepest_sibling_pair(self) -> Optional[Tuple[str, str]]:
        """Find a sibling leaf pair of maximal depth (both zones are peers)."""
        best: Optional[Tuple[str, str]] = None
        best_length = 0
        for index in range(len(self._sorted_ids) - 1):
            first = self._sorted_ids[index]
            second = self._sorted_ids[index + 1]
            if len(first) != len(second) or len(first) < 2:
                continue
            if first[:-1] == second[:-1] and len(first) > best_length:
                best = (first, second)
                best_length = len(first)
        return best

    def _invalidate_topology_caches(self) -> None:
        """Drop every topology-derived cache (after a membership change)."""
        if self._out_cache:
            self._out_cache.clear()
        if self._in_cache:
            self._in_cache.clear()

    def _add_peer(self, peer: FissionePeer) -> None:
        if peer.peer_id in self._peers:
            raise FissioneError(f"peer {peer.peer_id!r} already exists")
        ks.validate_kautz_string(peer.peer_id, base=self.base)
        self._peers[peer.peer_id] = peer
        bisect.insort(self._sorted_ids, peer.peer_id)
        length = len(peer.peer_id)
        self._length_counts[length] = self._length_counts.get(length, 0) + 1
        if length > self._max_len:
            self._max_len = length
        self._invalidate_topology_caches()

    def _remove_peer(self, peer_id: str) -> FissionePeer:
        peer = self._peers.pop(peer_id, None)
        if peer is None:
            raise FissioneError(f"no peer with id {peer_id!r}")
        index = bisect.bisect_left(self._sorted_ids, peer_id)
        if index < len(self._sorted_ids) and self._sorted_ids[index] == peer_id:
            self._sorted_ids.pop(index)
        length = len(peer_id)
        self._length_counts[length] -= 1
        if not self._length_counts[length]:
            del self._length_counts[length]
            if length == self._max_len:
                self._max_len = max(self._length_counts, default=0)
        self._invalidate_topology_caches()
        return peer

    def __repr__(self) -> str:
        return (
            f"FissioneNetwork(size={self.size}, object_id_length={self.object_id_length}, "
            f"base={self.base})"
        )
