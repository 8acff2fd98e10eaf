"""PHT: Prefix Hash Trees over an arbitrary DHT (Chawathe et al., SIGCOMM 2005).

PHT builds a binary trie over ``bits``-bit keys.  Every trie node is
addressed by hashing its label (bit-prefix) into the underlying DHT, so the
scheme works unmodified over any DHT -- the property the paper highlights.
The price is that *every* step of a trie traversal costs one full DHT
routing, which is why PHT's range-query delay is ``O(b * log N)`` (``b`` =
trie height) rather than ``O(log N)``.

Two DHT substrates are provided: Chord (logarithmic degree) and FISSIONE
(constant degree), the latter matching the "PHT over a constant-degree DHT"
row of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dhts.base import DHTNetwork, LookupResult
from repro.dhts.chord import ChordNetwork, chord_hash
from repro.fissione.naming import kautz_hash
from repro.fissione.network import FissioneNetwork
from repro.fissione.routing import route as fissione_route
from repro.rangequery.base import AttributeSpace, QueryMeasurement, RangeQueryScheme, record_query
from repro.sim.rng import DeterministicRNG


class FissioneDhtAdapter(DHTNetwork):
    """Expose a FISSIONE network through the generic string-keyed DHT interface."""

    def __init__(self, network: FissioneNetwork) -> None:
        self.network = network

    @property
    def size(self) -> int:
        return self.network.size

    def _object_id(self, key: str) -> str:
        return kautz_hash(str(key), length=self.network.object_id_length, base=self.network.base)

    def owner(self, key: str) -> str:
        return self.network.owner_id(self._object_id(key))

    def random_node(self, rng) -> str:
        return self.network.random_peer(rng).peer_id

    def random_key(self, rng) -> str:
        return f"random-key-{rng.randint(0, 10**9)}"

    def route(self, source: str, key: str) -> LookupResult:
        path = fissione_route(self.network, source, self._object_id(key))
        return LookupResult(key=key, owner=path.destination, hops=path.hops, path=path.peers)


@dataclass
class _TrieNode:
    """One PHT trie node (leaf nodes hold the data)."""

    label: str
    is_leaf: bool = True
    values: List[float] = field(default_factory=list)


class PhtScheme(RangeQueryScheme):
    """Prefix-hash-tree range queries layered over Chord or FISSIONE."""

    name = "PHT"
    supports_multi_attribute = False
    delay_bounded = False

    def __init__(
        self,
        space: Optional[AttributeSpace] = None,
        substrate: str = "chord",
        key_bits: int = 16,
        leaf_capacity: int = 8,
    ) -> None:
        if substrate not in ("chord", "fissione"):
            raise ValueError("substrate must be 'chord' or 'fissione'")
        self.space = space if space is not None else AttributeSpace()
        self.substrate = substrate
        self.key_bits = key_bits
        self.leaf_capacity = leaf_capacity
        self.underlying_degree = "O(logN) (Chord)" if substrate == "chord" else "4 (FISSIONE)"
        self.dht: Optional[DHTNetwork] = None
        self._rng: Optional[DeterministicRNG] = None
        self._trie: Dict[str, _TrieNode] = {}

    # ------------------------------------------------------------------ #
    # construction / data                                                  #
    # ------------------------------------------------------------------ #

    def build(self, num_peers: int, seed: int) -> None:
        self._rng = DeterministicRNG(seed)
        if self.substrate == "chord":
            self.dht = ChordNetwork(num_peers, self._rng.substream("chord"))
        else:
            network = FissioneNetwork.build(
                num_peers, self._rng.substream("fissione"), object_id_length=32
            )
            self.dht = FissioneDhtAdapter(network)
        self._trie = {"": _TrieNode(label="", is_leaf=True)}

    def load(self, values: Sequence[float]) -> None:
        self._require_built()
        for value in values:
            self._insert(float(value))

    @property
    def size(self) -> int:
        return self.dht.size if self.dht is not None else 0

    # ------------------------------------------------------------------ #
    # trie maintenance                                                     #
    # ------------------------------------------------------------------ #

    def _key_bits_of(self, value: float) -> str:
        cell = int(self.space.normalise(value) * (1 << self.key_bits))
        cell = min(cell, (1 << self.key_bits) - 1)
        return format(cell, f"0{self.key_bits}b")

    def _leaf_for(self, key: str) -> _TrieNode:
        node = self._trie[""]
        depth = 0
        while not node.is_leaf:
            depth += 1
            node = self._trie[key[:depth]]
        return node

    def _insert(self, value: float) -> None:
        key = self._key_bits_of(value)
        leaf = self._leaf_for(key)
        leaf.values.append(value)
        while len(leaf.values) > self.leaf_capacity and len(leaf.label) < self.key_bits:
            leaf = self._split_leaf(leaf, key)

    def _split_leaf(self, leaf: _TrieNode, key: str) -> _TrieNode:
        """Split an overflowing leaf into two children; returns the child for ``key``."""
        leaf.is_leaf = False
        children = {
            bit: _TrieNode(label=leaf.label + bit, is_leaf=True) for bit in ("0", "1")
        }
        for value in leaf.values:
            bits = self._key_bits_of(value)
            children[bits[len(leaf.label)]].values.append(value)
        leaf.values = []
        for child in children.values():
            self._trie[child.label] = child
        return children[key[len(leaf.label)]]

    def _route_hops(self, source: object, label: str) -> Tuple[object, int]:
        """Route from a DHT node to the node owning a trie label; returns (owner, hops)."""
        assert self.dht is not None
        if isinstance(self.dht, ChordNetwork):
            result = self.dht.route(source, chord_hash(f"pht:{label}"))
        else:
            result = self.dht.route(source, f"pht:{label}")
        return result.owner, result.hops

    # ------------------------------------------------------------------ #
    # range queries                                                        #
    # ------------------------------------------------------------------ #

    def query(self, low: float, high: float) -> QueryMeasurement:
        self._require_built()
        assert self.dht is not None and self._rng is not None
        low = self.space.clamp(low)
        high = self.space.clamp(high)
        low_key = self._key_bits_of(low)
        high_key = self._key_bits_of(high)
        common = _common_prefix(low_key, high_key)

        origin = self.dht.random_node(self._rng.substream("origins", low, high))

        # Phase 1: locate the trie node for the common prefix.  PHT's lineage
        # search probes prefixes by binary search on the prefix length; each
        # probe is one DHT routing issued sequentially from the origin.
        start_label = self._existing_ancestor_or_self(common)
        probe_labels = _lineage_probe_labels(common, start_label)
        locate_delay = 0
        messages = 0
        for label in probe_labels:
            _owner, hops = self._route_hops(origin, label)
            locate_delay += hops
            messages += hops
        start_peer, hops = self._route_hops(origin, start_label)
        locate_delay += hops
        messages += hops

        # Phase 2: parallel trie descent.  Visiting a child trie node costs a
        # DHT routing from the peer holding its parent.
        destinations: Dict[object, int] = {}
        matches: List[float] = []
        max_delay = locate_delay

        stack: List[Tuple[str, object, int]] = [(start_label, start_peer, locate_delay)]
        while stack:
            label, peer, delay = stack.pop()
            node = self._trie.get(label)
            if node is None:
                continue
            if node.is_leaf:
                in_range = [value for value in node.values if low <= value <= high]
                matches.extend(in_range)
                previous = destinations.get(peer)
                if previous is None or delay < previous:
                    destinations[peer] = delay
                max_delay = max(max_delay, delay)
                continue
            for bit in ("0", "1"):
                child_label = label + bit
                if not _prefix_intersects_keys(child_label, low_key, high_key):
                    continue
                child_peer, hops = self._route_hops(peer, child_label)
                messages += hops
                stack.append((child_label, child_peer, delay + hops))

        return record_query(
            delay_hops=max_delay,
            messages=messages,
            destinations=len(destinations),
            matches=matches,
        )

    def _existing_ancestor_or_self(self, label: str) -> str:
        """The deepest trie node whose label is a prefix of ``label`` (or the root)."""
        node = self._trie[""]
        depth = 0
        while not node.is_leaf and depth < len(label):
            depth += 1
            node = self._trie[label[:depth]]
        return node.label

    def _require_built(self) -> None:
        if self.dht is None:
            raise RuntimeError("call build() before using the scheme")


def _common_prefix(first: str, second: str) -> str:
    limit = min(len(first), len(second))
    for index in range(limit):
        if first[index] != second[index]:
            return first[:index]
    return first[:limit]


def _prefix_intersects_keys(prefix: str, low_key: str, high_key: str) -> bool:
    """True when some key extending ``prefix`` lies in ``[low_key, high_key]``."""
    bits = len(low_key)
    lowest = prefix + "0" * (bits - len(prefix))
    highest = prefix + "1" * (bits - len(prefix))
    return lowest <= high_key and highest >= low_key


def _lineage_probe_labels(common: str, found: str) -> List[str]:
    """Labels probed by the binary search over prefix lengths (excluding ``found``)."""
    labels: List[str] = []
    low, high = 0, len(common)
    target = len(found)
    while low < high:
        middle = (low + high) // 2
        label = common[:middle]
        if label != found:
            labels.append(label)
        if middle < target:
            low = middle + 1
        else:
            high = middle
    return labels
