"""Skip Graph: an ordered overlay supporting direct range scans.

Skip Graphs (Aspnes & Shah) keep nodes sorted by key in a doubly-linked list
at level 0; at level ``i`` a node only links to the nearest nodes whose random
membership vectors share their first ``i`` bits, producing ``O(log N)``
expected search cost.  They appear in the paper's Table 1 both directly (Skip
Graph / SkipNet support single-attribute range queries natively, with
``O(log N + n)`` delay) and as the substrate of SCRAP.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dhts.base import DHTNetwork, LookupResult


@dataclass
class SkipGraphNode:
    """One Skip Graph node."""

    node_id: int
    key: float
    membership: str
    #: per-level (left, right) neighbour node ids (None at the ends)
    links: List[Tuple[Optional[int], Optional[int]]] = field(default_factory=list)
    #: objects stored at this node
    store: List[object] = field(default_factory=list)

    @property
    def levels(self) -> int:
        """Number of levels this node participates in."""
        return len(self.links)


class SkipGraph(DHTNetwork):
    """A Skip Graph built over a set of keys (global-knowledge construction)."""

    def __init__(self, keys: List[float], rng, levels: Optional[int] = None) -> None:
        if len(keys) < 2:
            raise ValueError("SkipGraph needs at least 2 keys")
        count = len(keys)
        if levels is None:
            levels = max(2, count.bit_length())
        self.levels = levels
        ordered = sorted(enumerate(keys), key=lambda pair: pair[1])
        self._nodes: Dict[int, SkipGraphNode] = {}
        self._order: List[int] = []
        self._sorted_keys: List[float] = []
        for node_id, key in ordered:
            membership = "".join("1" if rng.random() < 0.5 else "0" for _ in range(levels))
            self._nodes[node_id] = SkipGraphNode(node_id=node_id, key=float(key), membership=membership)
            self._order.append(node_id)
            self._sorted_keys.append(float(key))
        self._build_links()

    def _build_links(self) -> None:
        """Wire the per-level doubly-linked lists from the membership vectors."""
        for node in self._nodes.values():
            node.links = [(None, None)] * self.levels
        for level in range(self.levels):
            groups: Dict[str, List[int]] = {}
            for node_id in self._order:  # already sorted by key
                prefix = self._nodes[node_id].membership[:level]
                groups.setdefault(prefix, []).append(node_id)
            for members in groups.values():
                for position, node_id in enumerate(members):
                    left = members[position - 1] if position > 0 else None
                    right = members[position + 1] if position + 1 < len(members) else None
                    self._nodes[node_id].links[level] = (left, right)

    # ------------------------------------------------------------------ #
    # DHTNetwork interface                                                 #
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        return len(self._nodes)

    def node(self, node_id: int) -> SkipGraphNode:
        """Node object by identifier."""
        return self._nodes[node_id]

    def owner(self, key: float) -> int:
        """The node with the largest key <= ``key`` (or the smallest node)."""
        index = bisect.bisect_right(self._sorted_keys, float(key)) - 1
        return self._order[max(0, index)]

    def random_node(self, rng) -> int:
        return rng.choice(self._order)

    def random_key(self, rng) -> float:
        low = self._nodes[self._order[0]].key
        high = self._nodes[self._order[-1]].key
        return rng.uniform(low, high)

    def route(self, source: int, key: float) -> LookupResult:
        """Skip Graph search: descend levels, moving as far as possible per level."""
        key = float(key)
        current = self._nodes[source]
        path = [current.node_id]
        level = self.levels - 1
        direction_right = current.key <= key
        while level >= 0:
            moved = True
            while moved:
                moved = False
                left, right = current.links[level]
                if direction_right and right is not None and self._nodes[right].key <= key:
                    current = self._nodes[right]
                    path.append(current.node_id)
                    moved = True
                elif not direction_right and left is not None and self._nodes[left].key > key:
                    current = self._nodes[left]
                    path.append(current.node_id)
                    moved = True
            level -= 1
        # Searching leftwards overshoots by one node (we stop at the first node
        # with key <= target when approaching from above).
        if not direction_right:
            left, _right = current.links[0]
            if current.key > key and left is not None:
                current = self._nodes[left]
                path.append(current.node_id)
        return LookupResult(key=key, owner=current.node_id, hops=len(path) - 1, path=path)

    # ------------------------------------------------------------------ #
    # range scans                                                          #
    # ------------------------------------------------------------------ #

    def scan_right(self, start_node: int, high_key: float) -> List[int]:
        """Walk level-0 successors from ``start_node`` while their key <= ``high_key``."""
        visited = [start_node]
        current = self._nodes[start_node]
        for _ in range(len(self._nodes)):
            _left, right = current.links[0]
            if right is None or self._nodes[right].key > high_key:
                break
            current = self._nodes[right]
            visited.append(current.node_id)
        return visited
