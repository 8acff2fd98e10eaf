"""Test-side oracles: the paper's definitions that no program path runs.

Each is computed the plain way, so a test can check the program against it
or check the definition itself:

* the static Kautz graph ``K(d, k)`` of Figure 1 -- FISSIONE's topology only
  approximates it -- with its edge ``u1 .. uk -> u2 .. uk a``
  (:func:`shift_append`), diameter ``k`` and Kautz paths;
* the partition tree's labels (Figure 3) and a forward routing tree's
  levels, read off the namespace and the network;
* a skip graph's key order and the nodes a range scan must visit;
* Zipf-skewed attribute values, the skewed input the end-to-end tests feed.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List

from repro.core.errors import QueryError
from repro.core.partition_tree import PartitionTree
from repro.dhts.skipgraph import SkipGraph
from repro.fissione.network import FissioneNetwork
from repro.kautz import strings as ks
from repro.kautz.space import KautzSpace
from repro.sim.rng import DeterministicRNG


def shift_append(value: str, symbol: str, base: int = 2) -> str:
    """Kautz-graph edge operation: drop the first symbol and append ``symbol``.

    Raises if the append would create two equal adjacent symbols.
    """
    ks.validate_kautz_string(value, base=base)
    if symbol == value[-1]:
        raise ks.KautzStringError(
            f"cannot append {symbol!r} after {value!r}: adjacent symbols would repeat"
        )
    return ks.validate_kautz_string(value[1:] + symbol, base=base)


class KautzGraph:
    """Directed Kautz graph ``K(d, k)`` on ``(d + 1) d^(k-1)`` nodes."""

    def __init__(self, base: int, length: int) -> None:
        self.base = base
        #: string length ``k``, also the graph's diameter
        self.length = length
        self._space = KautzSpace(base, length)
        self.node_count = self._space.size

    def nodes(self) -> Iterable[str]:
        """All node labels in lexicographic order."""
        return iter(self._space)

    def _check(self, node: str) -> None:
        ks.validate_kautz_string(node, base=self.base)
        if len(node) != self.length:
            raise ks.KautzStringError(f"node {node!r} does not belong to K({self.base},{self.length})")

    def out_neighbors(self, node: str) -> List[str]:
        self._check(node)
        return [shift_append(node, symbol, self.base) for symbol in ks.allowed_symbols(node[-1], self.base)]

    def in_neighbors(self, node: str) -> List[str]:
        """``a u1 .. u(k-1)`` for ``a != u1``."""
        self._check(node)
        return [symbol + node[:-1] for symbol in ks.allowed_symbols(node[0], self.base)]

    def has_edge(self, source: str, target: str) -> bool:
        return target in self.out_neighbors(source)

    def _shortest_paths(self, source: str) -> Dict[str, List[str]]:
        """A shortest path from ``source`` to every node (BFS; endpoints included)."""
        paths = {source: [source]}
        queue = deque([source])
        while queue:
            current = queue.popleft()
            for neighbor in self.out_neighbors(current):
                if neighbor not in paths:
                    paths[neighbor] = paths[current] + [neighbor]
                    queue.append(neighbor)
        return paths

    def shortest_path(self, source: str, target: str) -> List[str]:
        return self._shortest_paths(source)[target]

    def kautz_path(self, source: str, target: str) -> List[str]:
        """The route FISSIONE's long-path routing follows: each length-``k``
        window of the spliced string ``source ⊕ target``, left to right."""
        spliced = ks.splice(source, target, base=self.base)
        return [spliced[start : start + self.length] for start in range(len(spliced) - self.length + 1)]

    def diameter(self) -> int:
        """Exact diameter (all-pairs BFS); only sensible for small graphs."""
        return max(
            len(path) - 1 for source in self.nodes() for path in self._shortest_paths(source).values()
        )


def children_labels(tree: PartitionTree, label: str) -> List[str]:
    """Labels of the children of the node ``label`` (left to right)."""
    ks.validate_kautz_string(label, base=tree.base, allow_empty=True)
    if len(label) >= tree.depth:
        return []
    return [label + symbol for symbol in ks.allowed_symbols(label[-1] if label else None, tree.base)]


def leaf_labels(tree: PartitionTree) -> List[str]:
    """All leaf labels in lexicographic (left-to-right) order."""
    return ks.kautz_strings_with_prefix("", tree.depth, base=tree.base)


def level_peers(network: FissioneNetwork, root_id: str, level: int) -> List[str]:
    """Distinct peers at level ``level`` of the FRT rooted at ``root_id``.

    For ``level < height`` these are exactly the peers whose PeerID starts
    with the suffix ``u(level+1) .. ub`` of the root; for ``level ==
    height`` they are the peers whose PeerID does not start with ``ub``.
    """
    height = len(root_id)
    if level < 0 or level > height:
        raise QueryError(f"level {level} outside [0, {height}]")
    if level == 0:
        return [root_id]
    if level < height:
        return network.compatible_peers(root_id[level:])
    return [peer_id for peer_id in network.peer_ids() if not peer_id.startswith(root_id[-1])]


def key_order(skipgraph: SkipGraph) -> List[int]:
    """Node ids sorted by key."""
    return sorted(range(skipgraph.size), key=lambda node_id: skipgraph.node(node_id).key)


def range_nodes(skipgraph: SkipGraph, low_key: float, high_key: float) -> List[int]:
    """Nodes whose key interval ``[key, next key)`` meets ``[low_key, high_key]``."""
    order = key_order(skipgraph)
    keys = [skipgraph.node(node_id).key for node_id in order] + [float("inf")]
    return [
        node_id
        for position, node_id in enumerate(order)
        if keys[position] <= high_key and keys[position + 1] > low_key
    ]


def zipf_values(
    rng: DeterministicRNG,
    count: int,
    alpha: float = 1.1,
    buckets: int = 100,
    low: float = 0.0,
    high: float = 1000.0,
) -> List[float]:
    """``count`` values Zipf-skewed across ``buckets`` equal sub-intervals.

    Bucket ranks are drawn from a truncated Zipf distribution; within the
    chosen bucket values are uniform, producing a hot-spot pattern.
    """
    width = (high - low) / buckets
    values: List[float] = []
    for _ in range(count):
        start = low + (rng.zipf(alpha, buckets) - 1) * width
        values.append(rng.uniform(start, start + width))
    return values
