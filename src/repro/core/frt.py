"""The Forward Routing Tree (FRT) of a FISSIONE peer (Section 4.2).

The FRT of peer ``P = u1 u2 .. ub`` is the tree of peer *occurrences* rooted
at ``P`` in which the children of a node are its out-neighbours, sorted by
PeerID.  Its key structural property is that every peer occurring at level
``i <= b - 1`` has the suffix ``u(i+1) .. ub`` of ``P`` as a PeerID prefix, so
descending one level "consumes" one symbol of ``P``.  PIRA never materialises
the FRT -- it only needs the level arithmetic -- but building it explicitly is
invaluable for tests (the paper's Figure 4 example) and for the examples'
visualisations, so this module provides both:

* :func:`destination_level` / :func:`longest_suffix_prefix` -- the ``ComS`` /
  ``f`` computation PIRA uses to locate the destination level ``b - f``;
* :class:`ForwardRoutingTree` -- an explicit (bounded-depth) construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.errors import QueryError
from repro.fissione.network import FissioneNetwork
from repro.kautz.region import KautzRegion


def longest_suffix_prefix(peer_id: str, target: str) -> str:
    """Longest string that is both a suffix of ``peer_id`` and a prefix of ``target``.

    This is ``ComS`` in the paper, with ``target = ComT`` (the common prefix
    of the query region's endpoints).  The empty string is returned when no
    overlap exists.
    """
    limit = min(len(peer_id), len(target))
    for length in range(limit, 0, -1):
        if peer_id.endswith(target[:length]):
            return target[:length]
    return ""


def destination_level(peer_id: str, region: KautzRegion) -> int:
    """FRT level ``b - f`` at which the destination peers of ``region`` sit."""
    if not peer_id:
        raise QueryError("peer_id must be non-empty")
    com_t = region.common_prefix()
    com_s = longest_suffix_prefix(peer_id, com_t)
    return len(peer_id) - len(com_s)


def descendant_prefix(peer_id: str, level: int, dest_level: int) -> str:
    """Prefix shared by a level-``level`` peer's FRT descendants at ``dest_level``.

    A node at level ``level`` loses one leading PeerID symbol per level on the
    way down, so its descendants at ``dest_level`` share the prefix obtained
    by dropping ``dest_level - level`` leading symbols -- the ``XY`` of the
    paper's forwarding rule.  If the PeerID is too short the prefix is empty
    (no pruning information).
    """
    drop = dest_level - level
    if drop < 0:
        raise QueryError(f"level {level} is beyond the destination level {dest_level}")
    if drop >= len(peer_id):
        return ""
    return peer_id[drop:]


@dataclass
class FRTNode:
    """One occurrence of a peer in the forward routing tree."""

    peer_id: str
    level: int
    children: List["FRTNode"] = field(default_factory=list)

    def descendants(self) -> List["FRTNode"]:
        """All strict descendants in depth-first order."""
        result: List[FRTNode] = []
        stack = list(self.children)
        while stack:
            node = stack.pop()
            result.append(node)
            stack.extend(node.children)
        return result


class ForwardRoutingTree:
    """Explicit FRT construction for small networks (tests, figures, examples)."""

    def __init__(self, network: FissioneNetwork, root_peer_id: str) -> None:
        if not network.has_peer(root_peer_id):
            raise QueryError(f"unknown root peer {root_peer_id!r}")
        self._network = network
        self._root_id = root_peer_id

    @property
    def height(self) -> int:
        """Number of levels below the root (= length of the root's PeerID)."""
        return len(self._root_id)

    def build(self, max_level: Optional[int] = None) -> FRTNode:
        """Materialise the tree down to ``max_level`` (default: full height).

        The size grows with the fan-out, so only use small networks or small
        ``max_level`` values.
        """
        limit = self.height if max_level is None else min(max_level, self.height)
        root = FRTNode(peer_id=self._root_id, level=0)
        frontier = [root]
        for level in range(limit):
            next_frontier: List[FRTNode] = []
            for node in frontier:
                for neighbor in sorted(self._network.out_neighbors_view(node.peer_id)):
                    child = FRTNode(peer_id=neighbor, level=level + 1)
                    node.children.append(child)
                    next_frontier.append(child)
            frontier = next_frontier
        return root

    def render(self, max_level: Optional[int] = None) -> str:
        """ASCII rendering of the tree (used by the quickstart example)."""
        root = self.build(max_level=max_level)
        lines: List[str] = []

        def visit(node: FRTNode, indent: int) -> None:
            lines.append("  " * indent + node.peer_id)
            for child in node.children:
                visit(child, indent + 1)

        visit(root, 0)
        return "\n".join(lines)
