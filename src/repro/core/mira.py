"""MIRA: multi-attribute range queries over FISSIONE (Section 5).

MIRA follows PIRA's pruning search over the forward routing tree of the
querying peer, with two differences forced by ``Multiple_hash`` not being
interval preserving:

* the pair ``(LowT, HighT)`` names the low/high *corners* of the query box,
  and only their common prefix ``ComT`` is used (to locate the destination
  level ``b - f``); the region ``<LowT, HighT>`` itself may strictly contain
  the query's ObjectIDs, so it is never used as a filter;
* the forwarding and destination predicates ask whether the axis-aligned box
  represented by a label prefix in the multi-attribute partition tree
  intersects the query box.  A neighbour's label is the relay's own label
  plus the symbols the Kautz shift adds, so each forwarding message carries
  its receiver's :class:`~repro.core.multiple_hash.Walk` (the send's
  ``region``) and the receiver extends it by only those symbols
  (:meth:`MultiAttributeNamer.walk`).  A label is walked from the root
  only at the origin, for a detour target, or when it does not extend the
  relay's own; nothing is memoised.

Delay remains bounded by the FRT height, i.e. by the origin's PeerID length:
less than ``2 log N`` worst case, less than ``log N`` on average, regardless
of the query-space size.

Like PIRA, MIRA queries are resumable: :meth:`MiraExecutor.start` takes the
same call (``start(origin, ranges, *, deadline=None, ...)``), builds the
subtree branches and hands to the launch routine of
:mod:`repro.core.resumable`; ``handle_message`` resumes an in-flight query
on each delivery, and completion is detected by outstanding message
counting — so any number of MIRA (and PIRA) queries overlap on one clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import le
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.frt import longest_suffix_prefix
from repro.core.multiple_hash import Walk
from repro.core.pira import RangeQueryResult
from repro.core.resumable import QueryState, ResumableExecutor
from repro.fissione.peer import FissionePeer, StoredObject
from repro.kautz import strings as ks


@dataclass(slots=True)
class _MiraQuery:
    """Per-subtree forwarding state: the query box clipped to the subtree
    (``lows`` / ``highs``, what the pruning test meets), the query's own
    bounds (``key_lows`` / ``key_highs``, what a destination filters by),
    the destination level, and the visited FRT occurrences (a per-peer
    level bitmask, see
    :meth:`~repro.core.resumable.ResumableExecutor._dispatch`)."""

    lows: Tuple[float, ...]
    highs: Tuple[float, ...]
    key_lows: Tuple[float, ...]
    key_highs: Tuple[float, ...]
    dest_level: int
    visited: Dict[str, int] = field(default_factory=dict)


class MiraExecutor(ResumableExecutor):
    """Executes MIRA multi-attribute range queries over a FISSIONE network.

    Per-query state is the shared :class:`QueryState`; its ``branches`` hold
    the :class:`_MiraQuery` per first-level partition subtree.
    """

    message_kind = "mira"

    # ------------------------------------------------------------------ #
    # public API                                                           #
    # ------------------------------------------------------------------ #

    def start(
        self,
        origin_peer_id: str,
        ranges: Sequence[Tuple[float, float]],
        *,
        deadline: Optional[float] = None,
        query_id: Optional[int] = None,
        on_complete: Optional[Callable[[RangeQueryResult], None]] = None,
        trace: bool = False,
    ) -> RangeQueryResult:
        """Start the box query ``ranges`` (one ``(low, high)`` pair per
        attribute) without running the simulator — the same call, with the
        same keywords, as :meth:`repro.core.pira.PiraExecutor.start`."""
        query_box = self.namer.query_box(ranges)
        key_lows, key_highs = zip(*((float(low), float(high)) for low, high in ranges))
        query_id = self._claim_query_id(origin_peer_id, query_id)
        state = QueryState(result=RangeQueryResult(origin=origin_peer_id, query_id=query_id))
        # Like PIRA's sub-region split, the query is processed once per
        # first-level subtree of the partition tree whose subspace intersects
        # the query box; within each subtree the destination level follows
        # from the deepest label whose subspace still contains the (clipped)
        # query box -- MIRA's analogue of ComT.
        for symbol in ks.allowed_symbols(None, base=self.namer.base):
            subtree_box = self.namer.box_for_label(symbol)
            if not subtree_box.intersects(query_box):
                continue
            clipped = query_box.intersection(subtree_box)
            com_t = self.namer.containing_label(clipped, start=symbol)
            com_s = longest_suffix_prefix(origin_peer_id, com_t)
            state.branches.append(
                _MiraQuery(
                    *clipped.bounds(), key_lows, key_highs, len(origin_peer_id) - len(com_s)
                )
            )
        return self._launch(state, deadline, on_complete, trace)

    def ground_truth_destinations(self, ranges: Sequence[Tuple[float, float]]) -> Set[str]:
        """Peers whose zone box intersects the query box (oracle, for tests)."""
        query_box = self.namer.query_box(ranges)
        return {
            peer_id
            for peer_id in self.network.peer_ids()
            if self.namer.box_for_label(peer_id[: self.namer.length]).intersects(query_box)
        }

    # ------------------------------------------------------------------ #
    # forwarding (message lifecycle inherited from ResumableExecutor)       #
    # ------------------------------------------------------------------ #

    def _intersects(self, subtree: _MiraQuery, label: str) -> bool:
        """True when the partition-tree box of ``label`` intersects the query box."""
        return self.namer.walk(label[: self.namer.length]).meets(subtree.lows, subtree.highs)

    def _process(
        self,
        peer: FissionePeer,
        level: int,
        hop: int,
        branch_index: int,
        state: QueryState,
        region: Optional[Walk] = None,
    ) -> None:
        """Fan out from ``peer``, a relay at FRT level ``level``, to the
        out-neighbours whose destination-level descendants' box meets the
        query box.

        ``region`` is the walk of the relay's own label (the slice of its
        PeerID its sender tested; walked here at the origin).  Each
        neighbour's label (inlined ``descendant_prefix`` cut to the tree
        depth) is the relay's label shifted by one PeerID symbol, so it
        usually extends the relay's label: that walk is extended by the one
        or two symbols added, and only a label that does not extend it is
        walked from the root.  Each kept neighbour's walk rides its send.
        The test is :meth:`Walk.meets`, inlined: it runs once per neighbour
        of every relay.
        """
        subtree = state.branches[branch_index]
        peer_id = peer.peer_id
        next_level = level + 1
        drop = subtree.dest_level - next_level
        end = drop + self.namer.length
        own = peer_id[drop + 1 : end + 1]
        walk = self.namer.walk
        region = walk(own) if region is None else region
        cut = len(own)
        lows, highs = subtree.lows, subtree.highs
        forward = self._forward_message
        for neighbor_id in self._out_view(peer_id):
            label = neighbor_id[drop:end]
            child = walk(label[cut:], region) if label[:cut] == own else walk(label)
            if all(map(le, child.lows, highs)) and all(map(le, lows, child.highs)):
                forward(peer_id, neighbor_id, next_level, hop + 1, branch_index, state, child)

    def _scan(
        self, peer: FissionePeer, subtree: _MiraQuery, state: QueryState
    ) -> List[StoredObject]:
        """A destination's matches: its objects whose key tuple lies in the
        query box, bucket by bucket as the store's view holds them
        (``Multiple_hash`` keeps no key order to slice)."""
        dimensions = self.namer.dimensions
        return [
            stored
            for bucket in peer.backend.view.values()
            for stored in bucket
            if isinstance(stored.key, (tuple, list))
            and len(stored.key) == dimensions
            and all(map(le, subtree.key_lows, stored.key))
            and all(map(le, stored.key, subtree.key_highs))
        ]
