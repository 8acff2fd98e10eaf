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
  intersects the query box (:meth:`MultiAttributeNamer.box_for_label`).

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
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.frt import descendant_prefix, longest_suffix_prefix
from repro.core.multiple_hash import Box
from repro.core.pira import RangeQueryResult
from repro.core.resumable import QueryState, ResumableExecutor
from repro.fissione.peer import FissionePeer, StoredObject
from repro.kautz import strings as ks


@dataclass(slots=True)
class _MiraQuery:
    """Per-subtree forwarding state: the clipped query box, the ranges, the
    destination level, and the visited FRT occurrences (a per-peer level
    bitmask, see :meth:`~repro.core.resumable.ResumableExecutor._dispatch`)."""

    query_box: Box
    ranges: Tuple[Tuple[float, float], ...]
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
        on_destination: Optional[Callable[[str, int, List[StoredObject]], None]] = None,
        trace: bool = False,
    ) -> RangeQueryResult:
        """Start the box query ``ranges`` (one ``(low, high)`` pair per
        attribute) without running the simulator — the same call, with the
        same keywords, as :meth:`repro.core.pira.PiraExecutor.start`."""
        query_box = self.namer.query_box(ranges)
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
                    query_box=clipped,
                    ranges=tuple((float(low), float(high)) for low, high in ranges),
                    dest_level=len(origin_peer_id) - len(com_s),
                )
            )
        return self._launch(state, deadline, on_complete, on_destination, trace)

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
        if label == "":
            return True
        clipped = label[: self.namer.length]
        return self.namer.box_for_label(clipped).intersects(subtree.query_box)

    def _process(
        self,
        peer: FissionePeer,
        level: int,
        hop: int,
        branch_index: int,
        state: QueryState,
    ) -> None:
        """Fan out from ``peer``, a relay at FRT level ``level``, to the
        out-neighbours whose destination-level descendants' box meets the
        query box."""
        subtree = state.branches[branch_index]
        for neighbor_id in self.network.out_neighbors_view(peer.peer_id):
            prefix = descendant_prefix(neighbor_id, level + 1, subtree.dest_level)
            if self._intersects(subtree, prefix):
                self._forward_message(
                    peer.peer_id, neighbor_id, level + 1, hop + 1, branch_index, state
                )

    def _scan(
        self, peer: FissionePeer, subtree: _MiraQuery, state: QueryState
    ) -> List[StoredObject]:
        """A destination's matches: its objects whose key tuple lies in the
        query box (``Multiple_hash`` keeps no key order to slice)."""
        dimensions = self.namer.dimensions
        return [
            stored
            for stored in peer.objects()
            if isinstance(stored.key, (tuple, list))
            and len(stored.key) == dimensions
            and all(
                low <= value <= high for value, (low, high) in zip(stored.key, subtree.ranges)
            )
        ]
