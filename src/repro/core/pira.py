"""PIRA: the PrunIng Routing Algorithm for single-attribute range queries.

Given a range query ``[LowV, HighV]`` issued by peer ``P = u1 .. ub``:

1. The endpoints are named with ``Single_hash``, giving the Kautz region
   ``<LowT, HighT>`` that contains exactly the ObjectIDs of matching objects
   (interval preservation).
2. The region is split into at most ``base + 1`` sub-regions whose endpoints
   share a common prefix (``ComT``).
3. For each sub-region the destination level of ``P``'s forward routing tree
   is ``b - f``, where ``f`` is the length of ``ComS``, the longest string
   that is both a prefix of ``ComT`` and a suffix of ``P``'s PeerID.
4. The query descends the FRT level by level: a peer at level ``i`` forwards
   to exactly those out-neighbours whose FRT descendants at the destination
   level can still own region ObjectIDs -- the test is
   ``region.contains_prefix(neighbour.id[(dest - i - 1):])``.
5. Peers reached at the destination level whose zone intersects the region
   are destination peers: they filter their local store and report matches.
   ``Single_hash`` preserves order, so the filter is a bisected slice of the
   store's key-sorted run, and a destination's matches come in key order.

The execution is message-driven through the discrete-event overlay network,
so per-query delay (hops), message cost and destination count come straight
out of the simulation, mirroring the measurements of Figures 5-8.

Queries are *resumable*: :meth:`PiraExecutor.start` validates the range,
builds the sub-region branches and hands to the shared launch routine of
:mod:`repro.core.resumable`, which registers per-query state keyed by
``query_id``, bounds the query with its deadline timer and returns
immediately; every subsequent forwarding step is handled by
``handle_message``, and the query completes (firing its ``on_complete``
callback) when its last outstanding message has been processed.  Any
number of queries can therefore interleave on one clock — the concurrent
query engine in :mod:`repro.engine` builds on exactly this.  The call is
``start(origin, ranges, *, deadline=None, ...)`` — the same as MIRA's, with
exactly one ``(low, high)`` pair; ``execute(origin, ranges)`` is the
synchronous single-query wrapper (start, then drain the overlay).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.errors import QueryError
from repro.core.frt import destination_level
from repro.core.resumable import QueryState, ResumableExecutor
from repro.faults.resilience import ResilienceStats
from repro.fissione.peer import FissionePeer, StoredObject
from repro.kautz.region import KautzRegion
from repro.storage.base import ObjectList, objects_from_wire, objects_to_wire


@dataclass(slots=True)
class RangeQueryResult:
    """Outcome of one range query (single- or multi-attribute)."""

    origin: str
    query_id: int
    #: peer id -> hop count at which the peer was first reached as a destination
    destinations: Dict[str, int] = field(default_factory=dict)
    #: number of query (forwarding) messages sent
    messages: int = 0
    #: matching objects gathered from destination peers — the store's own
    #: objects at the executor, the reply's columns in a client
    matches: ObjectList = field(default_factory=ObjectList)
    #: every (sender, receiver, hop) forwarding step, for traces and tests
    forwarding_steps: List[Tuple[str, str, int]] = field(default_factory=list)
    #: failure/recovery ledger (drops, retries, reroutes, lost subtrees)
    resilience: ResilienceStats = field(default_factory=ResilienceStats)

    @property
    def delay_hops(self) -> int:
        """Query delay: hops until the last destination peer is reached."""
        if not self.destinations:
            return 0
        return max(self.destinations.values())

    @property
    def destination_count(self) -> int:
        """``Destpeers``: number of peers whose zone intersects the query."""
        return len(self.destinations)

    @property
    def complete(self) -> bool:
        """True when no subtree was lost and no deadline cut the query short.

        A query with ``complete == False`` returned *partial* results: some
        part of the forward routing tree could not be reached (message loss
        without a resilience policy, a dead hop that survived every retry
        and reroute, or deadline expiry).
        """
        return (
            self.resilience.subtrees_lost == 0
            and not self.resilience.deadline_expired
        )

    @property
    def failed(self) -> bool:
        """True when its deadline force-completed this query."""
        return self.resilience.deadline_expired

    @property
    def status(self) -> str:
        """The verdict: ``"deadline"`` (force-completed), ``"ok"`` (complete)
        or ``"partial"`` (lost subtrees) — the one spelling every reply,
        report and trace uses."""
        return "deadline" if self.resilience.deadline_expired else (
            "ok" if self.complete else "partial"
        )

    def mesg_ratio(self) -> float:
        """``MesgRatio`` = messages / destination peers (0 when no destination)."""
        if not self.destinations:
            return 0.0
        return self.messages / len(self.destinations)

    def matching_values(self) -> List[object]:
        """Attribute values (keys) of the matching objects."""
        return self.matches.keys()

    def to_wire(self) -> Dict[str, object]:
        """JSON-compatible form carrying every field (``matches`` as the
        columns of :func:`~repro.storage.base.objects_to_wire`).

        ``from_wire(json.loads(json.dumps(result.to_wire())))`` equals the
        original result — the identity the live gateway's responses (and
        the round-trip property test) rely on.
        """
        return {
            "origin": self.origin,
            "query_id": self.query_id,
            "destinations": dict(self.destinations),
            "messages": self.messages,
            "matches": objects_to_wire(self.matches),
            "forwarding_steps": [list(step) for step in self.forwarding_steps],
            "resilience": self.resilience.as_dict(),
        }

    @classmethod
    def from_wire(cls, wire: Dict[str, object]) -> "RangeQueryResult":
        """Rebuild a result from :meth:`to_wire` output (post-JSON).

        ``matches`` stay the decoded columns: no :class:`StoredObject` is
        built until a caller iterates or indexes them.
        """
        return cls(
            origin=wire["origin"],
            query_id=int(wire["query_id"]),
            destinations={peer: int(hop) for peer, hop in wire["destinations"].items()},
            messages=int(wire["messages"]),
            matches=objects_from_wire(wire["matches"]),
            forwarding_steps=[
                (step[0], step[1], int(step[2])) for step in wire["forwarding_steps"]
            ],
            resilience=ResilienceStats.from_dict(wire["resilience"]),
        )


@dataclass(slots=True)
class _SubQuery:
    """Per-sub-region forwarding state: the sub-region, its destination
    level, and the visited FRT occurrences (a per-peer level bitmask, see
    :meth:`~repro.core.resumable.ResumableExecutor._dispatch`)."""

    region: KautzRegion
    dest_level: int
    visited: Dict[str, int] = field(default_factory=dict)


@dataclass(slots=True)
class _QueryState(QueryState):
    """PIRA query state: the shared lifecycle plus the value bounds.

    ``branches`` holds the :class:`_SubQuery` per sub-region.
    """

    low_value: float = 0.0
    high_value: float = 0.0


class PiraExecutor(ResumableExecutor):
    """Executes PIRA range queries over a FISSIONE network."""

    message_kind = "pira"

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
        """Start the query ``ranges = [(low, high)]`` without running the simulator.

        PIRA is the one-attribute case of the executors' shared call: exactly
        one ``(low, high)`` pair.  The returned :class:`RangeQueryResult`
        fills in as the query's messages are delivered (see
        :meth:`~repro.core.resumable.ResumableExecutor._launch`); many
        started queries interleave on one clock.  ``deadline`` bounds the
        query on the transport's clock (``None`` = unbounded).
        ``trace=True`` opens a span tree for this query when a tracer is
        attached (see :meth:`set_tracer`).
        """
        low_value, high_value = self._single_range(ranges)
        query_id = self._claim_query_id(origin_peer_id, query_id)
        state = _QueryState(
            result=RangeQueryResult(origin=origin_peer_id, query_id=query_id),
            low_value=low_value,
            high_value=high_value,
        )
        region = self.namer.region_for_range(low_value, high_value)
        for subregion in region.split_by_first_symbol():
            state.branches.append(
                _SubQuery(
                    region=subregion,
                    dest_level=destination_level(origin_peer_id, subregion),
                )
            )
        return self._launch(state, deadline, on_complete, trace, low=low_value, high=high_value)

    @staticmethod
    def _single_range(ranges: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
        """The one ``(low, high)`` pair of a single-attribute query."""
        if len(ranges) != 1:
            raise QueryError(f"PIRA takes exactly one (low, high) range, got {len(ranges)}")
        low_value, high_value = ranges[0]
        if high_value < low_value:
            raise QueryError(f"range low bound {low_value} exceeds high bound {high_value}")
        return low_value, high_value

    def ground_truth_destinations(self, ranges: Sequence[Tuple[float, float]]) -> Set[str]:
        """Peers whose zone intersects the query region (oracle, for tests)."""
        region = self.namer.region_for_range(*self._single_range(ranges))
        return {
            peer_id
            for peer_id in self.network.peer_ids()
            if region.contains_prefix(peer_id)
        }

    # ------------------------------------------------------------------ #
    # forwarding (message lifecycle inherited from ResumableExecutor)       #
    # ------------------------------------------------------------------ #

    def _process(
        self,
        peer: FissionePeer,
        level: int,
        hop: int,
        branch_index: int,
        state: _QueryState,
        region: None = None,
    ) -> None:
        """Fan out from ``peer``, a relay at FRT level ``level``, to the
        out-neighbours whose destination-level descendants can own ObjectIDs
        of the sub-region (PIRA's sends carry no ``region``)."""
        subquery = state.branches[branch_index]
        peer_id = peer.peer_id
        # Inlined ``descendant_prefix(neighbor_id, level + 1, dest_level)``:
        # ``drop`` is non-negative here (level < dest_level), so the hot loop
        # tests a bare suffix slice per neighbour.  This loop runs once per
        # (peer, level) occurrence of every in-flight query.  The test is
        # KautzRegion.contains_prefix (which states why it is exact), inlined:
        # ``prefix`` is the suffix cut to the region length, ``k`` its length.
        next_level = level + 1
        next_hop = hop + 1
        drop = subquery.dest_level - next_level
        low, high = subquery.region.low, subquery.region.high
        end = drop + len(low)
        forward = self._forward_message
        for neighbor_id in self._out_view(peer_id):
            prefix = neighbor_id[drop:end]
            k = len(prefix)
            if low[:k] <= prefix <= high[:k]:
                forward(peer_id, neighbor_id, next_level, next_hop, branch_index, state)

    def _intersects(self, branch: _SubQuery, label: str) -> bool:
        """True when the zone named by ``label`` meets the sub-region."""
        return branch.region.contains_prefix(label)

    def _scan(
        self, peer: FissionePeer, branch: _SubQuery, state: _QueryState
    ) -> List[StoredObject]:
        """A destination's matches: a key-ordered slice of its store
        (:meth:`~repro.storage.base.Store.scan`)."""
        return peer.backend.scan(state.low_value, state.high_value)
