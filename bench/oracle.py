"""The benchmark's own answer key.

Expected results are computed by brute force from the benchmark's copy of
the values it published — never from the cluster, the namers or any
other code under test.  A reply is *ok* only when it arrived, is
complete, and equals this answer exactly.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.api.requests import (
    Get,
    GetReply,
    Insert,
    InsertReply,
    MultiInsert,
    MultiRangeQuery,
    QueryReply,
    RangeQuery,
    Request,
)


@dataclass(slots=True)
class Observed:
    """What the benchmark keeps of one reply.

    Enough to check it and to count the paper's costs, but not the reply
    itself: a round of ``live-wide`` replies is 125 000 objects, and
    holding them until the round is checked would have the collector walk
    them inside the timed region.
    """

    #: why the reply cannot be right, when that shows without the oracle
    problem: Optional[str] = None
    #: keys of the matching objects (queries) or stored payloads (gets)
    values: Sequence[Any] = ()
    messages: int = 0
    hops: int = 0
    destinations: int = 0


def observe(reply: Any) -> Observed:
    """Reduce a reply (or the exception raised in its place)."""
    if isinstance(reply, BaseException):
        return Observed(problem=f"{type(reply).__name__}: {reply}")
    if isinstance(reply, QueryReply):
        result = reply.result
        if not reply.ok or not result.complete:
            return Observed(problem=f"incomplete result (status {reply.status!r})")
        return Observed(
            values=result.matching_values(),
            messages=result.messages,
            hops=result.delay_hops,
            destinations=result.destination_count,
        )
    if isinstance(reply, InsertReply):
        if not reply.ok or not reply.owner:
            return Observed(problem=f"insert not acknowledged: {reply!r}")
        # InsertReply carries neither cost: one store round trip per acked
        # copy, and the owner's PeerID length is the FISSIONE route bound
        # for a publish.
        return Observed(messages=2 * (len(reply.replicas) or 1), hops=len(reply.owner))
    if isinstance(reply, GetReply):
        if not reply.found:
            return Observed(problem="published value not found")
        return Observed(values=reply.values)
    return Observed(problem=f"unexpected reply type {type(reply).__name__}")


class Oracle:
    """Every value the benchmark has published, queryable by brute force."""

    def __init__(self) -> None:
        self._singles: List[float] = []
        self._sorted = True
        self._multis: List[Tuple[float, ...]] = []

    def published(self, request: Request) -> None:
        """Record an acknowledged insert."""
        if isinstance(request, Insert):
            self._singles.append(float(request.value))
            self._sorted = False
        elif isinstance(request, MultiInsert):
            self._multis.append(tuple(request.values))

    @property
    def count(self) -> int:
        return len(self._singles) + len(self._multis)

    def sample_singles(self, rng: Any, count: int) -> List[float]:
        """``count`` published single-attribute values, drawn with ``rng``."""
        return rng.sample(self._singles, min(count, len(self._singles)))

    def expected(self, request: Request) -> List[Any]:
        """Sorted keys of every published object matching a query."""
        if isinstance(request, RangeQuery):
            if not self._sorted:
                self._singles.sort()
                self._sorted = True
            start = bisect.bisect_left(self._singles, request.low)
            stop = bisect.bisect_right(self._singles, request.high)
            return self._singles[start:stop]
        if isinstance(request, MultiRangeQuery):
            ranges = request.ranges
            return sorted(
                point
                for point in self._multis
                if all(low <= value <= high for value, (low, high) in zip(point, ranges))
            )
        raise TypeError(f"no expected answer for request op {request.op!r}")

    def mismatch(self, request: Request, observed: Observed) -> Optional[str]:
        """``None`` when the reply was the right answer, else what is wrong."""
        if observed.problem is not None:
            return observed.problem
        if isinstance(request, (RangeQuery, MultiRangeQuery)):
            got, want = sorted(observed.values), self.expected(request)
            if got != want:
                return f"{len(got)} matches returned, {len(want)} expected"
        elif isinstance(request, Get) and float(request.value) not in observed.values:
            return f"value missing from the copies returned: {observed.values!r}"
        return None
