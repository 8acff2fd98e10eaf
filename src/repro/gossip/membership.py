"""The gossip membership table: alive / suspect / dead with incarnations.

This is the control plane's single shared data structure.  Every
:class:`~repro.runtime.node.PeerNode`'s SWIM agent holds one
:class:`MembershipTable` mapping PeerIDs to :class:`MemberEntry` records;
the SWIM loop (:mod:`repro.gossip.swim`) mutates it through :meth:`apply`
and views converge by exchanging **digests** — compact wire lists of the
most recently changed entries, piggybacked on every ping and ack.

The merge rules are SWIM's (with ``memberlist``-style revivable deaths,
so a restarted peer can rejoin under its old PeerID):

* a record with a **higher incarnation** always wins, whatever its state —
  this is what lets a falsely-suspected peer *refute*: it bumps its own
  incarnation and gossips ``alive``, which overrides the stale suspicion
  everywhere it has spread;
* at **equal incarnation** the more pessimistic state wins
  (``dead``/``left`` > ``suspect`` > ``alive``): a suspicion cannot be
  cancelled by re-gossiping the same alive record that produced it, only
  by a fresh incarnation;
* ``left`` is the graceful goodbye — same precedence as ``dead`` (the
  peer is gone either way) but reported separately, because a zone
  handoff is not a failure.

Only a peer's **own host** may bump its incarnation (refutation /
restart); every other node merely repeats what it heard.  That single
rule is why the protocol never flaps: third parties cannot fabricate
fresher records than the subject itself.

The table is pure state — no clocks, no sockets, no timers — so the same
code runs under the live asyncio runtime and the deterministic simulator
(:mod:`repro.gossip.simmodel`), and the property tests can drive it
through arbitrary interleavings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: membership states, in increasing order of pessimism
ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"
#: graceful departure: same merge precedence as DEAD, reported separately
LEFT = "left"

STATES = (ALIVE, SUSPECT, DEAD, LEFT)

#: merge precedence at equal incarnation (higher wins)
_PESSIMISM = {ALIVE: 0, SUSPECT: 1, DEAD: 2, LEFT: 2}

Address = Tuple[str, int]

#: change listener: ``(peer_id, old_state, new_state, entry)``
ChangeListener = Callable[[str, Optional[str], str, "MemberEntry"], None]


@dataclass
class MemberEntry:
    """One peer's liveness record, as gossiped."""

    peer_id: str
    state: str = ALIVE
    incarnation: int = 0
    address: Optional[Address] = None
    #: table-local freshness stamp (bumped on every accepted change) —
    #: orders the digest so the newest news travels first; never gossiped
    version: int = 0

    def to_wire(self) -> List[Any]:
        """Compact digest row: ``[peer, state, incarnation, host, port]``."""
        host, port = self.address if self.address is not None else (None, 0)
        return [self.peer_id, self.state, self.incarnation, host, port]

    @classmethod
    def from_wire(cls, row: Sequence[Any]) -> "MemberEntry":
        peer_id, state, incarnation, host, port = row
        if state not in STATES:
            raise ValueError(f"unknown membership state {state!r}")
        address = (host, int(port)) if host is not None else None
        return cls(
            peer_id=peer_id, state=state, incarnation=int(incarnation), address=address
        )


class MembershipTable:
    """One node's view of every peer's liveness.

    Thread-unsafe by design (the runtime is a single asyncio loop; the sim
    is single-threaded).  Mutations go through :meth:`apply`, which
    enforces the SWIM precedence rules and notifies listeners only on
    *accepted* changes — stale gossip is absorbed silently.
    """

    def __init__(self) -> None:
        self.entries: Dict[str, MemberEntry] = {}
        self._version = 0
        self._listeners: List[ChangeListener] = []

    # -- listeners -----------------------------------------------------------

    def on_change(self, listener: ChangeListener) -> None:
        """Subscribe to accepted state transitions (alive→suspect, …)."""
        self._listeners.append(listener)

    # -- merge rules ---------------------------------------------------------

    @staticmethod
    def supersedes(new_state: str, new_inc: int, old_state: str, old_inc: int) -> bool:
        """True when ``(new_state, new_inc)`` overrides ``(old_state, old_inc)``."""
        if new_inc != old_inc:
            return new_inc > old_inc
        return _PESSIMISM[new_state] > _PESSIMISM[old_state]

    def apply(
        self,
        peer_id: str,
        state: str,
        incarnation: int = 0,
        address: Optional[Address] = None,
    ) -> bool:
        """Merge one record; returns True when it changed this view."""
        if state not in STATES:
            raise ValueError(f"unknown membership state {state!r}")
        entry = self.entries.get(peer_id)
        if entry is None:
            entry = MemberEntry(peer_id=peer_id, state=state, incarnation=incarnation, address=address)
            self._version += 1
            entry.version = self._version
            self.entries[peer_id] = entry
            self._notify(peer_id, None, state, entry)
            return True
        if not self.supersedes(state, incarnation, entry.state, entry.incarnation):
            # Stale news may still carry a fresher address for the same
            # liveness fact (e.g. a relocated peer's first alive record
            # raced ahead of this copy) — keep the record, take nothing.
            return False
        old_state = entry.state
        entry.state = state
        entry.incarnation = incarnation
        if address is not None:
            entry.address = address
        self._version += 1
        entry.version = self._version
        if old_state != state:
            self._notify(peer_id, old_state, state, entry)
        return True

    def bump(self, peer_id: str, state: str, address: Optional[Address] = None) -> int:
        """Apply ``state`` one incarnation above this view's record (0 for
        an unknown peer), so it supersedes whatever the view holds — a
        refutation, a restart, a relocation, a rename's goodbye.  Returns
        the incarnation applied."""
        entry = self.entries.get(peer_id)
        incarnation = entry.incarnation + 1 if entry is not None else 0
        self.apply(peer_id, state, incarnation, address)
        return incarnation

    def merge(self, rows: Sequence[Sequence[Any]]) -> List[Tuple[str, str]]:
        """Merge a wire digest; returns the ``(peer, new_state)`` accepted."""
        accepted: List[Tuple[str, str]] = []
        for row in rows:
            record = MemberEntry.from_wire(row)
            if self.apply(
                record.peer_id, record.state, record.incarnation, record.address
            ):
                accepted.append((record.peer_id, record.state))
        return accepted

    def _notify(
        self, peer_id: str, old_state: Optional[str], new_state: str, entry: MemberEntry
    ) -> None:
        for listener in self._listeners:
            listener(peer_id, old_state, new_state, entry)

    # -- digests -------------------------------------------------------------

    def digest(self, limit: Optional[int] = None) -> List[List[Any]]:
        """The freshest ``limit`` entries (all of them when ``limit`` is
        None), newest change first — the anti-entropy payload piggybacked
        on pings and acks."""
        ordered = sorted(self.entries.values(), key=lambda e: e.version, reverse=True)
        if limit is not None:
            ordered = ordered[:limit]
        return [entry.to_wire() for entry in ordered]

    # -- views ---------------------------------------------------------------

    def get(self, peer_id: str) -> Optional[MemberEntry]:
        return self.entries.get(peer_id)

    def state_of(self, peer_id: str) -> Optional[str]:
        entry = self.entries.get(peer_id)
        return entry.state if entry is not None else None

    def address_of(self, peer_id: str) -> Optional[Address]:
        entry = self.entries.get(peer_id)
        return entry.address if entry is not None else None

    def ids_in(self, *states: str) -> List[str]:
        return sorted(
            peer_id for peer_id, entry in self.entries.items() if entry.state in states
        )

    def alive_ids(self) -> List[str]:
        return self.ids_in(ALIVE)

    def suspect_ids(self) -> List[str]:
        return self.ids_in(SUSPECT)

    def dead_ids(self) -> List[str]:
        return self.ids_in(DEAD)

    def left_ids(self) -> List[str]:
        return self.ids_in(LEFT)

    def counts(self) -> Dict[str, int]:
        """``{state: count}`` over every known entry (zeros included)."""
        counts = {state: 0 for state in STATES}
        for entry in self.entries.values():
            counts[entry.state] += 1
        return counts

    def liveness_view(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """``(alive, dead-or-left)`` id tuples — the convergence fingerprint
        two views are compared by (suspicion is transient and excluded)."""
        return (
            tuple(self.ids_in(ALIVE, SUSPECT)),
            tuple(self.ids_in(DEAD, LEFT)),
        )

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        counts = self.counts()
        return (
            f"MembershipTable(alive={counts[ALIVE]}, suspect={counts[SUSPECT]}, "
            f"dead={counts[DEAD]}, left={counts[LEFT]})"
        )


def views_converged(views: Iterable[MembershipTable], expect_dead: Iterable[str] = ()) -> bool:
    """True when every view has the same :meth:`~MembershipTable.liveness_view`
    and it holds ``expect_dead`` dead (a victim still only suspected is not).

    No views at all is *not* converged: a caller whose empty case means
    something else (the simulator with every node crashed) decides it first.
    """
    fingerprints = {view.liveness_view() for view in views}
    if len(fingerprints) != 1:
        return False
    alive, dead = fingerprints.pop()
    expected = set(expect_dead)
    return expected.issubset(dead) and expected.isdisjoint(alive)
