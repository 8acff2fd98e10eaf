"""The SWIM failure-detection loop, transport-agnostic.

One :class:`SwimNode` runs per process endpoint — a live
:class:`~repro.runtime.node.PeerNode` or a simulated one — and drives the
classic SWIM cycle against its local
:class:`~repro.gossip.membership.MembershipTable`:

1. every protocol period (``interval``, jittered so a fleet of nodes
   never synchronizes), pick the next peer from a randomized round-robin
   rotation and send it a ``ping``;
2. no ack within ``ping_timeout`` → ask ``proxies`` other peers to ping
   it on our behalf (``ping-req``), which distinguishes a dead peer from
   a broken link to us;
3. still no ack within ``indirect_timeout`` → mark the peer **suspect**
   at its current incarnation and start the suspicion timer;
4. ``suspicion_timeout`` without a refutation → **dead**.

Every ping, ping-req and ack piggybacks a membership **digest** (the
freshest entries, the sender's own hosted peers always included), so
state spreads epidemically with zero dedicated traffic; and any node
that sees one of its *own live* peers gossiped as suspect or dead
refutes immediately — a fresh ``alive`` at a bumped incarnation, which
supersedes the rumor everywhere (see
:mod:`repro.gossip.membership` for the precedence rules).

The class owns no sockets and no clock: the caller injects ``clock``,
``schedule`` and ``send``, so the identical protocol code runs over the
live :class:`~repro.runtime.transport.AsyncioTransport` (frames on real
TCP links) and the deterministic simulator
(:mod:`repro.gossip.simmodel`), which is what keeps the live ≡ sim
equivalence tests meaningful for the control plane too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.gossip.membership import (
    ALIVE,
    DEAD,
    LEFT,
    SUSPECT,
    Address,
    MembershipTable,
)

#: cast frame type carried on the existing node-to-node wire protocol
GOSSIP_FRAME = "gossip"

#: gossip operations (the ``op`` field of a gossip frame)
OP_PING = "ping"
OP_PING_REQ = "ping-req"
OP_ACK = "ack"

#: event kinds surfaced through ``on_event`` (metrics / recorder taps)
EVENT_FRAME = "frame"       # a gossip frame was sent (fields: op, peer)
EVENT_SUSPECT = "suspect"   # this node started suspecting a peer
EVENT_DEAD = "dead"         # this node confirmed a peer dead
EVENT_REFUTE = "refute"     # this node refuted a rumor about a hosted peer

EventListener = Callable[..., None]


@dataclass(frozen=True)
class SwimConfig:
    """Timers and fanouts of the SWIM loop (seconds, or sim time units)."""

    #: protocol period: one ping per node per interval
    interval: float = 0.25
    #: direct ack wait before escalating to indirect probing
    ping_timeout: float = 0.2
    #: indirect (ping-req) ack wait before declaring suspicion
    indirect_timeout: float = 0.3
    #: k — how many proxies relay an indirect ping
    proxies: int = 2
    #: how long a suspect may linger unrefuted before it is declared dead
    suspicion_timeout: float = 1.5
    #: max digest rows piggybacked per frame (hosted entries always ride)
    digest_limit: int = 24
    #: fraction of ``interval`` randomized per period (desynchronization)
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.interval <= 0 or self.ping_timeout <= 0 or self.indirect_timeout <= 0:
            raise ValueError("gossip timers must be positive")
        if self.suspicion_timeout <= 0:
            raise ValueError("suspicion_timeout must be positive")
        if self.proxies < 0:
            raise ValueError("proxies must be non-negative")
        if self.digest_limit < 1:
            raise ValueError("digest_limit must be at least 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be within [0, 1)")


class SwimNode:
    """One endpoint's SWIM agent: its view, its timers, its pings.

    Parameters
    ----------
    node_id:
        Stable name of this endpoint (``node-3``, ``gateway``, …) — only
        used for labeling frames and events.
    address:
        The ``(host, port)`` acks come back to; gossiped as the address
        of every peer this node hosts.
    rng:
        A :class:`~repro.sim.rng.DeterministicRNG` substream — all
        randomness (jitter, rotation shuffle, proxy choice) flows through
        it, so a seeded run is reproducible.
    clock / schedule / send:
        The environment: ``clock()`` returns now; ``schedule(delay, cb)``
        returns a handle with ``.cancel()``; ``send(address, frame)``
        transmits one gossip cast (losses are fine — loss *is* the
        signal).
    hosted / is_up:
        ``hosted()`` yields the PeerIDs this endpoint currently hosts;
        ``is_up(peer)`` says whether a hosted peer is actually serving (a
        hard-killed peer's host keeps running — it must stop acking for
        its dead tenant).
    """

    def __init__(
        self,
        node_id: str,
        address: Address,
        table: MembershipTable,
        config: SwimConfig,
        rng: Any,
        *,
        clock: Callable[[], float],
        schedule: Callable[[float, Callable[[], None]], Any],
        send: Callable[[Address, Dict[str, Any]], None],
        hosted: Callable[[], Iterable[str]],
        is_up: Callable[[str], bool],
        on_event: Optional[EventListener] = None,
    ) -> None:
        self.node_id = node_id
        self.address = address
        self.table = table
        self.config = config
        self.rng = rng
        self._clock = clock
        self._schedule = schedule
        self._send = send
        self._hosted = hosted
        self._is_up = is_up
        self._on_event = on_event
        self._seq = itertools.count(1)
        #: in-flight probes: seq -> {"target", "timer", "stage"}
        self._pending: Dict[int, Dict[str, Any]] = {}
        #: proxy relays: our probe seq -> (origin reply addr, origin seq, target)
        self._relays: Dict[int, Tuple[Address, int, str]] = {}
        #: running suspicion timers: peer -> (incarnation, handle)
        self._suspicions: Dict[str, Tuple[int, Any]] = {}
        self._rotation: List[str] = []
        self._period_timer: Any = None
        self.running = False
        self.pings_sent = 0
        self.acks_received = 0
        self.table.on_change(self._on_table_change)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Adopt the hosted peers and schedule the first protocol period."""
        if self.running:
            return
        self.running = True
        self._ensure_local()
        # The first period is pure jitter so a fleet started in one loop
        # iteration fans out over a full interval instead of stampeding.
        self._period_timer = self._schedule(
            self.config.interval * self.rng.random(), self._period
        )

    def stop(self) -> None:
        """Cancel every timer; the view stays readable after stop."""
        self.running = False
        if self._period_timer is not None:
            self._period_timer.cancel()
            self._period_timer = None
        for info in self._pending.values():
            timer = info.get("timer")
            if timer is not None:
                timer.cancel()
        self._pending.clear()
        for _inc, handle in self._suspicions.values():
            handle.cancel()
        self._suspicions.clear()

    # -- the protocol period -------------------------------------------------

    def _period(self) -> None:
        if not self.running:
            return
        self._ensure_local()
        self._refute()
        target = self._next_target()
        if target is not None:
            self._ping(target)
        jitter = 1.0 + self.config.jitter * (self.rng.random() - 0.5)
        self._period_timer = self._schedule(self.config.interval * jitter, self._period)

    def _ensure_local(self) -> None:
        """Our own live tenants are alive, at our address, by definition."""
        for peer_id in self._hosted():
            if not self._is_up(peer_id):
                continue
            entry = self.table.get(peer_id)
            # Unknown here, or relocated onto this node (zone handoff):
            # announce it alive at our address, one incarnation above any
            # record of it, so it supersedes the stale address everywhere.
            if entry is None or (entry.address != self.address and entry.state == ALIVE):
                self.table.bump(peer_id, ALIVE, self.address)

    def _refute(self) -> None:
        """Kill rumors about our own live tenants with a bumped incarnation.

        ``left`` counts as a rumor here too: churn recycles PeerIDs (a
        zone merge can re-create an id that once departed), and the node
        now hosting the recycled id is the one entitled to revive it.
        """
        for peer_id in self._hosted():
            if not self._is_up(peer_id):
                continue
            entry = self.table.get(peer_id)
            if entry is not None and entry.state in (SUSPECT, DEAD, LEFT):
                incarnation = self.table.bump(peer_id, ALIVE, self.address)
                self._emit(EVENT_REFUTE, peer=peer_id, incarnation=incarnation)

    def _next_target(self) -> Optional[str]:
        """Randomized round-robin over the peers worth probing.

        SWIM's rotation guarantees every member is pinged within one full
        pass — an expected-time bound a pure random pick cannot give.
        Suspects stay in the rotation (a direct ack is their fastest
        acquittal path); our own tenants and the departed do not.
        """
        local = set(self._hosted())
        candidates = {
            peer_id
            for peer_id in self.table.ids_in(ALIVE, SUSPECT)
            if peer_id not in local
        }
        while self._rotation:
            target = self._rotation.pop()
            if target in candidates:
                return target
        if not candidates:
            return None
        rotation = sorted(candidates)
        self.rng.shuffle(rotation)
        self._rotation = rotation
        return self._rotation.pop()

    # -- probing -------------------------------------------------------------

    def _digest(self) -> List[List[Any]]:
        """Freshest entries up to the limit, our hosted rows always first.

        Guaranteeing the hosted rows ride every frame is what makes
        refutation outrun suspicion even under a clipped digest: the
        refuting node's next ack *must* carry its bumped incarnation.
        """
        local = set(self._hosted())
        rows = [
            self.table.entries[peer_id].to_wire()
            for peer_id in sorted(local)
            if peer_id in self.table.entries
        ]
        budget = max(self.config.digest_limit - len(rows), 0)
        for row in self.table.digest(self.config.digest_limit):
            if budget == 0:
                break
            if row[0] in local:
                continue
            rows.append(row)
            budget -= 1
        return rows

    def _frame(self, op: str, seq: int, target: str) -> Dict[str, Any]:
        return {
            "type": GOSSIP_FRAME,
            "op": op,
            "seq": seq,
            "target": target,
            "node": self.node_id,
            "reply": [self.address[0], self.address[1]],
            "digest": self._digest(),
        }

    def _send_to_peer(self, peer_id: str, frame: Dict[str, Any]) -> bool:
        address = self.table.address_of(peer_id)
        if address is None:
            return False
        self._send(address, frame)
        self._emit(EVENT_FRAME, op=frame["op"], peer=peer_id)
        return True

    def _ping(self, target: str) -> None:
        seq = next(self._seq)
        self.pings_sent += 1
        if not self._send_to_peer(target, self._frame(OP_PING, seq, target)):
            self._ping_failed(target)
            return
        self._pending[seq] = {
            "target": target,
            "stage": "direct",
            "timer": self._schedule(
                self.config.ping_timeout, lambda: self._direct_timeout(seq)
            ),
        }

    def _direct_timeout(self, seq: int) -> None:
        info = self._pending.get(seq)
        if info is None:
            return
        target = info["target"]
        local = set(self._hosted())
        proxies = [
            peer_id
            for peer_id in self.table.alive_ids()
            if peer_id != target and peer_id not in local
        ]
        k = min(self.config.proxies, len(proxies))
        if k == 0:
            self._pending.pop(seq, None)
            self._ping_failed(target)
            return
        for proxy in self.rng.sample(proxies, k):
            self._send_to_peer(proxy, self._frame(OP_PING_REQ, seq, target))
        info["stage"] = "indirect"
        info["timer"] = self._schedule(
            self.config.indirect_timeout, lambda: self._indirect_timeout(seq)
        )

    def _indirect_timeout(self, seq: int) -> None:
        info = self._pending.pop(seq, None)
        if info is not None:
            self._ping_failed(info["target"])

    def _ping_failed(self, target: str) -> None:
        entry = self.table.get(target)
        if entry is None or entry.state != ALIVE:
            return
        self.table.apply(target, SUSPECT, entry.incarnation)
        self._emit(EVENT_SUSPECT, peer=target, incarnation=entry.incarnation)

    # -- frame handling ------------------------------------------------------

    def handle_frame(self, frame: Dict[str, Any]) -> None:
        """Process one incoming gossip cast (ping / ping-req / ack)."""
        self.table.merge(frame.get("digest", ()))
        # Merging may have brought in a rumor about our own tenants: refute
        # before answering, so the very ack that proves we are reachable
        # also carries the bumped incarnation.
        self._refute()
        op = frame.get("op")
        if op == OP_PING:
            self._handle_ping(frame)
        elif op == OP_PING_REQ:
            self._handle_ping_req(frame)
        elif op == OP_ACK:
            self._handle_ack(frame)

    def _serves(self, target: str) -> bool:
        return target in set(self._hosted()) and self._is_up(target)

    def _ack_to(self, reply: Address, seq: int, target: str) -> None:
        frame = self._frame(OP_ACK, seq, target)
        self._send(reply, frame)
        self._emit(EVENT_FRAME, op=OP_ACK, peer=target)

    def _handle_ping(self, frame: Dict[str, Any]) -> None:
        target = frame["target"]
        if self._serves(target):
            self._ack_to(tuple(frame["reply"]), frame["seq"], target)
        # A ping for a peer we do not serve (dead tenant, or a stale route)
        # is answered with silence: the absence of the ack IS the protocol.

    def _handle_ping_req(self, frame: Dict[str, Any]) -> None:
        target = frame["target"]
        origin: Address = tuple(frame["reply"])
        if self._serves(target):
            self._ack_to(origin, frame["seq"], target)
            return
        # Relay: probe the target ourselves; if its ack arrives before the
        # origin's indirect timer fires, forward it under the origin's seq.
        seq = next(self._seq)
        self._relays[seq] = (origin, frame["seq"], target)
        self._schedule(
            self.config.indirect_timeout, lambda: self._relays.pop(seq, None)
        )
        self._send_to_peer(target, self._frame(OP_PING, seq, target))

    def _handle_ack(self, frame: Dict[str, Any]) -> None:
        seq = frame["seq"]
        relay = self._relays.pop(seq, None)
        if relay is not None:
            origin, origin_seq, target = relay
            self._ack_to(origin, origin_seq, target)
        info = self._pending.pop(seq, None)
        if info is None:
            return
        self.acks_received += 1
        timer = info.get("timer")
        if timer is not None:
            timer.cancel()
        # The ack alone cannot flip a suspect back to alive (same
        # incarnation would not supersede) — but its digest carried the
        # host's refutation, which the merge above already applied.

    # -- suspicion timers ----------------------------------------------------

    def _on_table_change(
        self, peer_id: str, old_state: Optional[str], new_state: str, entry: Any
    ) -> None:
        """Keep one suspicion timer per suspect, local or adopted.

        Every node runs the timer independently (for rumors merged from
        digests too), so the fleet converges on ``dead`` even when the
        original suspecting node itself dies mid-rumor.
        """
        if new_state == SUSPECT:
            if peer_id not in self._suspicions and self.running:
                handle = self._schedule(
                    self.config.suspicion_timeout,
                    lambda: self._suspicion_expired(peer_id),
                )
                self._suspicions[peer_id] = (entry.incarnation, handle)
            return
        pending = self._suspicions.pop(peer_id, None)
        if pending is not None:
            pending[1].cancel()

    def _suspicion_expired(self, peer_id: str) -> None:
        recorded = self._suspicions.pop(peer_id, None)
        entry = self.table.get(peer_id)
        if recorded is None or entry is None or entry.state != SUSPECT:
            return
        incarnation, _handle = recorded
        if entry.incarnation > incarnation:
            # Refuted at a fresher incarnation while the timer ran; the
            # refutation's alive record already cancelled the rumor.
            return
        self.table.apply(peer_id, DEAD, entry.incarnation)
        self._emit(EVENT_DEAD, peer=peer_id, incarnation=entry.incarnation)

    # -- events --------------------------------------------------------------

    def _emit(self, kind: str, **fields: Any) -> None:
        if self._on_event is not None:
            self._on_event(kind, node=self.node_id, **fields)

    def __repr__(self) -> str:
        return (
            f"SwimNode(node={self.node_id!r}, pings={self.pings_sent}, "
            f"acks={self.acks_received}, {self.table!r})"
        )
