"""Shared machinery for resumable, message-driven query executors.

PIRA and MIRA are one descent of the origin's forward routing tree with two
different pruning tests.  Everything but the pruning lives here, once:
per-query state keyed by ``query_id``, per-send bookkeeping for completion
detection, the visited dedup of FRT occurrences, the destination record
(fewest hops, first-reach scan), drop accounting so churn cannot strand a
query, and the completion callback.

A query's lifecycle has one place for each rule:

* **one wire-writer** — :meth:`ResumableExecutor._transmit` counts a send,
  arms its per-hop timer and hands it to the transport; first sends,
  retries and detours all go through it;
* **one opener** — :meth:`ResumableExecutor._forward_message` opens a
  pending send — the :class:`~repro.sim.network.Message` itself, one
  object however often it is transmitted — and its ``hop`` (or
  ``detour``) span, for tree hops and sibling reroutes alike;
* **one write-off** — :meth:`ResumableExecutor._write_off` settles a lost
  send, whatever lost it: a receiver unreachable before the send, a timeout
  after the last retry, an overlay drop with no timer to wait for, or a
  delivery to a PeerID that has left the topology;
* **one teardown** — :meth:`ResumableExecutor._finish`, reached from normal
  completion and from :meth:`ResumableExecutor.cancel` (deadline expiry).

On top of the lifecycle this module implements the **resilience layer**
(see :mod:`repro.faults.resilience`).  When a
:class:`~repro.faults.resilience.ResiliencePolicy` is set on an executor:

* every forwarding message is guarded by a per-hop timer; a send that is
  neither processed nor settled within ``per_hop_timeout`` is
  retransmitted, up to ``max_retries`` times.  Drop notifications do *not*
  settle the send early — loss detection always costs a timeout, as it
  would in a deployment without the simulator's oracle;
* duplicate deliveries (duplication faults, retransmission races) are
  deduplicated by send id, so pending-send accounting never corrupts;
* when retries to a next hop are exhausted, the sender writes the hop off
  and attempts a **sibling reroute**: the dead hop's FRT subtree covers a
  nameable slice of the Kautz namespace (``descendant_prefix``), so the
  sender re-issues the query as direct *detour* messages to the live peers
  covering that slice — modelling Armada's fallback to FISSIONE
  point-to-point routing around the failure.  Each detour is charged the
  tree hops it replaces plus a penalty, in both hop count and latency;
* a hop that can be neither retried nor rerouted is recorded as a lost
  subtree in the query's :class:`~repro.faults.resilience.ResilienceStats`,
  so partial results report ``complete == False`` instead of lying.

Without a policy the behaviour is the seed behaviour: drops settle the
send immediately (and are recorded as lost subtrees), nothing is retried,
and no timers are scheduled.

A query is owned here **from start to verdict**.  Both executors take the
same call, ``start(origin, ranges, *, deadline=None, query_id=None,
on_complete=None, trace=False)``: each validates its ``ranges`` and
builds its branches, then hands to :meth:`ResumableExecutor._launch`,
which registers the state, opens the trace, fans out from the origin and —
if the query is still in flight and ``deadline`` is not ``None`` — arms the
one deadline timer a query has (``transport.schedule_after``, so it counts
simulated units on the simulator and wall-clock seconds live, and the
flight recorder sees it fire).  The timer is cancelled at completion;
on expiry :meth:`ResumableExecutor.cancel` force-completes the query with
whatever it gathered.  The drivers above (engine, session, gateway) only
say *what* the bound is.

A concrete executor supplies only its branches and its pruning:

* ``message_kind`` (the overlay message kind string);
* ``start(origin, ranges, ...)`` as above, building ``state.branches`` —
  one record per PIRA sub-region / MIRA subtree, each carrying
  ``dest_level`` and a ``visited`` dict (see :meth:`ResumableExecutor._dispatch`);
* ``_process(peer, level, hop, branch_index, state, region)`` — fan out
  from a relay occurrence above the destination level; ``region`` is the
  receiver's clipped region as the sender's pruning test left it, stored
  on the send (``None`` at the origin, and always for PIRA);
* ``_intersects(branch, label)`` — whether the namespace slice ``label``
  can hold matches of the branch (the destination test, also used to pick
  detour targets);
* ``_scan(peer, branch, state)`` — a destination's matches.

All sending, timer scheduling, clock reads and reachability checks go
through ``self.transport``, the one :class:`~repro.core.transport.Transport`
an executor is built over: the simulator's
:class:`~repro.sim.network.OverlayNetwork` itself, the live runtime's
asyncio/TCP transport, or the replayer's outbox — the handlers do not
change at all between them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.errors import QueryError
from repro.core.frt import descendant_prefix
from repro.core.transport import Transport
from repro.faults.resilience import ResiliencePolicy
from repro.sim.network import Message


@dataclass(slots=True)
class _PendingSend(Message):
    """One logical forwarding send awaiting processing (or settlement).

    It is the :class:`~repro.sim.network.Message` the transport carries,
    plus sender-side state that never crosses a socket.  Retransmissions
    re-send the same object (and send id): physical copies are
    indistinguishable on the wire and the first processed copy wins; every
    later copy finds the send already settled and is ignored.  Slotted: one
    of these is allocated per forwarding message, on the simulator's
    hottest path, and nothing else is.
    """

    attempts: int = 1
    #: per-hop timer (set only when a resilience policy is active)
    timer: Any = None
    #: True for sibling-reroute detours (recovered-destination accounting)
    detour: bool = False
    #: open tracing span for this hop (only when the query is traced)
    hop_span: Any = None
    #: the receiver's clipped region as the sender's pruning test left it
    #: (MIRA: the walk of its label; PIRA: ``None``), handed to ``_process``
    region: Any = None


@dataclass(slots=True)
class QueryState:
    """Everything one in-flight query needs to resume on any message.

    ``branches`` holds the per-branch pruning state (PIRA sub-regions, MIRA
    subtrees); subclasses may add query-specific fields.  Slotted (as are
    its subclasses): one is allocated per in-flight query, and its fields
    are read on every message of that query.
    """

    result: Any
    branches: List[Any] = field(default_factory=list)
    #: open logical sends keyed by send id (completion ⇔ ``pending`` empty)
    pending: Dict[int, _PendingSend] = field(default_factory=dict)
    #: detour targets already tried, per ``(branch_index, peer_id)``
    detoured: Set[Tuple[int, str]] = field(default_factory=set)
    done: bool = False
    #: True while a processing step runs, deferring completion checks (a
    #: synchronous drop inside :meth:`OverlayNetwork.send` must not finish
    #: the query while its origin is still fanning out)
    processing: bool = False
    on_complete: Optional[Callable[[Any], None]] = None
    #: the query's span tree (``None`` unless a tracer traced this query —
    #: the single check every tracing hook hides behind)
    trace: Any = None
    #: span id to parent new hop spans under (the hop currently processing)
    trace_parent: Any = None
    #: the armed deadline timer (``None``: unbounded, or already settled)
    deadline_timer: Any = None


class ResumableExecutor:
    """The in-flight query lifecycle, from launch to verdict."""

    #: overlay message kind, set by the concrete executor
    message_kind: str = "query"

    def __init__(self, network: Any, namer: Any, transport: Transport) -> None:
        self.network = network
        self.namer = namer
        self.transport = transport
        # Hot-path bindings: one attribute lookup less per message, and the
        # two hooks every send carries are bound once, not once per send.
        self._send = transport.send
        self._has_node = transport.has_node
        self._handler = self._dispatch
        self._drop_hook = self._on_drop
        # Bound once: the executor's network never changes, and the
        # neighbour-view lookup runs once per forwarding occurrence.
        self._out_view = network.out_neighbors_view
        self._get_peer = network.get_peer
        self._query_ids = itertools.count(1)
        self._send_ids = itertools.count(1)
        self._active: Dict[int, QueryState] = {}
        self.resilience: Optional[ResiliencePolicy] = None
        self.tracer: Any = None
        self._trace_all = False
        self.refresh_membership()

    # ------------------------------------------------------------------ #
    # launch                                                               #
    # ------------------------------------------------------------------ #

    def execute(self, origin_peer_id: str, ranges: Sequence[Tuple[float, float]]) -> Any:
        """Run the query ``ranges`` from ``origin_peer_id`` to completion
        (the synchronous single-query wrapper: start, then drain the transport)."""
        run = getattr(self.transport, "run", None)
        if run is None:
            raise QueryError(
                "synchronous execute() needs the simulator transport; "
                "live transports drive queries via start()/on_complete"
            )
        result = self.start(origin_peer_id, ranges)
        run()
        return result

    def _claim_query_id(self, origin_peer_id: str, query_id: Optional[int]) -> int:
        """Check the origin and allocate (or accept the caller's) query id."""
        if not self.network.has_peer(origin_peer_id):
            raise QueryError(f"unknown origin peer {origin_peer_id!r}")
        if query_id is None:
            query_id = next(self._query_ids)
        if query_id in self._active:
            raise QueryError(f"query id {query_id} is already in flight")
        return query_id

    def _launch(
        self,
        state: QueryState,
        deadline: Optional[float],
        on_complete: Optional[Callable[[Any], None]],
        trace: bool,
        **trace_attributes: Any,
    ) -> Any:
        """Register ``state``, fan out from the origin, bound what remains.

        Returns the result object, which fills in as deliveries resume the
        query; once the last pending message is processed the query is
        deregistered and ``on_complete`` fires.  A query answered (or pruned)
        at its origin completes here, synchronously, and never gets a timer.
        Otherwise ``deadline`` (transport clock units; ``None`` = unbounded)
        arms the query's one deadline timer — after the fan-out, so on the
        simulator it takes the scheduler sequence number right behind the
        origin's sends.
        """
        state.on_complete = on_complete
        result = state.result
        self._active[result.query_id] = state
        if self.tracer is not None:
            self._begin_trace(state, trace, **trace_attributes)
        origin = self.network.peer(result.origin)
        state.processing = True
        try:
            # Level 0 is the origin's alone — every send goes one level
            # deeper — so no occurrence there can repeat: no visited check.
            for index, branch in enumerate(state.branches):
                if branch.dest_level > 0:
                    self._process(origin, 0, 0, index, state)
                elif self._intersects(branch, origin.peer_id):
                    self._reach(origin, 0, branch, state)
        finally:
            state.processing = False
        self._maybe_complete(state)
        if deadline is not None and not state.done:
            # The id is bound now: a cancelled timer must not pin the result.
            state.deadline_timer = self.transport.schedule_after(
                deadline,
                lambda query_id=result.query_id: self.cancel(query_id),
                label="query-deadline",
            )
        return result

    # ------------------------------------------------------------------ #
    # resilience configuration                                             #
    # ------------------------------------------------------------------ #

    def set_resilience(self, policy: Optional[ResiliencePolicy]) -> None:
        """Set (or clear) the timeout/retry/reroute policy for new sends."""
        self.resilience = policy

    # ------------------------------------------------------------------ #
    # tracing                                                              #
    # ------------------------------------------------------------------ #

    def set_tracer(self, tracer: Any, all_queries: bool = False) -> None:
        """Attach (or detach) a :class:`repro.obs.spans.Tracer`.

        With ``all_queries`` every query started on this executor is
        traced; otherwise only queries whose ``start(...)`` passed
        ``trace=True`` get a span tree.  A ``None`` tracer restores the
        zero-overhead path (``state.trace`` stays ``None`` and every
        hook short-circuits on one attribute check).
        """
        self.tracer = tracer
        self._trace_all = bool(all_queries and tracer is not None)

    def _begin_trace(self, state: QueryState, trace: bool, **attributes: Any) -> None:
        """Open the query's root span (called from :meth:`_launch`)."""
        tracer = self.tracer
        if tracer is None or not (trace or self._trace_all):
            return
        result = state.result
        trace_id = f"{self.message_kind}-{result.query_id}"
        state.trace = tracer.begin_query(
            self.message_kind,
            self.transport.now,
            trace_id=trace_id,
            query_id=result.query_id,
            origin=result.origin,
            **attributes,
        )
        state.trace_parent = state.trace.root.span_id

    # ------------------------------------------------------------------ #
    # message handling                                                     #
    # ------------------------------------------------------------------ #

    def handle_message(self, network: Any, message: Message) -> None:
        """Resume the in-flight query ``message.query_id`` at the receiver.

        This is the per-message entry point: it looks up the query state by
        id, so a single executor can have any number of queries in flight at
        once.  Late deliveries for finished/unknown queries — and duplicate
        copies of a send that already settled — are ignored.
        """
        self._dispatch(None, network, message)

    def _dispatch(self, peer: Any, network: Any, message: Message) -> None:
        """Per-message worker, every send's ``handler`` hook.

        Carries the full dispatch body (rather than delegating to
        :meth:`handle_message`) because the overlay invokes it once per
        delivered message; ``peer`` is ignored — receiver liveness is always
        re-checked against the peer table, which is what churn updates.

        The forward routing tree is a tree of *occurrences*: one peer can
        occur at several levels (whenever a suffix of the origin's PeerID is
        a prefix of a longer one), and each occurrence forwards with its own
        level arithmetic, so a branch's dedup is per occurrence: deduped per
        peer, a peer that first relays the query at a shallow level would
        never be recognised as a destination when the query reaches it
        again.  Levels are bounded by the PeerID length, so
        ``branch.visited`` maps a peer to a level *bitmask* (bit ``i`` set =
        occurrence at level ``i`` seen) — one dict probe on a cached string
        hash per arrival.
        """
        state = self._active.get(message.query_id)
        if state is None:
            return
        send_id = message.send
        pending = state.pending.pop(send_id, None)
        if pending is None:
            # A duplicate (duplication fault or retransmission race) of a
            # send that was already processed or settled.
            return
        receiver = message.receiver
        peer = self._get_peer(receiver)
        if peer is None:
            # The PeerID left the topology while this copy was in flight (a
            # join split renamed it, or it departed before the overlay was
            # refreshed): nobody searches the subtree behind it.
            self._write_off(state, send_id, pending, "unreachable")
            return
        if pending.timer is not None:
            pending.timer.cancel()
        if pending.hop_span is not None:
            self.tracer.end_span(pending.hop_span, self.transport.now)
            # Sends fanned out while processing this hop parent under it.
            state.trace_parent = pending.span
        level = message.level
        branch_index = message.branch
        branch = state.branches[branch_index]
        visited = branch.visited
        bit = 1 << level
        mask = visited.get(receiver, 0)
        if not mask & bit:
            visited[receiver] = mask | bit
            state.processing = True
            try:
                if level < branch.dest_level:
                    self._process(peer, level, message.hop, branch_index, state, pending.region)
                elif self._reach(peer, message.hop, branch, state) and pending.detour:
                    state.result.resilience.recovered_destinations += 1
            finally:
                state.processing = False
        # Inlined guard of _maybe_complete: on the common path (query still
        # has sends in flight) the call is skipped entirely.
        if not (state.done or state.pending):
            self._maybe_complete(state)

    def _process(
        self, peer: Any, level: int, hop: int, branch_index: int, state: QueryState, region: Any
    ) -> None:
        """Fan out from ``peer``, a relay occurrence at ``level`` < the
        branch's destination level, to the neighbours the pruning test keeps
        (``region``: the send's region, ``None`` at the origin)."""
        raise NotImplementedError

    def _intersects(self, branch: Any, label: str) -> bool:
        """True when the namespace slice ``label`` can hold matches of ``branch``."""
        raise NotImplementedError

    def _scan(self, peer: Any, branch: Any, state: QueryState) -> List[Any]:
        """The matches destination ``peer`` holds for ``branch``."""
        raise NotImplementedError

    def _reach(self, peer: Any, hop: int, branch: Any, state: QueryState) -> bool:
        """A destination-level occurrence of ``peer``: record its fewest hops
        and, the first time it is reached, take its matches.

        The destination test (:meth:`_intersects`) is applied where a send
        is decided, not on arrival: a tree hop's last pruning test is that
        test on the same PeerID, detour targets are filtered by it, and
        :meth:`_launch` applies it to the origin.  Returns True when this
        arrival reached ``peer`` for the first time.
        """
        peer_id = peer.peer_id
        result = state.result
        previous = result.destinations.get(peer_id)
        if previous is not None:
            if hop < previous:
                result.destinations[peer_id] = hop
            return False
        result.destinations[peer_id] = hop
        result.matches.extend(self._scan(peer, branch, state))
        return True

    def _on_drop(self, message: Message) -> None:
        """Account for a forwarding message that will never be delivered."""
        state = self._active.get(message.query_id)
        if state is None:
            return
        send_id = message.send
        pending = state.pending.get(send_id)
        if pending is None:
            return  # a copy of a send that already settled
        state.result.resilience.drops += 1
        if self.resilience is None or pending.timer is None:
            self._write_off(state, send_id, pending, "dropped")
        elif pending.hop_span is not None:
            # Timeout-based detection: the send stays open and its timer
            # will fire, retry, and eventually fail it.  Real systems learn
            # about loss by waiting, not from the simulator's oracle.
            self.tracer.event(state.trace, "drop", self.transport.now, parent_id=pending.span)

    def _on_timeout(self, state: QueryState, send_id: int) -> None:
        """A per-hop timer fired before the send was acknowledged: retry
        while the policy allows and the receiver is still in the overlay,
        else write the hop off."""
        pending = state.pending.get(send_id)
        if pending is None:
            return
        policy = self.resilience
        stats = state.result.resilience
        stats.timeouts += 1
        if (
            policy is not None
            and pending.attempts < policy.attempts_per_hop
            and self._has_node(pending.receiver)
        ):
            pending.attempts += 1
            stats.retries += 1
            if pending.hop_span is not None:
                self.tracer.event(
                    state.trace,
                    "retry",
                    self.transport.now,
                    parent_id=pending.span,
                    attempt=pending.attempts,
                )
            self._transmit(state, send_id, pending)
        else:
            self._write_off(state, send_id, pending, "timeout")

    def _write_off(
        self, state: QueryState, send_id: int, pending: _PendingSend, status: str
    ) -> None:
        """Settle a lost send: close its span with ``status`` (``unreachable``
        / ``timeout`` / ``dropped``), mark a failed detour as tried, then route
        around the dead hop or count its subtree lost.

        A ``dropped`` send is never rerouted: the overlay reported the loss
        of a send no timer guards, and rerouting follows only the
        timeout-based detection the policy models.  No charge to ``drops``
        here — the overlay-reported losses are counted by :meth:`_on_drop`.
        """
        state.pending.pop(send_id, None)
        if pending.timer is not None:
            pending.timer.cancel()
        if pending.hop_span is not None:
            self.tracer.end_span(pending.hop_span, self.transport.now, status=status)
        if pending.detour:
            state.detoured.add((pending.branch, pending.receiver))
        policy = self.resilience
        if (
            status == "dropped"
            or policy is None
            or not policy.reroute
            or not self._reroute(state, pending)
        ):
            state.result.resilience.subtrees_lost += 1
        if not state.processing:
            self._maybe_complete(state)

    def _maybe_complete(self, state: QueryState) -> None:
        """Finish the query once no forwarding messages remain in flight."""
        if state.done or state.processing or state.pending:
            return
        self._finish(state)

    def cancel(self, query_id: int) -> bool:
        """Force-complete an in-flight query as *failed* (deadline expiry).

        What the deadline timer runs; also callable directly.  Cancels every
        timer of the query, marks the result's resilience ledger
        ``deadline_expired`` and fires ``on_complete`` with whatever partial
        results were gathered.  Returns False for unknown/finished queries.
        """
        state = self._active.get(query_id)
        if state is None:
            return False
        for pending in state.pending.values():
            if pending.timer is not None:
                pending.timer.cancel()
        state.pending.clear()
        state.result.resilience.deadline_expired = True
        self._finish(state)
        return True

    def _finish(self, state: QueryState) -> None:
        """The one teardown: deregister the query, cancel its deadline,
        archive its trace, fire ``on_complete``."""
        state.done = True
        self._active.pop(state.result.query_id, None)
        if state.deadline_timer is not None:
            state.deadline_timer.cancel()
        if state.trace is not None:
            # Archive the trace before on_complete fires so a completion
            # callback (the gateway) can collect it from the tracer.
            self.tracer.finish_query(state.trace, self.transport.now, status=state.result.status)
        if state.on_complete is not None:
            state.on_complete(state.result)

    @property
    def active_queries(self) -> int:
        """Number of started queries that have not yet completed."""
        return len(self._active)

    def is_active(self, query_id: int) -> bool:
        """True while ``query_id`` is in flight on this executor."""
        return query_id in self._active

    def pending_sends(self, query_id: int) -> List[Tuple[int, str, str, int]]:
        """The open logical sends of an in-flight query, for diagnostics.

        Returns ``(send_id, sender, receiver, hop)`` per pending send,
        in send-id order — what the flight-recorder replay reports when a
        query is still waiting on deliveries at its recorded completion.
        Empty for unknown/finished queries.
        """
        state = self._active.get(query_id)
        if state is None:
            return []
        return [
            (send_id, pending.sender, pending.receiver, pending.hop)
            for send_id, pending in sorted(state.pending.items())
        ]

    # ------------------------------------------------------------------ #
    # membership & forwarding                                              #
    # ------------------------------------------------------------------ #

    def refresh_membership(self) -> None:
        """Synchronise the overlay's node registry with the current peers.

        Must be called after churn: new peers become reachable and departed
        peers are unregistered (their in-flight messages are then counted
        undeliverable and drop-accounted, so no query ever hangs and the
        overlay does not leak node registrations under sustained churn).
        """
        current = set(self.network.peer_ids())
        for node_id in self.transport.node_ids():
            if node_id not in current:
                self.transport.unregister(node_id)
        for peer in self.network.peers():
            self.transport.register(peer)

    def _forward_message(
        self,
        sender_id: str,
        receiver_id: str,
        level: int,
        hop: int,
        branch_index: int,
        state: QueryState,
        region: Any = None,
        around: Optional[_PendingSend] = None,
    ) -> None:
        """Open one forwarding send and its span, then transmit it.

        A tree hop by default; with ``around`` (the failed send it replaces)
        a sibling-reroute detour, whose latency is the tree hops it replaces
        plus the penalty — its hop count minus the failed send's.  ``region``
        rides the send to the receiver's ``_process``; it never crosses a
        socket.  This runs once per edge of every forward routing tree —
        the hottest call in the repository — so the slotted record (the
        message itself) is allocated without its ``__init__`` frame.
        """
        send_id = next(self._send_ids)
        pending = _PendingSend.__new__(_PendingSend)
        pending.sender = sender_id
        pending.receiver = receiver_id
        pending.kind = self.message_kind
        pending.hop = hop
        pending.query_id = state.result.query_id
        pending.level = level
        pending.branch = branch_index
        pending.send = send_id
        pending.latency = None if around is None else float(max(1, hop - around.hop))
        pending.trace = pending.span = pending.hop_span = pending.timer = None
        pending.handler = self._handler
        pending.on_drop = self._drop_hook
        pending.attempts = 1
        pending.detour = around is not None
        pending.region = region
        state.pending[send_id] = pending
        if state.trace is not None:
            if around is None:
                kind, parent_id, place = "hop", state.trace_parent, {"level": level}
            else:
                kind, parent_id, place = "detour", around.span, {"around": around.receiver}
            pending.hop_span = self.tracer.start_span(
                state.trace,
                f"{kind} {sender_id}->{receiver_id}",
                self.transport.now,
                parent_id=parent_id,
                sender=sender_id,
                receiver=receiver_id,
                **place,
                hop=hop,
                branch=branch_index,
            )
            pending.trace = state.trace.trace_id
            pending.span = pending.hop_span.span_id
        self._transmit(state, send_id, pending)

    def _transmit(self, state: QueryState, send_id: int, pending: _PendingSend) -> None:
        """Put one physical copy of a logical send on the wire.

        A receiver that left the overlay before the send (abrupt churn)
        degrades into a write-off instead of crashing the whole simulation
        on ``NetworkError``.  With a policy the per-hop timer is armed
        before the send, so on the simulator it precedes the delivery in
        scheduler order.
        """
        receiver = pending.receiver
        if not self._has_node(receiver):
            self._write_off(state, send_id, pending, "unreachable")
            return
        result = state.result
        result.messages += 1
        result.forwarding_steps.append((pending.sender, receiver, pending.hop))
        policy = self.resilience
        if policy is not None:
            # A detour models a multi-hop route and carries a latency > 1;
            # its timer budgets for whatever the extra hops cost on this
            # transport, or it would "time out" while legitimately in flight.
            extra_hops = 0.0 if pending.latency is None else pending.latency - 1.0
            pending.timer = self.transport.schedule_after(
                policy.per_hop_timeout + extra_hops * self.transport.detour_hop_transit,
                lambda: self._on_timeout(state, send_id),
                label="hop-timeout",
            )
        self._send(pending)

    # ------------------------------------------------------------------ #
    # sibling rerouting                                                    #
    # ------------------------------------------------------------------ #

    def _reroute(self, state: QueryState, pending: _PendingSend) -> int:
        """Route around a dead next hop; returns the number of detours sent.

        The dead receiver's FRT subtree covers the namespace slice
        ``descendant_prefix(receiver, level, dest_level)`` — a *nameable*
        region, so the sender can fall back to FISSIONE point-to-point
        routing and contact the covering peers directly: every live peer
        compatible with the slice that passes the branch's destination test
        (:meth:`_intersects`), in PeerID order.  The detour is modelled as
        one overlay message per target, charged the tree hops it replaces
        plus ``detour_hop_penalty`` in both hop count and delivery latency.
        A target that fails as well is never re-detoured (``state.detoured``),
        so recovery always terminates.
        """
        branch_index = pending.branch
        branch = state.branches[branch_index]
        dest_level = branch.dest_level
        prefix = descendant_prefix(pending.receiver, pending.level, dest_level)
        if not prefix:
            return 0  # the subtree covers the whole namespace: not nameable
        hop = pending.hop + (dest_level - pending.level) + self.resilience.detour_hop_penalty
        sent = 0
        for target in self.network.compatible_peers(prefix):
            if (
                target == pending.receiver
                or (branch_index, target) in state.detoured
                or not self._has_node(target)
                or not self._intersects(branch, target)
            ):
                continue
            state.result.resilience.reroutes += 1
            self._forward_message(
                pending.sender, target, dest_level, hop, branch_index, state, around=pending
            )
            sent += 1
        return sent
