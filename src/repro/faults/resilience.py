"""Resilience policy and per-query failure accounting.

The query layer survives an unreliable overlay with three mechanisms, all
configured through :class:`ResiliencePolicy`:

* **per-hop timeouts with bounded retries** — every forwarding message is
  guarded by a timer; a message that is neither processed nor explicitly
  declared lost within ``per_hop_timeout`` (transport clock units:
  simulated units on the simulator, seconds live) is retransmitted, up to
  ``max_retries`` times.  Drop *notifications* (the simulator's way of
  modelling loss) do not short-circuit the timer: detection always costs a
  timeout, exactly as it would in a deployment without an oracle;
* **sibling rerouting** — once retries to a next hop are exhausted the
  sender writes the hop off as dead and re-issues the query for that hop's
  forward-routing-tree subtree as direct detour messages to the live peers
  covering the subtree's namespace (see
  :meth:`repro.core.resumable.ResumableExecutor._reroute`);
* **query deadlines** — a query started with ``deadline=`` gets one
  deadline timer, armed by the executor itself
  (:meth:`repro.core.resumable.ResumableExecutor._launch`); a query that
  outlives it is force-completed as *failed* instead of leaking.  The
  layers above (:class:`repro.engine.QueryEngine`, the sessions, the
  gateway) only say what the bound is.

:class:`ResilienceStats` is the per-query ledger of everything the policy
did (and everything the network did to the query); it travels on
:class:`repro.core.pira.RangeQueryResult` so partial results are visible
instead of silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass(frozen=True)
class ResiliencePolicy:
    """How hard the query layer fights the network.

    Attributes
    ----------
    per_hop_timeout:
        Time, in the transport's clock units (simulated units on the
        simulator, seconds live), a forwarding message may stay
        unacknowledged before it is considered lost.  Must exceed the
        per-hop delivery latency (1.0 simulated unit under the paper's hop
        metric) or healthy messages time out.
    max_retries:
        Retransmissions attempted per hop after the initial send.
    reroute:
        When retries are exhausted, attempt the sibling/detour reroute for
        the dead hop's subtree instead of writing it off immediately.
    detour_hop_penalty:
        Extra hops a detour message is charged on top of the tree hops it
        replaces (the cost of routing around the dead relay).
    """

    per_hop_timeout: float = 4.0
    max_retries: int = 2
    reroute: bool = True
    detour_hop_penalty: int = 1

    def __post_init__(self) -> None:
        if self.per_hop_timeout <= 0:
            raise ValueError("per_hop_timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.detour_hop_penalty < 0:
            raise ValueError("detour_hop_penalty must be non-negative")

    @property
    def attempts_per_hop(self) -> int:
        """Total transmissions allowed per hop (initial send + retries)."""
        return 1 + self.max_retries


@dataclass
class ResilienceStats:
    """Per-query failure/recovery ledger.

    All counters are cumulative over the query's lifetime; ``as_dict``
    returns plain ints so the ledger lands in JSON unmangled.
    """

    #: forwarding messages the overlay reported as lost (drop/undeliverable)
    drops: int = 0
    #: per-hop timers that fired before the hop was acknowledged
    timeouts: int = 0
    #: retransmissions sent (bounded by ``max_retries`` per hop)
    retries: int = 0
    #: detour messages sent around dead next hops
    reroutes: int = 0
    #: FRT subtrees written off after retries and reroute both failed
    subtrees_lost: int = 0
    #: destinations reached through a detour rather than the tree
    recovered_destinations: int = 0
    #: the engine's deadline force-completed this query
    deadline_expired: bool = False

    @property
    def clean(self) -> bool:
        """True when the query saw no loss, recovery, or deadline event."""
        return (
            self.drops == 0
            and self.timeouts == 0
            and self.retries == 0
            and self.reroutes == 0
            and self.subtrees_lost == 0
            and not self.deadline_expired
        )

    def as_dict(self) -> Dict[str, int]:
        """Flat integer summary (``deadline_expired`` as 0/1)."""
        return {
            "drops": self.drops,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "reroutes": self.reroutes,
            "subtrees_lost": self.subtrees_lost,
            "recovered_destinations": self.recovered_destinations,
            "deadline_expired": int(self.deadline_expired),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "ResilienceStats":
        """Inverse of :meth:`as_dict` (missing counters default to zero).

        ``deadline_expired`` is restored to a real bool, so
        ``from_dict(stats.as_dict()) == stats`` holds for every ledger —
        the identity the wire protocol's round-trip test pins down.
        """
        return cls(
            drops=int(data.get("drops", 0)),
            timeouts=int(data.get("timeouts", 0)),
            retries=int(data.get("retries", 0)),
            reroutes=int(data.get("reroutes", 0)),
            subtrees_lost=int(data.get("subtrees_lost", 0)),
            recovered_destinations=int(data.get("recovered_destinations", 0)),
            deadline_expired=bool(data.get("deadline_expired", 0)),
        )

    def merge(self, other: "ResilienceStats") -> None:
        """Fold another ledger into this one (for aggregate reports)."""
        self.drops += other.drops
        self.timeouts += other.timeouts
        self.retries += other.retries
        self.reroutes += other.reroutes
        self.subtrees_lost += other.subtrees_lost
        self.recovered_destinations += other.recovered_destinations
        self.deadline_expired = self.deadline_expired or other.deadline_expired


def default_deadline(policy: Optional[ResiliencePolicy], log_n: float) -> float:
    """A deadline generous enough for a healthy query, tight enough to bound
    a doomed one: the paper's ``2 log N + 1`` delay bound plus the full
    retry budget of two dead hops."""
    if policy is None:
        return 4.0 * log_n + 8.0
    retry_budget = 2.0 * policy.attempts_per_hop * policy.per_hop_timeout
    return max(2.0 * log_n + 1.0, 4.0) + retry_budget
