"""First-class, seeded fault models for the discrete-event overlay.

Every model is a small configuration dataclass plus the runtime behaviour
the :class:`~repro.faults.injector.FaultInjector` drives:

* ``schedule(injector)`` — called once at install time; timed faults
  (crashes, recoveries, partitions) register plain simulator events here,
  so fault activation interleaves deterministically with query traffic;
* ``on_send(message, injector)`` — consulted for every message the overlay
  schedules; returns a :class:`~repro.sim.network.FaultDecision` (drop /
  extra delay / duplicate copies).  Message-level models draw from their
  own seeded substream, one draw per message, so a fault schedule is a
  pure function of ``(seed, message order)`` — and message order is itself
  deterministic, which makes every faulty run reproducible bit-for-bit.

Models compose: the injector consults all of them for every message (no
short-circuiting), so adding a model to a :class:`~repro.faults.plan.FaultPlan`
never shifts another model's random stream.

The catalogue:

=====================  ======================================================
:class:`CrashStop`      fail-stop node failures at a point in time
:class:`CrashRecover`   nodes fail, then return after a downtime
:class:`IidLoss`        i.i.d. Bernoulli message loss
:class:`GilbertLoss`    bursty two-state (Gilbert–Elliott) message loss
:class:`ExtraDelay`     random extra latency → reordering
:class:`Duplicate`      random message duplication
:class:`Bisection`      a network partition into two halves for a window
=====================  ======================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.sim.network import FaultDecision, Message, NO_FAULT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.sim.rng import DeterministicRNG


class FaultModel:
    """Base class: a no-op model that subclasses specialise."""

    #: short name used for substream derivation and drop-reason counters
    name: str = "fault"

    def bind(self, rng: "DeterministicRNG") -> None:
        """Receive this model's private seeded substream (install time).

        Also resets any runtime state, so a plan (pure configuration) can
        be installed on a fresh overlay without carrying fault state —
        an active partition, a Gilbert burst — over from a previous run.
        """
        self.rng = rng
        self.reset()

    def reset(self) -> None:
        """Clear runtime state accumulated by a previous installation."""

    def schedule(self, injector: "FaultInjector") -> None:
        """Register timed fault events on the injector's simulator."""

    def on_send(self, message: Message, injector: "FaultInjector") -> FaultDecision:
        """Per-message decision; the default is no fault."""
        return NO_FAULT

    def describe(self) -> str:
        """One-phrase human-readable summary (overridden per model)."""
        return self.name


def _victims(injector: "FaultInjector", rng, fraction: float, count: Optional[int]):
    """Deterministically sample crash victims from the live node set."""
    candidates = sorted(
        node_id for node_id in injector.overlay.node_ids() if not injector.is_down(node_id)
    )
    if count is None:
        count = int(len(candidates) * fraction)
    count = max(0, min(count, len(candidates)))
    return rng.sample(candidates, count) if count else []


@dataclass
class CrashStop(FaultModel):
    """Fail-stop failures: at time ``at`` a set of peers goes silent forever.

    Victims are either an explicit ``peer_ids`` list or a seeded sample of
    ``fraction`` (or ``count``) of the peers alive at ``at``.  A crashed
    peer neither receives nor relays messages — sends to it are dropped and
    in-flight messages become undeliverable — but its zone stays in the
    DHT's membership: crash-stop is a *failure*, not a graceful leave, so
    the namespace is not repaired and the peer's data is unreachable.
    """

    fraction: float = 0.0
    at: float = 0.0
    count: Optional[int] = None
    peer_ids: Optional[Sequence[str]] = None
    name: str = "crash"

    def describe(self) -> str:
        return f"crash(fraction={self.fraction}, at={self.at})"

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        if self.at < 0:
            raise ValueError("crash time must be non-negative")

    def schedule(self, injector: "FaultInjector") -> None:
        injector.at(self.at, lambda: self._crash(injector), label="fault:crash")

    def _crash(self, injector: "FaultInjector") -> None:
        victims = (
            list(self.peer_ids)
            if self.peer_ids is not None
            else _victims(injector, self.rng, self.fraction, self.count)
        )
        for node_id in victims:
            injector.crash(node_id)


@dataclass
class CrashRecover(FaultModel):
    """Crash-recover failures: peers go down at ``at`` and return after
    ``downtime``.  While down they behave exactly like crash-stopped peers.

    The crash is a *power failure*, not a pause: the victim's in-memory
    state and any unsynced log tail are lost at crash time
    (:meth:`FaultInjector.power_fail`), and recovery *replays* the peer's
    durable log (:meth:`FaultInjector.replay`).  A memory-backed peer
    therefore comes back **empty** — it must not answer queries from
    pre-crash state that was never durably stored — while a WAL-backed
    peer comes back serving exactly the writes that were synced
    (acknowledged) before the crash."""

    fraction: float = 0.0
    at: float = 0.0
    downtime: float = 10.0
    count: Optional[int] = None
    peer_ids: Optional[Sequence[str]] = None
    name: str = "crash-recover"

    def describe(self) -> str:
        return (
            f"crash-recover(fraction={self.fraction}, at={self.at}, "
            f"downtime={self.downtime})"
        )

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        if self.at < 0:
            raise ValueError("crash time must be non-negative")
        if self.downtime <= 0:
            raise ValueError("downtime must be positive")

    def schedule(self, injector: "FaultInjector") -> None:
        injector.at(self.at, lambda: self._crash(injector), label="fault:crash-recover")

    def _crash(self, injector: "FaultInjector") -> None:
        victims = (
            list(self.peer_ids)
            if self.peer_ids is not None
            else _victims(injector, self.rng, self.fraction, self.count)
        )
        for node_id in victims:
            injector.power_fail(node_id)
        injector.at(
            injector.simulator.now + self.downtime,
            lambda: [injector.replay(node_id) for node_id in victims],
            label="fault:recover",
        )


@dataclass
class IidLoss(FaultModel):
    """I.i.d. message loss: every message is dropped with ``probability``."""

    probability: float = 0.0
    name: str = "loss"

    def describe(self) -> str:
        return f"loss(p={self.probability})"

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")

    def on_send(self, message: Message, injector: "FaultInjector") -> FaultDecision:
        if self.rng.random() < self.probability:
            return FaultDecision(drop=True, reason=self.name)
        return NO_FAULT


@dataclass
class GilbertLoss(FaultModel):
    """Bursty (Gilbert–Elliott) loss: a two-state Markov chain advanced one
    step per message.  In the *good* state messages are lost with
    ``loss_good``; in the *bad* state with ``loss_bad``.  ``p_bad`` /
    ``p_good`` are the per-message transition probabilities into/out of the
    bad state, so mean burst length is ``1 / p_good`` messages."""

    p_bad: float = 0.05
    p_good: float = 0.5
    loss_good: float = 0.0
    loss_bad: float = 1.0
    name: str = "burst-loss"

    def __post_init__(self) -> None:
        for value in (self.p_bad, self.p_good, self.loss_good, self.loss_bad):
            if not 0.0 <= value <= 1.0:
                raise ValueError("all GilbertLoss parameters must be within [0, 1]")
        self._bad = False

    def reset(self) -> None:
        self._bad = False

    def describe(self) -> str:
        return f"burst-loss(p_bad={self.p_bad}, p_good={self.p_good})"

    def on_send(self, message: Message, injector: "FaultInjector") -> FaultDecision:
        if self._bad:
            if self.rng.random() < self.p_good:
                self._bad = False
        else:
            if self.rng.random() < self.p_bad:
                self._bad = True
        loss = self.loss_bad if self._bad else self.loss_good
        if loss > 0.0 and self.rng.random() < loss:
            return FaultDecision(drop=True, reason=self.name)
        return NO_FAULT


@dataclass
class ExtraDelay(FaultModel):
    """Random extra latency: with ``probability`` a message is delayed by an
    exponential draw of mean ``mean_extra`` on top of its normal latency.
    Because other messages are unaffected, delayed messages arrive *out of
    order* — this is the reorder model."""

    probability: float = 0.0
    mean_extra: float = 2.0
    name: str = "delay"

    def describe(self) -> str:
        return f"delay(p={self.probability}, mean={self.mean_extra})"

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.mean_extra <= 0:
            raise ValueError("mean_extra must be positive")

    def on_send(self, message: Message, injector: "FaultInjector") -> FaultDecision:
        if self.rng.random() < self.probability:
            return FaultDecision(extra_delay=self.rng.exponential(self.mean_extra))
        return NO_FAULT


@dataclass
class Duplicate(FaultModel):
    """Message duplication: with ``probability`` one extra copy of the
    message is delivered (one latency unit after the original).  The query
    layer deduplicates by send id, so duplicates cost bandwidth but never
    corrupt outstanding-message accounting."""

    probability: float = 0.0
    name: str = "duplicate"

    def describe(self) -> str:
        return f"duplicate(p={self.probability})"

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")

    def on_send(self, message: Message, injector: "FaultInjector") -> FaultDecision:
        if self.rng.random() < self.probability:
            return FaultDecision(copies=1)
        return NO_FAULT


@dataclass
class Bisection(FaultModel):
    """A bisection partition: at ``at`` the node set is split into two
    halves (a seeded sample of half the nodes vs the rest); messages that
    cross the cut are dropped until the partition heals at
    ``at + duration``.  Traffic within either side is unaffected."""

    at: float = 0.0
    duration: float = 10.0
    name: str = "partition"

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("partition time must be non-negative")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        self._side_a: frozenset = frozenset()
        self._active = False

    def reset(self) -> None:
        self._side_a = frozenset()
        self._active = False

    def describe(self) -> str:
        return f"partition(at={self.at}, duration={self.duration})"

    def schedule(self, injector: "FaultInjector") -> None:
        injector.at(self.at, lambda: self._split(injector), label="fault:partition")

    def _split(self, injector: "FaultInjector") -> None:
        nodes = sorted(injector.overlay.node_ids())
        self._side_a = frozenset(self.rng.sample(nodes, len(nodes) // 2))
        self._active = True
        injector.at(
            injector.simulator.now + self.duration, self._heal, label="fault:heal"
        )

    def _heal(self) -> None:
        self._active = False
        self._side_a = frozenset()

    def crosses_cut(self, message: Message) -> bool:
        """True while the partition is active and the message spans it."""
        return self._active and (
            (message.sender in self._side_a) != (message.receiver in self._side_a)
        )

    def on_send(self, message: Message, injector: "FaultInjector") -> FaultDecision:
        if self.crosses_cut(message):
            return FaultDecision(drop=True, reason=self.name)
        return NO_FAULT

