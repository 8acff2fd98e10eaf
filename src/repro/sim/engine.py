"""A minimal deterministic discrete-event scheduler.

The scheduler keeps a binary heap of pending events ordered by
``(time, priority, sequence)``.  It is intentionally tiny: overlay
experiments in this repository schedule at most a few hundred thousand
events, so a plain ``heapq`` is more than fast enough and trivially
deterministic, which matters far more for reproducing the paper's figures
than raw speed.
"""

from __future__ import annotations

import gc
import heapq
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple


class CancellableHandle:
    """Handle returned by :meth:`Simulator.schedule_at` that allows cancellation.

    Cancellation is lazy: the event stays in the heap but is skipped when it
    reaches the front.  This keeps the scheduler O(log n) per operation.  The
    scheduler installs ``on_cancel`` so it can keep an exact count of live
    events (and compact the heap when cancellations dominate).

    A hand-rolled slotted class rather than a dataclass: one handle is
    allocated per scheduled event on the simulator's hottest path, and the
    scheduler reads ``callback`` off it directly when the event fires.
    """

    __slots__ = ("time", "callback", "priority", "label", "cancelled", "on_cancel")

    def __init__(
        self,
        time: float = 0.0,
        callback: Optional[Callable[[], None]] = None,
        priority: int = 0,
        label: str = "",
        on_cancel: Optional[Callable[[], None]] = None,
    ) -> None:
        self.time = time
        self.callback = callback
        self.priority = priority
        self.label = label
        self.cancelled = False
        self.on_cancel = on_cancel

    def cancel(self) -> None:
        """Mark the underlying event so the scheduler skips it (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.on_cancel is not None:
            self.on_cancel()

    def __repr__(self) -> str:
        return (
            f"CancellableHandle(time={self.time}, priority={self.priority}, "
            f"label={self.label!r}, cancelled={self.cancelled})"
        )


class SimulationError(RuntimeError):
    """Raised when the scheduler is used incorrectly."""


class Simulator:
    """Discrete-event scheduler with deterministic tie-breaking.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule_at(2.0, lambda: fired.append("b"))
    >>> _ = sim.schedule_at(1.0, lambda: fired.append("a"))
    >>> sim.run()
    2
    >>> fired
    ['a', 'b']
    >>> sim.now
    2.0
    """

    #: below this heap size compaction is pointless (rebuilds cost more than
    #: the skipped pops they save)
    COMPACT_MIN_SIZE = 16

    def __init__(self) -> None:
        self._now: float = 0.0
        self._sequence: int = 0
        # Payload is a CancellableHandle (schedule_at/schedule_after) or a
        # plain (callback, arg) tuple (schedule_call).
        self._heap: List[Tuple[float, int, int, Any]] = []
        self._processed: int = 0
        self._running: bool = False
        self._cancelled_pending: int = 0
        self._compactions: int = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._heap) - self._cancelled_pending

    @property
    def heap_size(self) -> int:
        """Raw heap length, cancelled entries included (for tests/diagnostics)."""
        return len(self._heap)

    @property
    def compactions(self) -> int:
        """Number of cancelled-event compaction passes performed."""
        return self._compactions

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = 0,
        label: str = "",
    ) -> CancellableHandle:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        # Inline allocation (no __init__ frame): one handle per event on the
        # hottest path in the repository.
        handle = CancellableHandle.__new__(CancellableHandle)
        handle.time = time
        handle.callback = callback
        handle.priority = priority
        handle.label = label
        handle.cancelled = False
        handle.on_cancel = self._note_cancellation
        self._sequence += 1
        heappush(self._heap, (time, priority, self._sequence, handle))
        return handle

    def schedule_call(
        self,
        time: float,
        callback: Callable[[Any], None],
        arg: Any,
        priority: int = 0,
    ) -> None:
        """Schedule ``callback(arg)`` at ``time`` — the non-cancellable fast path.

        Message deliveries (the overwhelming majority of events in every
        experiment) are never cancelled, so they skip the
        :class:`CancellableHandle` and the closure entirely: the heap entry is
        ``(time, priority, seq, (callback, arg))``.  Sequence numbers are
        unique, so the payload element is never compared by the heap.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        self._sequence += 1
        heappush(self._heap, (time, priority, self._sequence, (callback, arg)))

    def _note_cancellation(self) -> None:
        """Bookkeeping hook fired by :meth:`CancellableHandle.cancel`.

        Keeps :attr:`pending_events` exact and compacts the heap once more
        than half of its entries are cancelled tombstones, so long-running
        simulations with heavy timer churn stay O(live events) in memory.
        """
        self._cancelled_pending += 1
        if (
            len(self._heap) >= self.COMPACT_MIN_SIZE
            and self._cancelled_pending * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries (O(live) time)."""
        # Tuple payloads (schedule_call) are never cancellable; keep them all.
        self._heap = [
            entry
            for entry in self._heap
            if entry[3].__class__ is tuple or not entry[3].cancelled
        ]
        heapq.heapify(self._heap)
        self._cancelled_pending = 0
        self._compactions += 1

    def schedule_after(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
        label: str = "",
    ) -> CancellableHandle:
        """Schedule ``callback`` after a relative ``delay`` from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback, priority=priority, label=label)

    def step(self) -> bool:
        """Execute the next non-cancelled event.  Returns ``False`` if none remain."""
        while self._heap:
            time, _priority, _seq, handle = heappop(self._heap)
            if handle.__class__ is tuple:
                self._now = time
                handle[0](handle[1])
                self._processed += 1
                return True
            if handle.cancelled:
                self._cancelled_pending -= 1
                continue
            # A cancel() after the event fired must not skew the live count.
            handle.on_cancel = None
            self._now = time
            handle.callback()
            self._processed += 1
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time.
        max_events:
            Stop after executing this many events (safety valve).

        Returns
        -------
        int
            The number of events executed by this call.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        executed = 0
        # The event loop allocates heavily (messages, handles, heap tuples)
        # but creates no reference cycles of its own, so the generational GC
        # only burns time scanning survivors.  Pause it for the duration and
        # restore on the way out; anything cyclic is collected afterwards.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if until is None and max_events is None:
                # Fast path (the common drain-to-quiescence call): the step()
                # body is inlined to avoid one Python call per event.  The
                # heap attribute is re-read every iteration because callbacks
                # may trigger a compaction, which replaces the list.
                while self._heap:
                    time, _priority, _seq, handle = heappop(self._heap)
                    if handle.__class__ is tuple:
                        # schedule_call payload: (callback, arg), uncancellable.
                        self._now = time
                        handle[0](handle[1])
                        self._processed += 1
                        executed += 1
                        continue
                    if handle.cancelled:
                        self._cancelled_pending -= 1
                        continue
                    handle.on_cancel = None
                    self._now = time
                    handle.callback()
                    self._processed += 1
                    executed += 1
            else:
                while self._heap:
                    if max_events is not None and executed >= max_events:
                        break
                    if until is not None:
                        next_time = self._peek_time()
                        if next_time is None or next_time > until:
                            self._now = max(self._now, until)
                            break
                    if not self.step():
                        break
                    executed += 1
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()
        return executed

    def _peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, or ``None``."""
        while self._heap:
            time, _priority, _seq, handle = self._heap[0]
            if handle.__class__ is not tuple and handle.cancelled:
                heapq.heappop(self._heap)
                self._cancelled_pending -= 1
                continue
            return time
        return None

    def reset(self) -> None:
        """Clear all pending events and rewind the clock to zero."""
        # Sever the cancel-notification links first: cancelling a handle from
        # a previous epoch must not skew the new epoch's live-event count.
        for _time, _priority, _seq, handle in self._heap:
            if handle.__class__ is not tuple:
                handle.on_cancel = None
        self._heap.clear()
        self._now = 0.0
        self._sequence = 0
        self._processed = 0
        self._cancelled_pending = 0
