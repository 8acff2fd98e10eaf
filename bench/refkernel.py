"""The reference kernel and the speed-correction maths built on it.

The benchmark runs on a small shared VM whose *machine speed* drifts by
tens of percent inside a single run.  Every timed region is therefore
bracketed by a frozen reference kernel — a fixed amount of pure-Python
dict/attribute/call work plus a ``json`` round trip of a fixed blob, the
same kind of work the program under test does — and every timing is
reported in **speed-corrected time**::

    corrected = wall * REF_NOMINAL_MS / ref_measured_ms

so work measured while the machine ran at half speed (reference kernel
takes twice as long) is scaled back to what it would have taken at
nominal speed.  The readings are interleaved with the work itself, in
rounds and set-ups alike (:class:`Meter`).  The kernel must never change:
changing it moves every corrected number of every later run.
"""

from __future__ import annotations

import bisect
import json
import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Sequence

#: the kernel's nominal duration; corrected time is wall time on a machine
#: where one kernel takes exactly this long
REF_NOMINAL_MS = 25.0

_LOOPS = 18
_INNER = 2000
_JSON_TRIPS = 12

_BLOB = {
    "type": "reply",
    "rid": 12345,
    "payload": {
        "ok": True,
        "status": "ok",
        "latency": 0.00123,
        "result": {
            "origin": "0120",
            "query_id": 77,
            "destinations": {"0120%d" % i: i % 7 for i in range(8)},
            "messages": 9,
            "matches": [
                {"object_id": "0121020121012" * 2 + str(i), "key": i * 1.37, "value": i * 1.37}
                for i in range(40)
            ],
            "forwarding_steps": [["0120", "1201", i] for i in range(9)],
        },
    },
}


class _Cell:
    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0


def _bump(cell: _Cell, table: dict, key: int, amount: float) -> int:
    cell.count += 1
    cell.total += amount
    table[key] = table.get(key, 0) + 1
    return cell.count


def kernel() -> int:
    """One frozen unit of interpreter + ``json`` work (~25 ms nominal)."""
    cell = _Cell()
    table: dict = {}
    for _ in range(_LOOPS):
        for index in range(_INNER):
            _bump(cell, table, index & 63, 0.5)
        text = json.dumps(_BLOB, separators=(",", ":"))
        for _ in range(_JSON_TRIPS):
            json.loads(text)
            json.dumps(_BLOB, separators=(",", ":"))
    return cell.count


def speed_factor(before_ms: float, after_ms: float) -> float:
    """Multiplier turning wall time into corrected time for a region
    bracketed by the two readings (their mean is the region's speed)."""
    return REF_NOMINAL_MS / ((before_ms + after_ms) / 2.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must be within (0, 100]")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def median(values: Sequence[float]) -> float:
    """Middle value (mean of the two middle values for an even count)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class Meter:
    """Interleaves reference readings with the program's work on one
    thread, and keeps a **program clock** that stands still while the
    kernel runs.

    The machine's speed moves faster than a round lasts, so readings
    only at a round's borders predict the speed inside it poorly (sizing:
    round-to-round spread 6.9 % with border readings, 3.5 % with a reading
    every few hundred ms).  Between :meth:`start` and :meth:`stop` the
    caller therefore calls :meth:`read` where it can pause — the load loop
    whenever :attr:`next_due` has passed, the set-up at fixed points: one
    kernel run, during which the event loop — and so every request in
    flight — simply waits.  Timing everything on :meth:`now` makes those
    pauses invisible to throughput and latency alike.
    """

    #: program seconds between readings inside a region
    SLICE_S = 0.15

    def __init__(self) -> None:
        self._paused_s = 0.0
        #: program-clock instant and duration (ms) of every reading
        self.marks_s: List[float] = []
        self.kernel_ms: List[float] = []
        self.next_due = math.inf

    def now(self) -> float:
        """Seconds of program time (wall time minus time spent in readings)."""
        return time.perf_counter() - self._paused_s

    def read(self) -> None:
        """Take one reading now; the program clock does not advance."""
        started = time.perf_counter()
        kernel()
        duration = time.perf_counter() - started
        at = started - self._paused_s
        self._paused_s += duration
        self.marks_s.append(at)
        self.kernel_ms.append(duration * 1000.0)
        self.next_due = at + self.SLICE_S

    def start(self) -> int:
        """Open a timed region with a reading; pass the result to :meth:`stop`."""
        first = len(self.marks_s)
        self.read()
        return first

    def stop(self, first: int, ops: int = 1) -> "Round":
        """Close the region opened by :meth:`start` with a last reading."""
        self.read()
        self.next_due = math.inf
        return Round(ops=ops, marks_s=self.marks_s[first:], kernel_ms=self.kernel_ms[first:])


@dataclass
class Round:
    """One timed round: a fixed op count cut into slices by readings.

    ``marks_s[0]`` / ``marks_s[-1]`` are the round's start and end on the
    program clock; reading ``i`` lasted ``kernel_ms[i]``.  Slice ``i`` (from
    mark ``i`` to mark ``i + 1``) ran at the mean speed of the two readings
    around it.
    """

    ops: int
    marks_s: List[float]
    kernel_ms: List[float]
    #: per-request latency and completion instant, program-clock seconds
    latencies_s: List[float] = field(default_factory=list)
    ends_s: List[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.marks_s[-1] - self.marks_s[0]

    @cached_property
    def factors(self) -> List[float]:
        """Speed factor of each slice."""
        readings = self.kernel_ms
        return [
            speed_factor(readings[index], readings[index + 1])
            for index in range(len(readings) - 1)
        ]

    @property
    def corrected_s(self) -> float:
        marks = self.marks_s
        return sum(
            (marks[index + 1] - marks[index]) * factor
            for index, factor in enumerate(self.factors)
        )

    @property
    def factor(self) -> float:
        """The round's overall factor: corrected ÷ wall time."""
        return self.corrected_s / self.wall_s

    @property
    def ops_per_s(self) -> float:
        """Ops per speed-corrected second."""
        return self.ops / self.corrected_s

    @property
    def raw_ops_per_s(self) -> float:
        return self.ops / self.wall_s

    def corrected_latencies_ms(self) -> List[float]:
        """Each latency scaled by the factor of the slice it completed in."""
        factors = self.factors
        last = len(factors) - 1
        inner_marks = self.marks_s[1:-1]
        return [
            latency * 1000.0 * factors[min(bisect.bisect_right(inner_marks, end), last)]
            for latency, end in zip(self.latencies_s, self.ends_s)
        ]


def ops_per_s(rounds: Sequence[Round]) -> float:
    """Median over rounds of ops per speed-corrected second."""
    return median([entry.ops_per_s for entry in rounds])


def pooled_latencies_ms(rounds: Sequence[Round], corrected: bool = True) -> List[float]:
    """Every request latency of every round, in ms, each sample corrected
    *before* pooling — a slow slice must not populate the tail just
    because the machine was slow."""
    pooled: List[float] = []
    for entry in rounds:
        if corrected:
            pooled.extend(entry.corrected_latencies_ms())
        else:
            pooled.extend(sample * 1000.0 for sample in entry.latencies_s)
    return pooled


def machine_metrics(rounds: Sequence[Round]) -> dict:
    """The uncorrected view of the same rounds (``machine.*`` metrics)."""
    readings_ms = [value for entry in rounds for value in entry.kernel_ms]
    return {
        "machine.raw_ops_per_s": median([entry.raw_ops_per_s for entry in rounds]),
        "machine.ref_kernel_ms": median(readings_ms),
        "machine.speed_spread": (max(readings_ms) - min(readings_ms)) / median(readings_ms),
        "machine.lat_p99_raw_ms": percentile(pooled_latencies_ms(rounds, corrected=False), 99),
    }
