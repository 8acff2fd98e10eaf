"""Benchmark-side tracing: spans around each layer's entry points.

The wrappers are installed *from here*, around synchronous functions of
the program under test; nothing inside ``src/`` changes.  Function
targets are re-bound in every ``repro`` module that imported them
(``from x import f`` copies the binding), method targets are patched on
their class — so install before the system is booted, because
connections capture some of these callables when they are created.

A span stack gives each layer its **self time**: a span's duration minus
the part its child spans cover.  Time no span covers — the event loop,
selectors, stream readers, the load generator's own coroutines — is the
``loop`` layer, so the layers sum to the round's wall time exactly.
"""

from __future__ import annotations

import asyncio
import importlib
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = (
    "session",
    "gateway",
    "codec",
    "transport",
    "cluster",
    "executor",
    "naming",
    "fissione",
    "storage",
    "sim",
)

#: (layer, module, dotted attribute): one span per frame, message or
#: request, never per value.  ``wire.encode_value|decode_value`` and
#: ``StoredObject.to_wire`` run once or more per matching object
#: (~2 600 spans per ``live-wide`` op, a traced run 40 % slower than an
#: untraced one), so they are left unwrapped and their time is booked to the
#: frame-level codec span that calls them.  ``ResumableExecutor._dispatch``
#: is the handler the overlay and the cluster both deliver messages to
#: (``handle_message`` only forwards to it); ``RangeQueryResult.to_wire``
#: is the gateway's reply serialisation, which runs inside an executor
#: completion callback and would otherwise be booked to ``executor``.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("session", "repro.api.live", "_V2Connection.post"),
    ("session", "repro.api.requests", "reply_from_payload"),
    ("gateway", "repro.runtime.gateway", "Gateway._start_request"),
    ("gateway", "repro.runtime.gateway", "Gateway._start_query"),
    ("gateway", "repro.runtime.gateway", "Gateway._write_frame"),
    ("codec", "repro.runtime.protocol", "encode_frame"),
    ("codec", "repro.runtime.protocol", "decode_frame"),
    ("codec", "repro.runtime.protocol", "message_to_wire"),
    ("codec", "repro.runtime.protocol", "wire_to_message"),
    ("codec", "repro.core.pira", "RangeQueryResult.to_wire"),
    ("codec", "repro.core.pira", "RangeQueryResult.from_wire"),
    ("transport", "repro.runtime.transport", "AsyncioTransport.send"),
    ("transport", "asyncio.streams", "StreamWriter.write"),
    ("cluster", "repro.runtime.cluster", "LiveCluster._dispatch_cast"),
    ("cluster", "repro.runtime.cluster", "LiveCluster._handle_store"),
    ("executor", "repro.core.resumable", "ResumableExecutor._dispatch"),
    ("executor", "repro.core.pira", "PiraExecutor.start"),
    ("executor", "repro.core.mira", "MiraExecutor.start"),
    ("naming", "repro.core.single_hash", "SingleAttributeNamer.name"),
    ("naming", "repro.core.single_hash", "SingleAttributeNamer.region_for_range"),
    ("naming", "repro.core.multiple_hash", "MultiAttributeNamer.name"),
    ("naming", "repro.core.multiple_hash", "MultiAttributeNamer.containing_label"),
    ("fissione", "repro.fissione.network", "FissioneNetwork.owner_id"),
    ("fissione", "repro.fissione.network", "FissioneNetwork.out_neighbors_view"),
    ("fissione", "repro.fissione.network", "FissioneNetwork.build"),
    ("storage", "repro.storage.base", "Store.put"),
    ("sim", "repro.sim.engine", "Simulator.run"),
    ("sim", "repro.sim.network", "OverlayNetwork.send"),
)

#: frames kept for the binary-vs-json codec comparison
FRAME_SAMPLE = 2000


class SpanStack:
    """The self-time arithmetic, separate from the clock and the patching
    so it can be checked on a hand-built trace."""

    def __init__(self) -> None:
        #: open spans: [child_seconds, span_index]
        self.open: List[list] = []
        self.totals = LayerTotals()
        #: the span log: name id, start, duration, parent index (-1 = root)
        self.names: List[str] = []
        self.name_ids = array("H")
        self.starts = array("d")
        self.durations = array("d")
        self.parents = array("l")
        self._ids: Dict[str, int] = {}
        #: spans are logged only while this is True (aggregates always are)
        self.keep_spans = False

    def enter(self, name: str, start: float) -> list:
        index = -1
        if self.keep_spans:
            name_id = self._ids.get(name)
            if name_id is None:
                name_id = self._ids[name] = len(self.names)
                self.names.append(name)
            index = len(self.name_ids)
            self.name_ids.append(name_id)
            self.starts.append(start)
            self.durations.append(0.0)
            self.parents.append(self.open[-1][1] if self.open else -1)
        frame = [0.0, index]
        self.open.append(frame)
        return frame

    def exit(self, frame: list, layer: str, duration: float) -> None:
        open_spans = self.open
        open_spans.pop()
        totals = self.totals
        if open_spans:
            open_spans[-1][0] += duration
        else:
            totals.root_s += duration
        entry = totals.layers.get(layer)
        if entry is None:
            entry = totals.layers[layer] = [0.0, 0]
        entry[0] += duration - frame[0]
        entry[1] += 1
        if frame[1] >= 0:
            self.durations[frame[1]] = duration

    def take(self) -> "LayerTotals":
        """Return and reset the aggregates (the span log is kept)."""
        taken, self.totals = self.totals, LayerTotals()
        return taken

    def span_log(self) -> Dict[str, Any]:
        """The kept spans in columnar form (times in µs from the first)."""
        origin = self.starts[0] if self.starts else 0.0
        return {
            "names": self.names,
            "name": list(self.name_ids),
            "start_us": [round((start - origin) * 1e6, 1) for start in self.starts],
            "dur_us": [round(duration * 1e6, 1) for duration in self.durations],
            "parent": list(self.parents),
        }


class LayerTotals:
    """Aggregates of the spans closed since the last :meth:`SpanStack.take`."""

    def __init__(self) -> None:
        #: layer -> [self seconds, spans]
        self.layers: Dict[str, list] = {}
        #: seconds covered by spans with no parent (what ``loop`` is *not*)
        self.root_s = 0.0

    def self_s(self, layer: str) -> float:
        return self.layers.get(layer, (0.0, 0))[0]

    def calls(self, layer: str) -> int:
        return self.layers.get(layer, (0.0, 0))[1]

    @property
    def spans(self) -> int:
        return sum(entry[1] for entry in self.layers.values())


class Tracer:
    """Installs the wrappers and owns the counters they feed."""

    def __init__(self) -> None:
        self.stack = SpanStack()
        self.enabled = False
        self.counters: Counter = Counter()
        self.frames: List[Dict[str, Any]] = []
        self._undo: List[Callable[[], None]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        tracer = self
        stack = self.stack
        clock = time.perf_counter
        hook = self._hook_for(name)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            start = clock()
            frame = stack.enter(name, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.exit(frame, layer, clock() - start)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _hook_for(self, name: str) -> Optional[Callable[[tuple, Any], None]]:
        counters = self.counters
        if name == "StreamWriter.write":

            def count_write(args: tuple, result: Any) -> None:
                counters["writes"] += 1
                counters["bytes"] += len(args[1])

            return count_write
        if name == "encode_frame":
            frames = self.frames

            def count_frame(args: tuple, result: bytes) -> None:
                counters["frames"] += 1
                counters["frame_bytes"] += len(result)
                if len(frames) < FRAME_SAMPLE:
                    frames.append(args[0])

            return count_frame
        if name == "Gateway._write_frame":

            def count_gateway_frame(args: tuple, result: Any) -> None:
                counters["gateway_frames"] += 1

            return count_gateway_frame
        return None

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        for layer, module_name, dotted in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = dotted.rpartition(".")
            if owner_name:
                self._patch_method(getattr(module, owner_name), attr, layer, dotted)
            else:
                self._patch_function(getattr(module, attr), layer, attr)

    def _patch_method(self, cls: type, attr: str, layer: str, name: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self._wrap(raw.__func__, layer, name))
        else:
            replacement = self._wrap(raw, layer, name)
        setattr(cls, attr, replacement)
        self._undo.append(lambda: setattr(cls, attr, raw))

    def _patch_function(self, fn: Callable, layer: str, name: str) -> None:
        wrapper = self._wrap(fn, layer, name)
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("repro"):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is fn:
                    namespace[key] = wrapper
                    self._undo.append(
                        lambda namespace=namespace, key=key: namespace.__setitem__(key, fn)
                    )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def take_counters(self) -> Counter:
        taken = Counter(self.counters)
        self.counters.clear()
        return taken


async def heartbeat(
    lags_s: List[float], now: Callable[[], float], interval: float = 0.005
) -> None:
    """Benchmark-side event-loop lag probe: how late each wake-up ran.

    ``now`` is the meter's program clock, so a reference reading taken
    while the probe slept does not count as lag.
    """
    while True:
        due = now() + interval
        await asyncio.sleep(interval)
        lags_s.append(max(now() - due, 0.0))
