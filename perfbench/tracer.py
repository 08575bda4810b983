"""Host-time spans around the engine's public layer boundaries.

The benchmark attributes host time to layers from outside the program:
:class:`Tracer` replaces a method on one *instance* (never on a class) by a
wrapper that records a span — layer name, start, end, parent span — and
keeps per-layer totals.  A layer's self time is its span's duration minus
the time its child spans cover, so self times plus interpreter GC pauses
(recorded as spans through ``gc.callbacks``) add up to the traced host
time, up to what no span covers (``unattributed``).

Spans stay in memory and are written once, at the end, as Chrome
trace-event JSON (the format :mod:`repro.trace` exports, so both open in
the same viewer).  Timestamps are ``time.perf_counter_ns()``, which on
Linux reads the same monotonic clock as ``time.monotonic_ns()`` in every
process — the live launcher relies on that to cut the load window.
"""

from __future__ import annotations

import gc
import json
import time
from array import array
from typing import Any, Callable, Dict, List, Optional

GC_LAYER = "gc"

# One span = six int64 slots: layer index, start ns, end ns, self ns, span
# id (in start order) and parent span id (-1 at top level).
_SLOTS = 6

# Spans written to the Chrome trace; a viewer stays responsive below this.
EXPORT_LIMIT = 200_000


class Tracer:
    """Records nested spans from instance-level method wrappers."""

    def __init__(self):
        self.layers: List[str] = []
        self._index: Dict[str, int] = {}
        self.spans = array("q")
        # Open spans: [start_ns, child_ns, span_id].
        self._stack: List[list] = []
        self._next_id = 0
        self.tallies: Dict[str, int] = {}
        self._gc_installed = False
        self._restore: List[Callable[[], None]] = []

    # -- instrumentation ---------------------------------------------------

    def layer_index(self, layer: str) -> int:
        index = self._index.get(layer)
        if index is None:
            index = self._index[layer] = len(self.layers)
            self.layers.append(layer)
        return index

    def wrap(
        self,
        obj: Any,
        attr: str,
        layer: str,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Time every call of ``obj.attr`` as a span of ``layer``.

        The wrapper is an instance attribute shadowing the class method,
        so other instances and the class itself are untouched; ``on_result``
        sees each return value (e.g. to count empty batch plans).
        """
        fn = getattr(obj, attr)
        index = self.layer_index(layer)
        begin, end = self._begin, self._end

        def wrapper(*args, **kwargs):
            frame = begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                end(frame, index)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        setattr(obj, attr, wrapper)
        self._restore.append(lambda: delattr(obj, attr))

    def tally(self, key: str) -> None:
        self.tallies[key] = self.tallies.get(key, 0) + 1

    def install_gc(self) -> None:
        """Record every collection as a ``gc`` span (a child of whatever
        span was open when the collector ran)."""
        if not self._gc_installed:
            gc.callbacks.append(self._on_gc)
            self._gc_installed = True
            self._gc_frames: List[list] = []
            self._gc_index = self.layer_index(GC_LAYER)

    def uninstall(self) -> None:
        """Remove every wrapper and the GC callback."""
        for restore in reversed(self._restore):
            restore()
        self._restore.clear()
        if self._gc_installed:
            gc.callbacks.remove(self._on_gc)
            self._gc_installed = False

    # -- span bookkeeping --------------------------------------------------

    def _begin(self) -> list:
        # Allocate before reading the clock: a collection triggered by the
        # allocation then lands before this span starts, not inside it.
        frame = [0, 0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        frame[0] = time.perf_counter_ns()
        return frame

    def _end(self, frame: list, index: int) -> None:
        stop = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        duration = stop - frame[0]
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][2]
        else:
            parent = -1
        self.spans.extend(
            (index, frame[0], stop, duration - frame[1], frame[2], parent)
        )

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_frames.append(self._begin())
            if info.get("generation") == 2:
                self.tally("gc.gen2_collections")
        elif self._gc_frames:
            self._end(self._gc_frames.pop(), self._gc_index)

    # -- results -----------------------------------------------------------

    def totals(
        self, since_ns: Optional[int] = None, until_ns: Optional[int] = None
    ) -> Dict[str, Dict[str, int]]:
        """Per-layer ``calls`` and ``self_ns`` over spans that lie wholly
        inside ``[since_ns, until_ns]`` (every span when both are None)."""
        out = {layer: {"calls": 0, "self_ns": 0} for layer in self.layers}
        spans = self.spans
        windowed = since_ns is not None or until_ns is not None
        lo = since_ns if since_ns is not None else -(2**62)
        hi = until_ns if until_ns is not None else 2**62
        for slot in range(0, len(spans), _SLOTS):
            if windowed and not (lo <= spans[slot + 1] and spans[slot + 2] <= hi):
                continue
            entry = out[self.layers[spans[slot]]]
            entry["calls"] += 1
            entry["self_ns"] += spans[slot + 3]
        return out

    def span_count(self) -> int:
        return len(self.spans) // _SLOTS

    def export_chrome(self, path: str, label: str) -> int:
        """Write the first ``EXPORT_LIMIT`` spans to finish as Chrome trace-event
        JSON (totals always cover every span); returns the number of span
        events written."""
        spans = self.spans[: EXPORT_LIMIT * _SLOTS]
        origin = min(spans[1::_SLOTS], default=0)
        dropped = self.span_count() - len(spans) // _SLOTS
        events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": f"host: {label}"
                      + (f" (first {EXPORT_LIMIT} spans; {dropped} more not written)"
                         if dropped else "")}},
        ]
        for slot in range(0, len(spans), _SLOTS):
            start, stop = spans[slot + 1], spans[slot + 2]
            events.append({
                "name": self.layers[spans[slot]],
                "cat": "host",
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (stop - start) / 1e3,
                "pid": 0,
                "tid": 0,
                "args": {
                    "span": spans[slot + 4],
                    "parent": spans[slot + 5],
                    "self_us": spans[slot + 3] / 1e3,
                },
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return len(events) - 1
