"""Nested-span tracing with Chrome ``trace_event`` export.

A :class:`Tracer` records *complete* spans (name, start, duration, nesting
depth, optional attributes).  Spans nest through a plain stack, so the
recorded parent indices reconstruct the call tree exactly; the Chrome
exporter emits ``ph: "X"`` complete events that ``chrome://tracing`` /
Perfetto render as the familiar flame chart.

The disabled path is the hot path: ``span()`` on a disabled tracer returns
one shared no-op context manager, so instrumentation left in library code
(model forward, samplers, the training loop) costs a function call and an
attribute check per entry — nothing allocates, nothing records.  The module
level :func:`span` helper routes through the process-wide tracer the same
way, which is how library code stays decoupled from whoever enabled tracing.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class SpanRecord:
    """One completed span: half-open interval ``[start, start + duration)``."""

    name: str
    start: float
    duration: float
    depth: int
    parent: int  # index into Tracer.spans, -1 for roots
    args: Optional[Dict[str, object]] = None


class _NullSpan:
    """Reusable, reentrant no-op context manager (the disabled fast path)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager recording one span into its tracer on exit."""

    __slots__ = ("_tracer", "_name", "_args", "_start", "_index")

    def __init__(self, tracer: "Tracer", name: str, args: Optional[Dict[str, object]]):
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        # Reserve the slot now so children recorded before our exit still
        # point at a stable parent index.
        self._index = len(tracer.spans)
        tracer.spans.append(
            SpanRecord(
                name=self._name,
                start=0.0,
                duration=0.0,
                depth=len(tracer._stack),
                parent=tracer._stack[-1] if tracer._stack else -1,
                args=self._args,
            )
        )
        tracer._stack.append(self._index)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        tracer = self._tracer
        record = tracer.spans[self._index]
        record.start = self._start - tracer.epoch
        record.duration = end - self._start
        tracer._stack.pop()


class Tracer:
    """Collects nested spans; disabled by default (and then near-free)."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.epoch = time.perf_counter()  # run-relative timestamps
        self.spans: List[SpanRecord] = []
        self._stack: List[int] = []

    def span(self, name: str, **args):
        """Context manager timing one nested span (no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, name, args or None)

    def enable(self) -> "Tracer":
        self.enabled = True
        return self

    def disable(self) -> "Tracer":
        self.enabled = False
        return self

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.epoch = time.perf_counter()

    # -- export ---------------------------------------------------------

    def to_chrome_trace(self) -> Dict[str, object]:
        """Chrome ``trace_event`` JSON (complete "X" events, microseconds)."""
        events = []
        for record in self.spans:
            event: Dict[str, object] = {
                "name": record.name,
                "ph": "X",
                "ts": record.start * 1e6,
                "dur": record.duration * 1e6,
                "pid": 0,
                "tid": 0,
            }
            if record.args:
                event["args"] = record.args
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> int:
        """Write a ``chrome://tracing``-loadable file; returns event count."""
        payload = self.to_chrome_trace()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return len(payload["traceEvents"])


_DEFAULT_TRACER = Tracer(enabled=False)

# Thread-local tracer override: a shard engine handling a *traced* envelope
# on a worker thread must not swap the process-wide tracer (concurrent
# shards would cross-contaminate span buffers), so library spans resolve
# the current thread's tracer first and fall back to the process-wide one.
_TLS = threading.local()


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-wide tracer; returns the previous one."""
    global _DEFAULT_TRACER
    previous = _DEFAULT_TRACER
    _DEFAULT_TRACER = tracer
    return previous


def set_thread_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install a tracer for *this thread only*; returns the previous override.

    ``None`` clears the override (library spans fall back to the process-wide
    tracer).  This is the span-capture hook of distributed tracing: one shard
    engine, one thread, one private span buffer — no matter how many shards
    share the process.
    """
    previous = getattr(_TLS, "tracer", None)
    _TLS.tracer = tracer
    return previous


def span(name: str, **args):
    """Span on the current tracer (the one-liner for library code)."""
    tracer = getattr(_TLS, "tracer", None)
    if tracer is None:
        tracer = _DEFAULT_TRACER
    if not tracer.enabled:
        return _NULL_SPAN
    return _ActiveSpan(tracer, name, args or None)
