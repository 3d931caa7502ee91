"""Distributed tracing across the cluster's shard boundary (``repro.obs.dist``).

A single-process :class:`~repro.obs.tracing.Tracer` dies at the
``Envelope``/``Reply`` wire: a scatter-gather request over the ``socket``
transport is a black box between router send and reply gather.  This module
closes that gap with three small pieces, none of which touch the disabled
hot path:

- **Trace context** — :func:`make_trace_ctx` builds the plain dict that
  rides ``Envelope.trace_ctx`` (trace id, parent span id, router send
  timestamp).  ``None`` means "not traced" and costs the engine exactly one
  attribute check.
- **Clock alignment** — :func:`clock_handshake` estimates each shard's
  ``perf_counter`` offset against the router's clock with an NTP-style
  probe (the sample with the smallest round trip bounds the error by its
  RTT).  ``perf_counter`` epochs are per-process, so this is what makes an
  ``socket`` shard's timestamps commensurable with the router's.
- **Stitching** — :class:`DistTracer` owns the router-side span buffer,
  collects per-shard span buffers piggybacked on replies, and merges
  everything into one Chrome ``trace_event`` file: the router on its own
  ``pid``/``tid`` lane, each shard on its worker's real ``pid`` (distinct
  process lanes in Perfetto for ``socket``; distinct thread lanes for
  ``inline``), with a synthetic ``queue+wire`` event bridging
  the router's send timestamp to the shard's first span so queue wait is
  visible as a block, not an inference.

Span buffers cross the wire as plain dicts with *absolute* shard-clock
timestamps (:func:`spans_to_wire`); the stitcher maps them onto the router
timeline with the handshake offset.  Everything here is data — no live
tracers, no callables — so it works identically over every transport.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.obs.tracing import SpanRecord, Tracer

__all__ = [
    "ShardClock",
    "DistTracer",
    "clock_handshake",
    "make_trace_ctx",
    "spans_to_wire",
]


def make_trace_ctx(trace_id: str, parent: Optional[str] = None) -> Dict[str, object]:
    """The wire form of one request's trace context.

    A plain dict on purpose: it rides ``Envelope.trace_ctx`` through the
    wire codec unchanged, and unknown keys added by future versions are ignored rather
    than fatal.  ``send_ts`` is the *router's* ``perf_counter`` at send
    time — the anchor the stitcher bridges to the shard's first span.
    """
    return {
        "trace_id": str(trace_id),
        "parent": parent,
        "send_ts": time.perf_counter(),
    }


def spans_to_wire(tracer: Tracer) -> List[Dict[str, object]]:
    """Serialize a tracer's spans with absolute (process-clock) starts.

    The tracer records run-relative starts; the wire form re-anchors them to
    the process's raw ``perf_counter`` timeline so the receiving side needs
    only a clock offset — not this tracer's epoch — to place them.
    """
    return [
        {
            "name": record.name,
            "start": tracer.epoch + record.start,
            "duration": record.duration,
            "depth": record.depth,
            "parent": record.parent,
            "args": record.args,
        }
        for record in tracer.spans
    ]


@dataclass
class ShardClock:
    """One shard's clock relationship to the router.

    ``offset`` is ``shard_perf_counter - router_perf_counter`` estimated at
    the midpoint of the best (lowest-RTT) probe; mapping a shard timestamp
    onto the router timeline is ``t_shard - offset``.  ``rtt`` bounds the
    estimation error: the true offset lies within ±rtt/2 of the estimate.
    """

    shard_id: int
    offset: float
    rtt: float
    pid: int


def clock_handshake(
    probe: Callable[[], Dict[str, object]],
    *,
    shard_id: int = 0,
    samples: int = 5,
) -> ShardClock:
    """Estimate one shard's clock offset from repeated round-trip probes.

    ``probe()`` must round-trip one ``clock`` envelope and return the
    engine's reply payload (``{"mono": perf_counter, "pid": ...}``).  Each
    sample brackets the engine's clock read between two router clock reads;
    the sample with the smallest round trip gives the tightest bound, so
    that one wins (the NTP convention).  Five samples over an in-host pipe
    put the error well under the microsecond scale of the spans being
    aligned.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    best: Optional[ShardClock] = None
    for _ in range(samples):
        t0 = time.perf_counter()
        payload = probe()
        t1 = time.perf_counter()
        rtt = t1 - t0
        offset = float(payload["mono"]) - (t0 + t1) / 2.0
        if best is None or rtt < best.rtt:
            best = ShardClock(
                shard_id=shard_id,
                offset=offset,
                rtt=rtt,
                pid=int(payload.get("pid", 0)),
            )
    return best


class DistTracer:
    """Router-side collector and stitcher for one distributed trace run.

    Owns three things: an always-enabled local :class:`Tracer` for the
    router's own spans (scatter, per-shard gather), the per-shard
    :class:`ShardClock` table from the alignment handshake, and the shard
    span buffers collected off replies.  :meth:`to_chrome_trace` merges the
    three into one ``trace_event`` payload on the router's timeline.
    """

    def __init__(self) -> None:
        self.tracer = Tracer(enabled=True)
        self.shard_clocks: Dict[int, ShardClock] = {}
        self.shard_spans: Dict[int, List[Dict[str, object]]] = {}
        self.shard_pids: Dict[int, int] = {}
        self._next_trace = 0

    # -- recording ------------------------------------------------------

    def new_trace_id(self) -> str:
        self._next_trace += 1
        return f"t{self._next_trace:06d}"

    def register_clock(self, clock: ShardClock) -> None:
        self.shard_clocks[clock.shard_id] = clock
        self.shard_pids[clock.shard_id] = clock.pid

    def add_reply_trace(self, payload: Optional[Dict[str, object]]) -> None:
        """Fold one reply's piggybacked span buffer into the collection.

        Tolerates ``None`` (an untraced reply) so gather loops can call it
        unconditionally, and records the shard's pid from the payload — the
        authoritative source for ``socket`` workers, where the handshake may
        not have run yet.
        """
        if payload is None:
            return
        shard = int(payload.get("shard", -1))
        self.shard_spans.setdefault(shard, []).extend(payload.get("spans", []))
        if "pid" in payload:
            self.shard_pids[shard] = int(payload["pid"])

    # -- stitching ------------------------------------------------------

    def _shard_offset(self, shard: int) -> float:
        clock = self.shard_clocks.get(shard)
        return clock.offset if clock is not None else 0.0

    def to_chrome_trace(self) -> Dict[str, object]:
        """One merged Chrome ``trace_event`` payload, router timeline.

        Lanes: the router's spans under its own pid / tid 0, each shard's
        spans under the worker's pid with ``tid = shard_id + 1`` (so
        in-process transports, where every shard shares the router's pid,
        still get distinct lanes).  ``process_name`` / ``thread_name``
        metadata events label the lanes; a synthetic ``queue+wire`` event
        fills the gap between the router's recorded send timestamp and the
        shard's root span.
        """
        router_pid = os.getpid()
        epoch = self.tracer.epoch
        events: List[Dict[str, object]] = []

        def meta(name: str, pid: int, tid: int, value: str) -> Dict[str, object]:
            return {
                "name": name,
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": value},
            }

        events.append(meta("process_name", router_pid, 0, "router"))
        events.append(meta("thread_name", router_pid, 0, "router"))
        for record in self.tracer.spans:
            event: Dict[str, object] = {
                "name": record.name,
                "ph": "X",
                "ts": record.start * 1e6,
                "dur": record.duration * 1e6,
                "pid": router_pid,
                "tid": 0,
            }
            if record.args:
                event["args"] = dict(record.args)
            events.append(event)

        for shard in sorted(self.shard_spans):
            pid = self.shard_pids.get(shard, router_pid)
            tid = shard + 1
            label = f"shard {shard}"
            if pid != router_pid:
                events.append(meta("process_name", pid, tid, f"{label} worker"))
            events.append(meta("thread_name", pid, tid, label))
            offset = self._shard_offset(shard)
            for wire in self.shard_spans[shard]:
                start = float(wire["start"]) - offset - epoch
                event = {
                    "name": wire["name"],
                    "ph": "X",
                    "ts": start * 1e6,
                    "dur": float(wire["duration"]) * 1e6,
                    "pid": pid,
                    "tid": tid,
                }
                args = wire.get("args")
                if args:
                    event["args"] = dict(args)
                    # Root spans echo the router's send timestamp; bridge
                    # the send → handle gap as a visible queue+wire block.
                    send_ts = args.get("send_ts")
                    if send_ts is not None and wire.get("depth", 0) == 0:
                        wait = start - (float(send_ts) - epoch)
                        if wait > 0:
                            events.append(
                                {
                                    "name": "queue+wire",
                                    "ph": "X",
                                    "ts": (float(send_ts) - epoch) * 1e6,
                                    "dur": wait * 1e6,
                                    "pid": pid,
                                    "tid": tid,
                                    "args": {
                                        "trace_id": args.get("trace_id")
                                    },
                                }
                            )
                events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> int:
        """Write the stitched trace; returns the event count."""
        payload = self.to_chrome_trace()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return len(payload["traceEvents"])


def _wire_to_records(spans: List[Dict[str, object]]) -> List[SpanRecord]:
    """Parse wire spans back into :class:`SpanRecord` (tests, analysis)."""
    return [
        SpanRecord(
            name=wire["name"],
            start=float(wire["start"]),
            duration=float(wire["duration"]),
            depth=int(wire.get("depth", 0)),
            parent=int(wire.get("parent", -1)),
            args=wire.get("args"),
        )
        for wire in spans
    ]
