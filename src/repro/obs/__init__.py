"""``repro.obs`` — unified observability: metrics, tracing, profiling.

One pipeline for everything the efficiency claims rest on:

- :class:`MetricsRegistry` with :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` labeled series plus a stepped event log — training
  (per-epoch loss, F1, message volume, KL-trigger activity) and serving
  (latency, occupancy, hit rate) report through the same registry and dump
  to one ``metrics.jsonl``.
- :class:`Tracer` — nested spans over the hot paths (epochs, batches,
  model forward, samplers), exportable as Chrome ``trace_event`` JSON.
- :class:`OpProfiler` — op-level counts, FLOP estimates and
  forward/backward self-times hooked into the ``repro.tensor`` engine;
  near-zero overhead while disabled.
- :class:`MetricsHTTPServer` — a stdlib ``/metrics`` HTTP endpoint serving
  any Prometheus render callable (single server or merged cluster view)
  for scrape-based collection; registries also serialize
  (``to_payload``/``merge_payload``) so per-process instances aggregate
  across the cluster's shard boundary.
- :class:`DistTracer` + :class:`SLOMonitor` (``repro.obs.dist`` /
  ``repro.obs.slo``) — cross-shard distributed tracing with clock-offset
  alignment and stitched Chrome traces, request-lifecycle attribution
  (critical-path compute, serving-ladder rung counts), rolling-window SLO
  compliance with error budgets, and a bounded slow-request log.
"""

from repro.obs.dist import (
    DistTracer,
    ShardClock,
    clock_handshake,
    make_trace_ctx,
    spans_to_wire,
)
from repro.obs.exposition import PROMETHEUS_CONTENT_TYPE, MetricsHTTPServer
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    nearest_rank_percentile,
    set_registry,
)
from repro.obs.profiler import OpProfiler, OpStat
from repro.obs.slo import (
    RUNGS,
    AttributionRecord,
    SLOMonitor,
    SLOTarget,
    SlowRequestLog,
)
from repro.obs.tracing import (
    SpanRecord,
    Tracer,
    set_thread_tracer,
    set_tracer,
    span,
)

__all__ = [
    "MetricsHTTPServer",
    "PROMETHEUS_CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "nearest_rank_percentile",
    "OpProfiler",
    "OpStat",
    "SpanRecord",
    "Tracer",
    "set_tracer",
    "set_thread_tracer",
    "span",
    "DistTracer",
    "ShardClock",
    "clock_handshake",
    "make_trace_ctx",
    "spans_to_wire",
    "RUNGS",
    "AttributionRecord",
    "SLOMonitor",
    "SLOTarget",
    "SlowRequestLog",
]
