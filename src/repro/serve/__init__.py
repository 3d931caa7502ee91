"""``repro.serve`` — the inductive inference serving layer.

Turns a trained WIDEN classifier into a long-lived service, the production
half of the paper's "heterogeneity + inductiveness + efficiency" claim.
It serves a ``WidenClassifier`` in ``"project"`` embedding mode and
refuses anything else (:func:`repro.core.serving_refusal`).


- :class:`ModelRegistry` — named, self-describing checkpoints (parameters
  + hyperparameters + dataset schema) restored without a training graph;
- :class:`MicroBatcher` — request-id coalescing under size/deadline
  triggers;
- :class:`EmbeddingCache` — LRU memoization whose entries record the
  *read set* of their sample, so a streaming mutation drops exactly the
  embeddings that read a changed adjacency list and nothing stale is
  ever served;
- :class:`InferenceServer` — ties the above over one serving graph, with
  streaming ingestion (``add_nodes``/``add_edges``) wired to the graph's
  mutation hooks;
- :class:`Telemetry` — the table of requests in flight (a request is a
  row until its answer is picked up; a :class:`ServeResult` is built from
  it) and the registry series it feeds;
- :mod:`~repro.serve.loadgen` — deterministic Poisson/Zipf traces, the
  replay harness behind ``python -m repro serve-bench`` and its pass
  report: latency percentiles, queue depth, batch occupancy, cache
  hit-rate, read off the pass's own answers.
"""

from repro.serve.batcher import MicroBatcher
from repro.serve.cache import EmbeddingCache
from repro.serve.loadgen import (
    TraceEvent,
    cold_single_requests,
    format_report,
    make_trace,
    replay,
)
from repro.serve.registry import ModelRegistry
from repro.serve.server import InferenceServer, ServeResult
from repro.serve.telemetry import RUNGS, Telemetry

__all__ = [
    "MicroBatcher",
    "EmbeddingCache",
    "ModelRegistry",
    "InferenceServer",
    "ServeResult",
    "Telemetry",
    "RUNGS",
    "TraceEvent",
    "make_trace",
    "replay",
    "cold_single_requests",
    "format_report",
]
