"""``repro.serve`` — the inductive inference serving layer.

Turns a trained WIDEN classifier into a long-lived service, the production
half of the paper's "heterogeneity + inductiveness + efficiency" claim.
It serves a ``WidenClassifier`` in ``"project"`` embedding mode and
refuses anything else (:func:`repro.core.serving_refusal`).

- :class:`ModelRegistry` — named, self-describing checkpoints (parameters
  + hyperparameters + dataset schema) restored without a training graph;
- :class:`EmbeddingCache` — LRU memoization whose entries record the
  *read set* of their sample, so a streaming mutation drops exactly the
  embeddings that read a changed adjacency list and nothing stale is
  ever served;
- :class:`InferenceServer` — ties the above over one serving graph: an op
  of nodes is answered now, from the cache or in ``max_batch_size``
  chunks of misses, with streaming ingestion (``add_nodes``/``add_edges``)
  wired to the graph's mutation hooks;
- :class:`Telemetry` — the table of requests in flight (a request is a
  row until its op's reply is read off it) and the registry series it
  feeds;
- :func:`make_trace` — deterministic Zipf request traces, which
  ``python -m repro serve-cluster`` sends through the router (one shard is
  one server) as ``group``-node ops.
"""

from repro.serve.cache import EmbeddingCache
from repro.serve.loadgen import make_trace
from repro.serve.registry import ModelRegistry
from repro.serve.server import InferenceServer
from repro.serve.telemetry import RUNGS, Telemetry

__all__ = [
    "EmbeddingCache",
    "ModelRegistry",
    "InferenceServer",
    "Telemetry",
    "RUNGS",
    "make_trace",
]
