"""Deterministic load generation.

A synthetic trace models the serving workload the paper motivates WIDEN
with: target nodes follow a Zipf popularity law — a few hot nodes
dominate, a long tail trickles — which is precisely the regime where an
LRU embedding cache pays off.  The draws come from one seeded generator,
so a trace is exactly reproducible.  ``python -m repro serve-cluster``
sends one as ``group``-node ops through the router, twice (cold cache,
then warm).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.utils.rng import SeedLike, new_rng


def make_trace(
    nodes: Sequence[int],
    num_requests: int,
    *,
    zipf_exponent: float = 1.1,
    rng: SeedLike = None,
) -> np.ndarray:
    """Deterministic Zipf request trace over a node pool: the ``(N,)``
    int64 node ids, in request order.

    ``zipf_exponent`` shapes the popularity skew (higher = hotter head).
    Ranks are assigned over the pool in the order given, so the caller
    controls which nodes are hot.
    """
    pool = np.asarray(nodes, dtype=np.int64)
    if pool.size == 0:
        raise ValueError("node pool is empty")
    if num_requests < 1:
        raise ValueError(f"num_requests must be >= 1, got {num_requests}")
    rng = new_rng(rng)
    weights = 1.0 / np.arange(1, pool.size + 1, dtype=np.float64) ** zipf_exponent
    weights /= weights.sum()
    return pool[rng.choice(pool.size, size=num_requests, p=weights)]


def series_totals(registry: MetricsRegistry) -> Dict[str, float]:
    """The cumulative series of a serving registry (one a
    :class:`~repro.serve.telemetry.Telemetry` writes), read now: drained
    chunks and the requests in them, compute batches and the embeddings
    they computed, and store lookups by outcome."""
    totals = {}
    for key, name in (
        ("batches", "serve_batch_size"),
        ("compute_batches", "serve_compute_batch_size"),
    ):
        series = registry.histogram(name)
        totals[key], totals[key + "_sum"] = series.count, series.sum
    for outcome in ("hit", "stale", "absent"):
        totals[f"store_{outcome}"] = registry.counter(
            "serve_store_requests_total", outcome=outcome
        ).value
    return totals
