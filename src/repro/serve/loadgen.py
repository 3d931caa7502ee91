"""Deterministic load generation and the single-server pass.

A synthetic trace models the serving workload the paper motivates WIDEN
with: target nodes follow a Zipf popularity law — a few hot nodes
dominate, a long tail trickles — which is precisely the regime where an
LRU embedding cache pays off.  The draws come from one seeded generator,
so a trace is exactly reproducible.

:func:`replay` drives one server the way ``serve-cluster`` drives a fleet:
the trace is cut into ``group``-node ops, each sent through
:meth:`~repro.serve.server.InferenceServer.replay` and timed on the wall
clock.  The pass is reported from what it produced (:func:`pass_report`):
op latency percentiles, throughput, cache hit rate and rung mix off the
op replies, batch and store figures as differences of the server
registry's cumulative series across the pass.  :func:`cold_single_requests`
runs the same trace one node at a time down the uncached inductive path —
the baseline the serve benchmark compares against — and reduces its
latencies the same way; :func:`format_report` prints either report.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.graph import HeteroGraph
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.slo import RUNGS
from repro.serve.server import InferenceServer
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


def replay(
    server: InferenceServer, nodes: Sequence[int], group: int
) -> Dict[str, float]:
    """Send ``nodes`` through ``server`` as ``group``-node ``classify``
    ops, back to back; returns the pass report.

    Every answer is picked up, so the server's request table is empty
    afterwards.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    registry = server.telemetry.registry
    before = series_totals(registry)
    replies, latencies = [], []
    for start in range(0, nodes.size, group):
        begin = time.perf_counter()
        replies.append(server.replay(nodes[start:start + group]))
        latencies.append(time.perf_counter() - begin)
    stats = pass_report(
        replies, latencies, before, series_totals(registry), server.max_batch_size
    )
    node_hits = server.cache.node_hit_histogram()
    stats["cache_nodes_with_hits"] = node_hits.count
    stats["cache_node_hits_mean"] = node_hits.mean
    stats["cache_node_hits_p50"] = node_hits.percentile(50)
    stats["cache_node_hits_p95"] = node_hits.percentile(95)
    stats["cache_node_hits_max"] = node_hits.max
    return stats


def series_totals(registry: MetricsRegistry) -> Dict[str, float]:
    """The cumulative series of a serving registry (one a
    :class:`~repro.serve.telemetry.Telemetry` writes) that a pass report
    differences, read now: drained chunks and the requests in them,
    compute batches and the embeddings they computed, and store lookups by
    outcome."""
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


def pass_report(
    replies: Sequence[Dict[str, object]],
    latencies: Sequence[float],
    before: Dict[str, float],
    after: Dict[str, float],
    max_batch_size: int,
) -> Dict[str, float]:
    """The report of one pass: ``replies`` are its ops' replies
    (:meth:`~repro.serve.server.InferenceServer.replay`), ``latencies``
    their wall times in seconds, and ``before`` / ``after`` are
    :func:`series_totals` of the server's registry around it (nothing else
    may serve from that registry in between).  ``max_batch_size`` is the
    server's, for occupancy."""
    delta = {key: after[key] - before[key] for key in after}
    rungs = np.zeros(len(RUNGS), dtype=np.int64)
    for reply in replies:
        rungs += np.bincount(reply["rungs"], minlength=len(RUNGS))
    count = int(rungs.sum())
    busy = sum(latencies)
    stats = {
        "requests": count,
        "ops": len(replies),
        # Ops run back to back, so throughput is nodes over summed op time.
        "throughput_rps": (
            count / busy if busy > 0 else float("inf") if count else 0.0
        ),
        **_latency_stats(latencies),
        "batches": delta["batches"],
        # Mean chunk fill fraction relative to the configured maximum.
        "batch_occupancy": _ratio(
            delta["batches_sum"], delta["batches"] * max_batch_size
        ),
        "cache_hit_rate": _ratio(float(rungs[RUNGS.index("cache")]), count),
        "compute_batches": delta["compute_batches"],
        "compute_batch_mean": _ratio(
            delta["compute_batches_sum"], delta["compute_batches"]
        ),
    }
    if replies:
        stats["queue_wait_mean_s"] = float(
            np.mean([reply["queue_wait"] for reply in replies])
        )
        stats["compute_mean_s"] = float(
            np.mean([reply["compute"] for reply in replies])
        )
        for rung, served in zip(RUNGS, rungs.tolist()):
            stats[f"rung_{rung}"] = float(served)
    looked_up = delta["store_hit"] + delta["store_stale"] + delta["store_absent"]
    if looked_up:
        stats["store_hits"] = delta["store_hit"]
        stats["store_stale"] = delta["store_stale"]
        stats["store_absent"] = delta["store_absent"]
        stats["store_hit_rate"] = delta["store_hit"] / looked_up
    return stats


def _latency_stats(latencies: Sequence[float]) -> Dict[str, float]:
    """Count, mean, min, max and nearest-rank p50/p95/p99 of ``latencies``
    (seconds), by the shared :class:`~repro.obs.Histogram`: one percentile
    implementation for training and serving."""
    histogram = Histogram("serve_latency_seconds")
    histogram.observe_many(latencies)
    return {
        "latency_count": histogram.count,
        "latency_mean_s": histogram.mean,
        "latency_min_s": histogram.min,
        "latency_max_s": histogram.max,
        "latency_p50_s": histogram.percentile(50),
        "latency_p95_s": histogram.percentile(95),
        "latency_p99_s": histogram.percentile(99),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def cold_single_requests(
    classifier,
    graph: HeteroGraph,
    nodes: Sequence[int],
    *,
    seed: int = 0,
) -> Dict[str, float]:
    """One-at-a-time, uncached inference over the same trace.

    Each request is an op of one node that pays the full cold path — fresh
    neighborhood sampling plus a single-node forward pass — exactly what a
    server miss costs, with the same per-node deterministic seeding, so the
    comparison against the batched/cached server isolates what the serving
    layer buys.  Requests run back to back, so throughput is requests over
    summed latency.
    """
    latencies: List[float] = []
    for node in np.asarray(nodes, dtype=np.int64).tolist():
        start = time.perf_counter()
        embedding = classifier.embed_for_serving(np.array([node]), graph, seed=seed)
        classifier.predict_from_embeddings(embedding)
        latencies.append(time.perf_counter() - start)
    busy = sum(latencies)
    return {
        "requests": len(latencies),
        "ops": len(latencies),
        "throughput_rps": len(latencies) / busy if busy > 0 else float("inf"),
        **_latency_stats(latencies),
    }


def format_report(stats: Dict[str, float], title: Optional[str] = None) -> str:
    """Human-readable block of a :func:`replay` or
    :func:`cold_single_requests` report (the serve-bench output); a line
    whose figures the report lacks is left out."""
    lines = []
    if title:
        lines += [title, "-" * len(title)]
    lines += [
        f"requests          {int(stats['requests'])} in {int(stats['ops'])} ops",
        f"throughput        {stats['throughput_rps']:.1f} req/s",
        f"op latency mean   {stats['latency_mean_s'] * 1e3:.3f} ms",
        f"op latency min/max {stats['latency_min_s'] * 1e3:.3f} / "
        f"{stats['latency_max_s'] * 1e3:.3f} ms "
        f"(n={int(stats['latency_count'])})",
        f"op latency p50    {stats['latency_p50_s'] * 1e3:.3f} ms",
        f"op latency p95    {stats['latency_p95_s'] * 1e3:.3f} ms",
        f"op latency p99    {stats['latency_p99_s'] * 1e3:.3f} ms",
    ]
    if "batches" in stats:
        lines += [
            f"batches           {int(stats['batches'])}"
            f" (occupancy {stats['batch_occupancy'] * 100:.0f}%)",
            f"cache hit rate    {stats['cache_hit_rate'] * 100:.1f}%",
            f"compute batches   {int(stats['compute_batches'])}"
            f" (mean size {stats['compute_batch_mean']:.2f})",
        ]
    if "queue_wait_mean_s" in stats:
        lines.append(
            f"queue/compute     {stats['queue_wait_mean_s'] * 1e3:.3f} /"
            f" {stats['compute_mean_s'] * 1e3:.3f} ms (mean, critical path)"
        )
        lines.append(
            "rung mix          "
            + " / ".join(f"{rung} {int(stats[f'rung_{rung}'])}" for rung in RUNGS)
        )
    if "store_hits" in stats:
        lines.append(
            f"store lookups     hit {int(stats['store_hits'])}"
            f" / stale {int(stats['store_stale'])}"
            f" / absent {int(stats['store_absent'])}"
            f" (hit rate {stats['store_hit_rate'] * 100:.1f}%)"
        )
    if "cache_nodes_with_hits" in stats:
        lines.append(
            f"cache node hits   {int(stats['cache_nodes_with_hits'])} nodes"
            f" (p50 {stats['cache_node_hits_p50']:.0f},"
            f" p95 {stats['cache_node_hits_p95']:.0f},"
            f" max {stats['cache_node_hits_max']:.0f})"
        )
    return "\n".join(lines)
