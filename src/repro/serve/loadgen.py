"""Deterministic load generation and trace replay.

A synthetic arrival trace models the serving workload the paper motivates
WIDEN with: requests arrive as a Poisson process (exponential interarrival
gaps at a target rate) and target nodes follow a Zipf popularity law — a
few hot nodes dominate, a long tail trickles — which is precisely the
regime where an LRU embedding cache pays off.  Both draws come from one
seeded generator, so a trace is exactly reproducible.

:func:`replay` drives a server through a trace using the trace's *logical*
clock for arrivals/deadlines while batch compute time is measured for real,
and reports the pass from its own answers: latency percentiles, throughput,
cache hit rate and rung mix off the :class:`ServeResult` of each request,
batch and store figures as differences of the server registry's cumulative
series across the pass (:func:`pass_report`).  :func:`cold_single_requests`
runs the same trace one request at a time down the uncached inductive path
— the baseline the serve benchmark compares against — and reduces its
latencies the same way; :func:`format_report` prints either report.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.graph import HeteroGraph
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.slo import RUNGS
from repro.serve.server import InferenceServer, ServeResult
from repro.utils.rng import SeedLike, new_rng


@dataclass
class TraceEvent:
    """One arrival: request ``node`` at logical time ``time`` (seconds)."""

    time: float
    node: int


def make_trace(
    nodes: Sequence[int],
    num_requests: int,
    *,
    rate: float = 500.0,
    zipf_exponent: float = 1.1,
    rng: SeedLike = None,
) -> List[TraceEvent]:
    """Deterministic Poisson/Zipf arrival trace over a node pool.

    ``rate`` is mean arrivals per second; ``zipf_exponent`` shapes the
    popularity skew (higher = hotter head).  Ranks are assigned over the
    pool in the order given, so the caller controls which nodes are hot.
    """
    pool = np.asarray(nodes, dtype=np.int64)
    if pool.size == 0:
        raise ValueError("node pool is empty")
    if num_requests < 1:
        raise ValueError(f"num_requests must be >= 1, got {num_requests}")
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    rng = new_rng(rng)
    weights = 1.0 / np.arange(1, pool.size + 1, dtype=np.float64) ** zipf_exponent
    weights /= weights.sum()
    picks = rng.choice(pool.size, size=num_requests, p=weights)
    gaps = rng.exponential(1.0 / rate, size=num_requests)
    times = np.cumsum(gaps)
    return [TraceEvent(float(t), int(pool[i])) for t, i in zip(times, picks)]


def replay(server: InferenceServer, trace: Sequence[TraceEvent]) -> Dict[str, float]:
    """Replay ``trace`` against ``server``; returns the pass report.

    The server's busy-time watermark is reset first so back-to-back passes
    (cold then warm cache) run on the same logical timeline; every answer
    is picked up, so the server's request table is empty afterwards.
    """
    server.reset_clock()
    registry = server.telemetry.registry
    before = series_totals(registry)
    ids = [server.submit(event.node, now=event.time) for event in trace]
    server.drain(trace[-1].time if trace else None)
    results = [server.result(request_id) for request_id in ids]
    stats = pass_report(
        results, before, series_totals(registry), server.batcher.max_batch_size
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
    differences, read now: flushed batches and the requests in them,
    compute batches and the embeddings they computed, queue depths sampled
    (count and sum), and store lookups by outcome."""
    totals = {}
    for key, name in (
        ("batches", "serve_batch_size"),
        ("compute_batches", "serve_compute_batch_size"),
        ("queue_depths", "serve_queue_depth"),
    ):
        series = registry.histogram(name)
        totals[key], totals[key + "_sum"] = series.count, series.sum
    for outcome in ("hit", "stale", "absent"):
        totals[f"store_{outcome}"] = registry.counter(
            "serve_store_requests_total", outcome=outcome
        ).value
    return totals


def pass_report(
    results: Sequence[ServeResult],
    before: Dict[str, float],
    after: Dict[str, float],
    max_batch_size: int,
) -> Dict[str, float]:
    """The report of one drained pass: ``results`` are its answers, and
    ``before`` / ``after`` are :func:`series_totals` of the server's
    registry around it (nothing else may serve from that registry in
    between).  ``max_batch_size`` is the batcher's, for occupancy."""
    delta = {key: after[key] - before[key] for key in after}
    count = len(results)
    arrival = np.array([result.arrival for result in results])
    completion = np.array([result.completion for result in results])
    rungs = Counter(result.rung for result in results)
    span = float(completion.max() - arrival.min()) if count else 0.0
    stats = {
        "requests": count,
        "throughput_rps": (
            count / span if span > 0 else float("inf") if count else 0.0
        ),
        **_latency_stats(completion - arrival),
        "batches": delta["batches"],
        # Mean batch fill fraction relative to the configured maximum.
        "batch_occupancy": _ratio(
            delta["batches_sum"], delta["batches"] * max_batch_size
        ),
        "mean_queue_depth": _ratio(delta["queue_depths_sum"], delta["queue_depths"]),
        "cache_hit_rate": rungs["cache"] / count if count else 0.0,
        "compute_batches": delta["compute_batches"],
        "compute_batch_mean": _ratio(
            delta["compute_batches_sum"], delta["compute_batches"]
        ),
    }
    if count:
        stats["queue_wait_mean_s"] = float(np.mean([r.queue_wait for r in results]))
        stats["compute_mean_s"] = float(np.mean([r.compute for r in results]))
        for rung in RUNGS:
            stats[f"rung_{rung}"] = float(rungs[rung])
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
    trace: Sequence[TraceEvent],
    *,
    seed: int = 0,
) -> Dict[str, float]:
    """One-at-a-time, uncached inference over the same trace.

    Each request pays the full cold path — fresh neighborhood sampling plus
    a single-node forward pass — exactly what a server miss costs, with the
    same per-node deterministic seeding, so the comparison against the
    batched/cached server isolates what the serving layer buys.  Requests
    run back to back, so throughput is requests over summed latency.
    """
    latencies: List[float] = []
    for event in trace:
        start = time.perf_counter()
        embedding = classifier.embed_for_serving(
            np.array([event.node]), graph, seed=seed
        )
        classifier.predict_from_embeddings(embedding)
        latencies.append(time.perf_counter() - start)
    busy = sum(latencies)
    return {
        "requests": len(latencies),
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
        f"requests          {int(stats['requests'])}",
        f"throughput        {stats['throughput_rps']:.1f} req/s",
        f"latency mean      {stats['latency_mean_s'] * 1e3:.3f} ms",
        f"latency min/max   {stats['latency_min_s'] * 1e3:.3f} / "
        f"{stats['latency_max_s'] * 1e3:.3f} ms "
        f"(n={int(stats['latency_count'])})",
        f"latency p50       {stats['latency_p50_s'] * 1e3:.3f} ms",
        f"latency p95       {stats['latency_p95_s'] * 1e3:.3f} ms",
        f"latency p99       {stats['latency_p99_s'] * 1e3:.3f} ms",
    ]
    if "batches" in stats:
        lines += [
            f"batches           {int(stats['batches'])}"
            f" (occupancy {stats['batch_occupancy'] * 100:.0f}%)",
            f"mean queue depth  {stats['mean_queue_depth']:.2f}",
            f"cache hit rate    {stats['cache_hit_rate'] * 100:.1f}%",
            f"compute batches   {int(stats['compute_batches'])}"
            f" (mean size {stats['compute_batch_mean']:.2f})",
        ]
    if "queue_wait_mean_s" in stats:
        lines.append(
            f"queue/compute     {stats['queue_wait_mean_s'] * 1e3:.3f} /"
            f" {stats['compute_mean_s'] * 1e3:.3f} ms (mean)"
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
