"""Deterministic load generation and trace replay.

A synthetic arrival trace models the serving workload the paper motivates
WIDEN with: requests arrive as a Poisson process (exponential interarrival
gaps at a target rate) and target nodes follow a Zipf popularity law — a
few hot nodes dominate, a long tail trickles — which is precisely the
regime where an LRU embedding cache pays off.  Both draws come from one
seeded generator, so a trace is exactly reproducible.

:func:`replay` drives a server through a trace using the trace's *logical*
clock for arrivals/deadlines while batch compute time is measured for real;
:func:`cold_single_requests` runs the same trace one request at a time down
the uncached inductive path — the baseline the serve benchmark compares
against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.graph import HeteroGraph
from repro.obs.metrics import nearest_rank_percentile
from repro.serve.server import InferenceServer
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
    """Replay ``trace`` against ``server``; returns the telemetry summary.

    The server's telemetry and busy-time watermark are reset first so
    back-to-back passes (cold then warm cache) report cleanly separated
    numbers on the same logical timeline.
    """
    server.telemetry.reset()
    server.reset_clock()
    server.replay(
        [event.node for event in trace],
        [event.time for event in trace],
        trace[-1].time if trace else None,
    )
    return server.telemetry.summary()


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
    batched/cached server isolates what the serving layer buys.
    """
    latencies: List[float] = []
    for event in trace:
        start = time.perf_counter()
        embedding = classifier.embed_for_serving(
            np.array([event.node]), graph, seed=seed
        )
        classifier.predict_from_embeddings(embedding)
        latencies.append(time.perf_counter() - start)
    return {
        "requests": len(latencies),
        "latency_mean_s": sum(latencies) / len(latencies) if latencies else 0.0,
        "latency_p50_s": nearest_rank_percentile(latencies, 50),
        "latency_p95_s": nearest_rank_percentile(latencies, 95),
        "latency_p99_s": nearest_rank_percentile(latencies, 99),
        "throughput_rps": (
            len(latencies) / sum(latencies) if sum(latencies) > 0 else float("inf")
        ),
    }
