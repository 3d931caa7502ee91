"""Serving telemetry: latency, queue depth, batch occupancy, cache hit-rate.

The recorder is a plain accumulator the server feeds as requests complete;
:meth:`Telemetry.summary` reduces it to the numbers a capacity planner
actually looks at — percentile latencies (p50/p95/p99, plus min/max/count so
the report is self-describing), throughput over the observed span, mean
batch occupancy and cache hit-rate.  Everything is deterministic given the
same request stream.

Percentiles come from the shared :class:`repro.obs.Histogram` (one
percentile implementation for training and serving); when a
:class:`~repro.obs.MetricsRegistry` is attached, every record also lands in
registry series (``serve_latency_seconds``, ``serve_requests_total``,
``serve_batch_size``, ``serve_queue_depth``), so training and serving report
through one pipeline and one ``metrics.jsonl``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.metrics import Histogram, MetricsRegistry

#: Serving-ladder rungs, fastest first (see ``repro.obs.slo.RUNGS``).
RUNGS = ("cache", "store", "overlay", "recompute")


@dataclass
class RequestRecord:
    """One completed request, as the telemetry layer sees it.

    ``rung`` names the serving-ladder tier that produced the embedding;
    ``queue_wait`` is submit-to-flush time (0 for submit-time cache hits),
    so ``latency - queue_wait`` is the request's compute share.
    """

    node: int
    arrival: float
    completion: float
    cache_hit: bool
    batch_size: int
    rung: str = "recompute"
    queue_wait: float = 0.0

    @property
    def latency(self) -> float:
        return self.completion - self.arrival

    @property
    def compute(self) -> float:
        return max(0.0, self.latency - self.queue_wait)


@dataclass
class Telemetry:
    """Accumulates per-request records and queue/batch samples."""

    requests: List[RequestRecord] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)
    compute_batch_sizes: List[int] = field(default_factory=list)
    queue_depths: List[int] = field(default_factory=list)
    # One record per mutation-triggered invalidation: how many adjacency
    # lists the write touched, how many resident entries it dropped and how
    # many stayed warm.
    invalidation_records: List[Dict[str, int]] = field(default_factory=list)
    # One record per store-consulted miss batch: how many nodes were served
    # from fresh store rows vs found stale vs absent (both of the latter
    # fall back to materialization).
    store_lookups: List[Dict[str, int]] = field(default_factory=list)
    max_batch_size: int = 1
    registry: Optional[MetricsRegistry] = None
    # Attached EmbeddingCache (duck-typed); lets summary() surface the
    # per-node hit distribution next to the request-level hit rate.
    cache: Optional[object] = None

    # -- recording ------------------------------------------------------

    def __post_init__(self) -> None:
        # Registry instruments are resolved once, not per record: the
        # labeled lookup (sort labels, hash, dict probe) costs more than a
        # counter increment and sits on the per-request hot path.
        registry = self.registry
        if registry is None:
            self._latency_hist = None
            return
        self._latency_hist = registry.histogram("serve_latency_seconds")
        self._requests_by_hit = {
            True: registry.counter("serve_requests_total", cache="hit"),
            False: registry.counter("serve_requests_total", cache="miss"),
        }
        self._batch_hist = registry.histogram("serve_batch_size")
        self._compute_batch_hist = registry.histogram("serve_compute_batch_size")
        self._queue_hist = registry.histogram("serve_queue_depth")
        self._store_outcomes = {
            outcome: registry.counter(
                "serve_store_requests_total", outcome=outcome
            )
            for outcome in ("hit", "stale", "absent")
        }
        self._rung_counters = {
            rung: registry.counter("serve_rung_total", rung=rung)
            for rung in RUNGS
        }

    def attach_cache(self, cache) -> None:
        """Expose an :class:`EmbeddingCache`'s per-node hit histogram in
        :meth:`summary` (the server attaches its cache at construction)."""
        self.cache = cache

    def record_request(self, record: RequestRecord) -> None:
        self.requests.append(record)
        if self._latency_hist is not None:
            self._latency_hist.observe(record.latency)
            self._requests_by_hit[record.cache_hit].inc()
            counter = self._rung_counters.get(record.rung)
            if counter is not None:
                counter.inc()

    def record_batch(self, size: int) -> None:
        self.batch_sizes.append(size)
        if self._latency_hist is not None:
            self._batch_hist.observe(size)

    def record_compute_batch(self, size: int) -> None:
        """One batched cache-miss computation of ``size`` embeddings.

        Distinct from :meth:`record_batch` (request coalescing): this counts
        how many embeddings actually went through one model forward, i.e.
        whether the vectorized compute path sees real batches or singletons.
        """
        self.compute_batch_sizes.append(size)
        if self._latency_hist is not None:
            self._compute_batch_hist.observe(size)

    def record_queue_depth(self, depth: int) -> None:
        self.queue_depths.append(depth)
        if self._latency_hist is not None:
            self._queue_hist.observe(depth)

    def record_invalidation(
        self, *, frontier_size: int, dropped: int, kept: int,
        reason: str = "full",
    ) -> None:
        """One mutation-triggered cache invalidation.

        ``frontier_size`` is how many nodes the write stamped as touched:
        the changed sources when the classifier reports read sets, their
        reverse-BFS frontier when it only declares a reach, the whole graph
        on the coarse fallback path.  ``dropped`` is how many resident
        cache entries the freshness rule then rejected, ``kept`` how many
        stayed warm — the audit trail that fine-grained invalidation
        actually kept the rest of the working set.  ``reason``
        distinguishes the fine-grained paths (``"frontier"``) from the
        every-node fallback (``"full"``) in the registry series."""
        if reason not in ("frontier", "full"):
            raise ValueError(f"unknown invalidation reason {reason!r}")
        self.invalidation_records.append(
            {
                "frontier_size": int(frontier_size),
                "dropped": int(dropped),
                "kept": int(kept),
                "reason": reason,
            }
        )
        if self.registry is not None:
            self.registry.counter(
                "serve_invalidations_total", reason=reason
            ).inc()
            self.registry.counter(
                "serve_invalidated_entries_total", reason=reason
            ).inc(max(0, int(dropped)))
            self.registry.histogram("serve_invalidation_frontier").observe(
                frontier_size
            )

    def record_store_lookup(
        self, *, hit: int = 0, stale: int = 0, absent: int = 0
    ) -> None:
        """One miss batch's store consultation (store-backed servers only).

        ``hit`` nodes were served from fresh materialized rows, ``stale``
        had rows whose read set a write had touched, ``absent`` had no row
        at all; stale + absent fall back to materialization (the full
        recompute, which also writes the row back into the store)."""
        self.store_lookups.append(
            {"hit": int(hit), "stale": int(stale), "absent": int(absent)}
        )
        if self._latency_hist is not None:
            for outcome, count in (
                ("hit", hit), ("stale", stale), ("absent", absent)
            ):
                if count:
                    self._store_outcomes[outcome].inc(int(count))

    def reset(self) -> None:
        """Clear local records (e.g. between a warmup and a measured pass).

        Registry series are cumulative by design and left untouched.
        """
        self.requests.clear()
        self.batch_sizes.clear()
        self.compute_batch_sizes.clear()
        self.queue_depths.clear()
        self.invalidation_records.clear()
        self.store_lookups.clear()

    # -- message-boundary serialization ---------------------------------

    def to_payload(self) -> Dict[str, object]:
        """Plain-data snapshot for crossing a shard/process boundary.

        Request records travel as parallel column lists (compact, picklable
        without class baggage); the cluster router reduces straight over
        the columns without rebuilding :class:`RequestRecord` objects.
        The registry and attached cache stay behind — they have their own
        serialized forms (``MetricsRegistry.to_payload``, cache size in the
        engine's telemetry reply).
        """
        return {
            "requests": {
                "node": [r.node for r in self.requests],
                "arrival": [r.arrival for r in self.requests],
                "completion": [r.completion for r in self.requests],
                "cache_hit": [r.cache_hit for r in self.requests],
                "batch_size": [r.batch_size for r in self.requests],
                "rung": [r.rung for r in self.requests],
                "queue_wait": [r.queue_wait for r in self.requests],
            },
            "batch_sizes": list(self.batch_sizes),
            "compute_batch_sizes": list(self.compute_batch_sizes),
            "queue_depths": list(self.queue_depths),
            "invalidation_records": [dict(r) for r in self.invalidation_records],
            "store_lookups": [dict(r) for r in self.store_lookups],
            "max_batch_size": self.max_batch_size,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "Telemetry":
        """Rebuild a reducible :class:`Telemetry` from a snapshot payload."""
        requests = payload["requests"]
        telemetry = cls(max_batch_size=int(payload.get("max_batch_size", 1)))
        count = len(requests["node"])
        # Older payloads predate attribution; default to the coarse values.
        rungs = requests.get("rung", ["recompute"] * count)
        queue_waits = requests.get("queue_wait", [0.0] * count)
        telemetry.requests = [
            RequestRecord(
                node=int(node),
                arrival=float(arrival),
                completion=float(completion),
                cache_hit=bool(cache_hit),
                batch_size=int(batch_size),
                rung=str(rung),
                queue_wait=float(queue_wait),
            )
            for node, arrival, completion, cache_hit, batch_size, rung, queue_wait in zip(
                requests["node"],
                requests["arrival"],
                requests["completion"],
                requests["cache_hit"],
                requests["batch_size"],
                rungs,
                queue_waits,
            )
        ]
        telemetry.batch_sizes = [int(v) for v in payload["batch_sizes"]]
        telemetry.compute_batch_sizes = [
            int(v) for v in payload["compute_batch_sizes"]
        ]
        telemetry.queue_depths = [int(v) for v in payload["queue_depths"]]
        telemetry.invalidation_records = [
            dict(r) for r in payload["invalidation_records"]
        ]
        telemetry.store_lookups = [
            dict(r) for r in payload.get("store_lookups", [])
        ]
        return telemetry

    # -- reductions -----------------------------------------------------

    @property
    def latencies(self) -> List[float]:
        return [record.latency for record in self.requests]

    @property
    def cache_hits(self) -> int:
        return sum(record.cache_hit for record in self.requests)

    @property
    def cache_misses(self) -> int:
        return len(self.requests) - self.cache_hits

    def hit_rate(self) -> float:
        return self.cache_hits / len(self.requests) if self.requests else 0.0

    def throughput(self) -> float:
        """Completed requests per second over the observed span."""
        if not self.requests:
            return 0.0
        start = min(record.arrival for record in self.requests)
        stop = max(record.completion for record in self.requests)
        span = stop - start
        return len(self.requests) / span if span > 0 else float("inf")

    def mean_occupancy(self) -> float:
        """Mean batch fill fraction relative to the configured maximum."""
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / (len(self.batch_sizes) * self.max_batch_size)

    def latency_histogram(self) -> Histogram:
        """The current latencies as a shared :class:`Histogram`."""
        histogram = Histogram("serve_latency_seconds")
        histogram.observe_many(self.latencies)
        return histogram

    def summary(self) -> Dict[str, float]:
        latencies = self.latency_histogram()
        stats = {
            "requests": len(self.requests),
            "throughput_rps": self.throughput(),
            "latency_count": latencies.count,
            "latency_mean_s": latencies.mean,
            "latency_min_s": latencies.min,
            "latency_max_s": latencies.max,
            "latency_p50_s": latencies.percentile(50),
            "latency_p95_s": latencies.percentile(95),
            "latency_p99_s": latencies.percentile(99),
            "batches": len(self.batch_sizes),
            "batch_occupancy": self.mean_occupancy(),
            "mean_queue_depth": (
                sum(self.queue_depths) / len(self.queue_depths)
                if self.queue_depths
                else 0.0
            ),
            "cache_hit_rate": self.hit_rate(),
        }
        stats["compute_batches"] = len(self.compute_batch_sizes)
        stats["compute_batch_mean"] = (
            sum(self.compute_batch_sizes) / len(self.compute_batch_sizes)
            if self.compute_batch_sizes
            else 0.0
        )
        stats["compute_batch_max"] = (
            float(max(self.compute_batch_sizes)) if self.compute_batch_sizes else 0.0
        )
        if self.requests:
            count = len(self.requests)
            stats["queue_wait_mean_s"] = (
                sum(r.queue_wait for r in self.requests) / count
            )
            stats["compute_mean_s"] = (
                sum(r.compute for r in self.requests) / count
            )
            for rung in RUNGS:
                stats[f"rung_{rung}"] = float(
                    sum(1 for r in self.requests if r.rung == rung)
                )
        stats["invalidations"] = len(self.invalidation_records)
        stats["invalidated_entries"] = float(
            sum(r["dropped"] for r in self.invalidation_records)
        )
        stats["invalidation_kept_entries"] = float(
            sum(r["kept"] for r in self.invalidation_records)
        )
        if self.store_lookups:
            store_hits = sum(r["hit"] for r in self.store_lookups)
            store_stale = sum(r["stale"] for r in self.store_lookups)
            store_absent = sum(r["absent"] for r in self.store_lookups)
            store_total = store_hits + store_stale + store_absent
            stats["store_hits"] = float(store_hits)
            stats["store_stale"] = float(store_stale)
            stats["store_absent"] = float(store_absent)
            stats["store_hit_rate"] = (
                store_hits / store_total if store_total else 0.0
            )
        if self.cache is not None and hasattr(self.cache, "node_hit_histogram"):
            node_hits = self.cache.node_hit_histogram()
            stats["cache_nodes_with_hits"] = node_hits.count
            stats["cache_node_hits_mean"] = node_hits.mean
            stats["cache_node_hits_p50"] = node_hits.percentile(50)
            stats["cache_node_hits_p95"] = node_hits.percentile(95)
            stats["cache_node_hits_max"] = node_hits.max
        return stats

    def format_report(self, title: Optional[str] = None) -> str:
        """Human-readable report block (the serve-bench output)."""
        stats = self.summary()
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
            f"batches           {int(stats['batches'])}"
            f" (occupancy {stats['batch_occupancy'] * 100:.0f}%)",
            f"mean queue depth  {stats['mean_queue_depth']:.2f}",
            f"cache hit rate    {stats['cache_hit_rate'] * 100:.1f}%",
            f"compute batches   {int(stats['compute_batches'])}"
            f" (mean size {stats['compute_batch_mean']:.2f},"
            f" max {int(stats['compute_batch_max'])})",
        ]
        if "queue_wait_mean_s" in stats:
            lines.append(
                f"queue/compute     {stats['queue_wait_mean_s'] * 1e3:.3f} /"
                f" {stats['compute_mean_s'] * 1e3:.3f} ms (mean)"
            )
            lines.append(
                "rung mix          "
                + " / ".join(
                    f"{rung} {int(stats[f'rung_{rung}'])}" for rung in RUNGS
                )
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
