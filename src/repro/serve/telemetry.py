"""Serving telemetry: the request table and its reductions.

A request is a row.  :class:`Telemetry` holds one growable table (an
array per column of :data:`COLUMNS`) that the server appends to when a
request is submitted (:meth:`Telemetry.open`) and fills when it is
answered (:meth:`Telemetry.finish`).  Nothing else writes a request down: the
server's results, the shard engine's reply and the cluster router's
summary are all read off these columns.

:meth:`Telemetry.summary` reduces the rows since the last
:meth:`Telemetry.reset` to the numbers a capacity planner actually looks at
— percentile latencies (p50/p95/p99, plus min/max/count so the report is
self-describing), throughput over the observed span, mean batch occupancy
and cache hit-rate.  Everything is deterministic given the same request
stream.

Percentiles come from the shared :class:`repro.obs.Histogram` (one
percentile implementation for training and serving); when a
:class:`~repro.obs.MetricsRegistry` is attached, the rows also land in
registry series (``serve_latency_seconds``, ``serve_requests_total``,
``serve_rung_total``, ``serve_queue_depth``, batch sizes) — the per-request
ones by one ``observe_many`` per :meth:`Telemetry.sync`, which the server
runs when it goes idle, not by one call per request — so training and
serving report through one pipeline and one ``metrics.jsonl``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.slo import RUNGS

#: Request kinds; a row's ``kind`` is an index into this.
KINDS = ("classify", "embed")

_KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}
_RUNG_CODE = {rung: code for code, rung in enumerate(RUNGS)}

#: The table's columns, one array each (``telemetry.node`` ...).
#: ``completion`` is NaN while a request is queued; ``rung`` indexes
#: ``RUNGS``; ``queue_wait`` is submit-to-flush time (0 for submit-time
#: cache hits), so ``completion - arrival - queue_wait`` is the compute
#: share; ``queue_depth`` is what was queued ahead of it at submit.
COLUMNS = {
    "node": np.int64,
    "kind": np.uint8,
    "arrival": np.float64,
    "completion": np.float64,
    "queue_wait": np.float64,
    "rung": np.uint8,
    "batch_size": np.int64,
    "queue_depth": np.int64,
}


class Telemetry:
    """The request table plus per-batch, per-write and per-lookup samples.

    A request id is its row's position plus the number of rows earlier
    resets dropped, so ids keep counting up across :meth:`reset` and the id
    of a request that is still queued stays valid through one.
    """

    def __init__(
        self,
        max_batch_size: int = 1,
        registry: Optional[MetricsRegistry] = None,
        cache: Optional[object] = None,
    ) -> None:
        self.max_batch_size = max_batch_size
        self.registry = registry
        # The server's EmbeddingCache (duck-typed); lets summary() surface
        # the per-node hit distribution next to the request-level hit rate.
        self.cache = cache
        for name, dtype in COLUMNS.items():
            setattr(self, name, np.empty(64, dtype))
        self._size = 0  # rows in use
        self._base = 0  # id of row 0
        self._synced = 0  # rows below this are already in the registry
        self._clear_totals()
        if registry is None:
            return
        # Registry instruments are resolved once, not per record: the
        # labeled lookup (sort labels, hash, dict probe) costs more than a
        # counter increment.
        self._latency_hist = registry.histogram("serve_latency_seconds")
        self._queue_hist = registry.histogram("serve_queue_depth")
        self._requests_by_hit = {
            hit: registry.counter("serve_requests_total", cache=hit)
            for hit in ("hit", "miss")
        }
        self._rung_counters = [
            registry.counter("serve_rung_total", rung=rung) for rung in RUNGS
        ]
        self._batch_hist = registry.histogram("serve_batch_size")
        self._compute_batch_hist = registry.histogram("serve_compute_batch_size")
        self._store_outcomes = {
            outcome: registry.counter(
                "serve_store_requests_total", outcome=outcome
            )
            for outcome in ("hit", "stale", "absent")
        }

    # -- recording ------------------------------------------------------

    def open(
        self, node: int, kind: str, arrival: float, queue_depth: int = 0
    ) -> int:
        """Append the row of a request submitted at ``arrival`` with
        ``queue_depth`` requests queued ahead of it; returns its id."""
        row = self._size
        if row == self.node.size:
            for name in COLUMNS:
                column = getattr(self, name)
                setattr(self, name, np.concatenate([column, np.empty_like(column)]))
        self.node[row] = node
        self.kind[row] = _KIND_CODE[kind]
        self.arrival[row] = arrival
        self.completion[row] = np.nan
        self.queue_depth[row] = queue_depth
        self._size = row + 1
        return self._base + row

    def finish(
        self,
        request_id: int,
        completion: float,
        *,
        rung: str,
        batch_size: int,
        queue_wait: float = 0.0,
    ) -> None:
        """Fill the row of an answered request; ``rung`` names the ladder
        tier that produced the embedding."""
        row = request_id - self._base
        self.completion[row] = completion
        self.queue_wait[row] = queue_wait
        self.rung[row] = _RUNG_CODE[rung]
        self.batch_size[row] = batch_size

    def rows_of(self, request_ids: List[int]) -> np.ndarray:
        """Table positions of ``request_ids``, to index the columns with;
        ``KeyError`` for an id that was never issued or that a
        :meth:`reset` has dropped."""
        if request_ids and not (
            self._base <= min(request_ids)
            and max(request_ids) < self._base + self._size
        ):
            raise KeyError(
                f"request ids {request_ids} are not all in this table's "
                f"[{self._base}, {self._base + self._size})"
            )
        return np.asarray(request_ids, dtype=np.int64) - self._base

    def sync(self) -> None:
        """Observe the rows answered since the last sync into the registry:
        one ``observe_many`` / ``inc`` per series, whatever the row count.
        Stops at the oldest request still queued, so rows are observed in
        submit order and each exactly once."""
        lo, hi = self._synced, self._size
        queued = np.isnan(self.completion[lo:hi]).nonzero()[0]
        if queued.size:
            hi = lo + int(queued[0])
        self._synced = hi
        if self.registry is None or hi == lo:
            return
        self._latency_hist.observe_many(
            (self.completion[lo:hi] - self.arrival[lo:hi]).tolist()
        )
        self._queue_hist.observe_many(self.queue_depth[lo:hi].tolist())
        by_rung = np.bincount(self.rung[lo:hi], minlength=len(RUNGS)).tolist()
        for counter, served in zip(self._rung_counters, by_rung):
            counter.inc(served)
        self._requests_by_hit["hit"].inc(by_rung[0])
        self._requests_by_hit["miss"].inc(hi - lo - by_rung[0])

    def record_batch(self, size: int) -> None:
        self._batches += 1
        self._batched += size
        if self.registry is not None:
            self._batch_hist.observe(size)

    def record_compute_batch(self, size: int) -> None:
        """One batched cache-miss computation of ``size`` embeddings.

        Distinct from :meth:`record_batch` (request coalescing): this counts
        how many embeddings actually went through one model forward, i.e.
        whether the vectorized compute path sees real batches or singletons.
        """
        self._compute_batches += 1
        self._computed += size
        self._compute_max = max(self._compute_max, size)
        if self.registry is not None:
            self._compute_batch_hist.observe(size)

    def record_invalidation(
        self, *, frontier_size: int, dropped: int, kept: int,
        reason: str = "full",
    ) -> None:
        """One mutation-triggered cache invalidation.

        ``frontier_size`` is how many nodes the write stamped as touched:
        its changed sources or an arrival's new ids (``reason="frontier"``),
        or every node for a rewire of unknown extent (``reason="full"``).
        ``dropped`` is how many resident cache entries the freshness rule
        then rejected, ``kept`` how many stayed warm — the audit trail that
        read-set invalidation actually kept the rest of the working set."""
        if reason not in ("frontier", "full"):
            raise ValueError(f"unknown invalidation reason {reason!r}")
        self.invalidations += 1
        self.invalidated_entries += int(dropped)
        self.invalidation_kept_entries += int(kept)
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
        self.store_lookups += 1
        self.store_hits += int(hit)
        self.store_stale += int(stale)
        self.store_absent += int(absent)
        if self.registry is not None:
            for outcome, count in (
                ("hit", hit), ("stale", stale), ("absent", absent)
            ):
                if count:
                    self._store_outcomes[outcome].inc(int(count))

    def reset(self) -> None:
        """Start a new window (e.g. between a warmup and a measured pass).

        Every row before the oldest request still queued is dropped; that
        request and whatever was submitted behind it keep their ids and
        open the new window.  Registry series are cumulative by design: the
        dropped rows are synced into them first, the series left untouched.
        """
        self.sync()
        queued = np.isnan(self.completion[: self._size]).nonzero()[0]
        drop = int(queued[0]) if queued.size else self._size
        for name in COLUMNS:
            column = getattr(self, name)
            column[: self._size - drop] = column[drop : self._size].copy()
        self._base += drop
        self._size -= drop
        self._synced -= drop
        self._clear_totals()

    def _clear_totals(self) -> None:
        """Zero the running totals a window keeps beside its rows.

        Batch counts; mutation-triggered invalidations with the resident
        entries they dropped and kept warm; and store-consulted miss
        batches with the nodes served from fresh rows, found stale, or
        absent (both of the latter fall back to materialization)."""
        self._batches = self._batched = 0
        self._compute_batches = self._computed = self._compute_max = 0
        self.invalidations = self.invalidated_entries = 0
        self.invalidation_kept_entries = 0
        self.store_lookups = self.store_hits = self.store_stale = 0
        self.store_absent = 0

    # -- reductions -----------------------------------------------------

    def rows(self) -> Dict[str, np.ndarray]:
        """The requests answered since the last :meth:`reset`, as columns
        (copies, in submit order)."""
        done = ~np.isnan(self.completion[: self._size])
        return {name: getattr(self, name)[: self._size][done] for name in COLUMNS}

    @property
    def latencies(self) -> np.ndarray:
        rows = self.rows()
        return rows["completion"] - rows["arrival"]

    def summary(self) -> Dict[str, float]:
        rows = self.rows()
        count = rows["node"].size
        latency = rows["completion"] - rows["arrival"]
        # Percentiles from the shared Histogram: one nearest-rank
        # implementation for training and serving.
        latencies = Histogram("serve_latency_seconds")
        latencies.observe_many(latency.tolist())
        span = float(rows["completion"].max() - rows["arrival"].min()) if count else 0.0
        by_rung = np.bincount(rows["rung"], minlength=len(RUNGS)).tolist()
        stats = {
            "requests": count,
            "throughput_rps": (
                count / span if span > 0 else float("inf") if count else 0.0
            ),
            "latency_count": latencies.count,
            "latency_mean_s": latencies.mean,
            "latency_min_s": latencies.min,
            "latency_max_s": latencies.max,
            "latency_p50_s": latencies.percentile(50),
            "latency_p95_s": latencies.percentile(95),
            "latency_p99_s": latencies.percentile(99),
            "batches": self._batches,
            # Mean batch fill fraction relative to the configured maximum.
            "batch_occupancy": (
                self._batched / (self._batches * self.max_batch_size)
                if self._batches
                else 0.0
            ),
            # Sampled at submit, so requests still queued count too.
            "mean_queue_depth": (
                float(self.queue_depth[: self._size].mean())
                if self._size
                else 0.0
            ),
            "cache_hit_rate": by_rung[0] / count if count else 0.0,
            "compute_batches": self._compute_batches,
            "compute_batch_mean": (
                self._computed / self._compute_batches
                if self._compute_batches
                else 0.0
            ),
            "compute_batch_max": float(self._compute_max),
        }
        if count:
            stats["queue_wait_mean_s"] = float(rows["queue_wait"].mean())
            stats["compute_mean_s"] = float(
                np.maximum(0.0, latency - rows["queue_wait"]).mean()
            )
            for rung, served in zip(RUNGS, by_rung):
                stats[f"rung_{rung}"] = float(served)
        stats["invalidations"] = self.invalidations
        stats["invalidated_entries"] = float(self.invalidated_entries)
        stats["invalidation_kept_entries"] = float(self.invalidation_kept_entries)
        if self.store_lookups:
            store_total = self.store_hits + self.store_stale + self.store_absent
            stats["store_hits"] = float(self.store_hits)
            stats["store_stale"] = float(self.store_stale)
            stats["store_absent"] = float(self.store_absent)
            stats["store_hit_rate"] = (
                self.store_hits / store_total if store_total else 0.0
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
