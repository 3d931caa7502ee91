"""Serving telemetry: the table of requests in flight, and registry series.

A request is a row.  :class:`Telemetry` holds one growable table (an
array per column of :data:`COLUMNS`) that the server appends to when a
request is submitted (:meth:`Telemetry.open`) and fills when it is
answered (:meth:`Telemetry.finish`).  Nothing else writes a request down:
an op's reply (:meth:`~repro.serve.server.InferenceServer.replay`, which
is also what a shard engine puts on the wire) is read off these columns.

A row lives only while its op is in flight.  Once every answer has been
picked up (:meth:`Telemetry.release`), the answered rows are synced into
the registry and the table restarts at row 0, so a long-lived server
holds as many rows as its largest op, not one per request it ever served.

What outlives a request is the :class:`~repro.obs.MetricsRegistry`:
``serve_latency_seconds``, ``serve_requests_total`` and
``serve_rung_total`` are observed by one ``observe_many`` / ``inc`` per
:meth:`Telemetry.sync` (the server syncs when it goes idle), and the
``record_*`` methods write batch, invalidation and store-lookup series as
they happen — so training and serving report through one pipeline and one
``metrics.jsonl``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.packing import PackCounters
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import RUNGS

#: Request kinds; a row's ``kind`` is an index into this.
KINDS = ("classify", "embed")

_KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}
_RUNG_CODE = {rung: code for code, rung in enumerate(RUNGS)}

#: The table's columns, one array each (``telemetry.node`` ...).
#: ``arrival`` and ``completion`` are wall-clock (``perf_counter``) times;
#: ``completion`` is NaN while a request is queued; ``rung`` indexes
#: ``RUNGS``.
COLUMNS = {
    "node": np.int64,
    "kind": np.uint8,
    "arrival": np.float64,
    "completion": np.float64,
    "rung": np.uint8,
}


class Telemetry:
    """The in-flight request table plus the registry series it feeds.

    A request id is its row's position plus the number of rows earlier
    restarts dropped (``_base``), so ids keep counting up across restarts.
    Columns double when full and never shrink.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        for name, dtype in COLUMNS.items():
            setattr(self, name, np.empty(64, dtype))
        self._size = 0  # rows in use
        self._base = 0  # id of row 0
        self._synced = 0  # rows below this are already in the registry
        self._unreleased = 0  # rows whose answer nobody has picked up yet
        # Registry instruments are resolved once, not per record: the
        # labeled lookup (sort labels, hash, dict probe) costs more than a
        # counter increment.
        self._latency_hist = registry.histogram("serve_latency_seconds")
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
        # The cold path's packs, counted where this server's series are.
        self.pack_counters = PackCounters(registry)

    def __len__(self) -> int:
        """Rows in the table: requests opened since the last restart."""
        return self._size

    # -- the request lifecycle ------------------------------------------

    def open(self, node: int, kind: str, arrival: float) -> int:
        """Append the row of a request submitted at ``arrival``; returns
        its id."""
        row = self._size
        if row == self.node.size:
            for name in COLUMNS:
                column = getattr(self, name)
                setattr(self, name, np.concatenate([column, np.empty_like(column)]))
        self.node[row] = node
        self.kind[row] = _KIND_CODE[kind]
        self.arrival[row] = arrival
        self.completion[row] = np.nan
        self._size = row + 1
        self._unreleased += 1
        return self._base + row

    def finish(self, request_id: int, completion: float, *, rung: str) -> None:
        """Fill the row of an answered request; ``rung`` names the ladder
        tier that produced the embedding."""
        row = request_id - self._base
        self.completion[row] = completion
        self.rung[row] = _RUNG_CODE[rung]

    def release(self, count: int) -> None:
        """``count`` answers were picked up.  When none is left in flight,
        the rows are synced and the table restarts at row 0."""
        self._unreleased -= count
        if self._unreleased:
            return
        self.sync()
        self._base += self._size
        self._size = self._synced = 0

    def rows_of(self, request_ids: List[int]) -> np.ndarray:
        """Table positions of ``request_ids``, to index the columns with;
        ``KeyError`` for an id that was never issued or whose row a
        restart has dropped."""
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
        if lo == hi:
            return
        queued = np.isnan(self.completion[lo:hi]).nonzero()[0]
        if queued.size:
            hi = lo + int(queued[0])
        self._synced = hi
        if hi == lo:
            return
        self._latency_hist.observe_many(
            (self.completion[lo:hi] - self.arrival[lo:hi]).tolist()
        )
        by_rung = np.bincount(self.rung[lo:hi], minlength=len(RUNGS)).tolist()
        for counter, served in zip(self._rung_counters, by_rung):
            counter.inc(served)
        self._requests_by_hit["hit"].inc(by_rung[0])
        self._requests_by_hit["miss"].inc(hi - lo - by_rung[0])

    # -- registry-only records ------------------------------------------

    def record_batch(self, size: int) -> None:
        """One flushed request batch of ``size`` (cache re-checks included)."""
        self._batch_hist.observe(size)

    def record_compute_batch(self, size: int) -> None:
        """One batched cache-miss computation of ``size`` embeddings.

        Distinct from :meth:`record_batch` (request coalescing): this counts
        how many embeddings actually went through one model forward, i.e.
        whether the vectorized compute path sees real batches or singletons.
        """
        self._compute_batch_hist.observe(size)

    def record_invalidation(
        self, *, frontier_size: int, dropped: int, reason: str = "full",
    ) -> None:
        """One mutation-triggered cache invalidation.

        ``frontier_size`` is how many nodes the write stamped as touched:
        its changed sources or an arrival's new ids (``reason="frontier"``),
        or every node for a rewire of unknown extent (``reason="full"``).
        ``dropped`` is how many resident cache entries the freshness rule
        then rejected; what stayed warm is ``len(server.cache)``."""
        if reason not in ("frontier", "full"):
            raise ValueError(f"unknown invalidation reason {reason!r}")
        registry = self.registry
        registry.counter("serve_invalidations_total", reason=reason).inc()
        registry.counter(
            "serve_invalidated_entries_total", reason=reason
        ).inc(max(0, int(dropped)))
        registry.histogram("serve_invalidation_frontier").observe(frontier_size)

    def record_store_lookup(
        self, *, hit: int = 0, stale: int = 0, absent: int = 0
    ) -> None:
        """One miss batch's store consultation (store-backed servers only).

        ``hit`` nodes were served from fresh materialized rows, ``stale``
        had rows whose read set a write had touched, ``absent`` had no row
        at all; stale + absent fall back to materialization (the full
        recompute, which also writes the row back into the store)."""
        for outcome, count in (("hit", hit), ("stale", stale), ("absent", absent)):
            if count:
                self._store_outcomes[outcome].inc(int(count))
