"""Request-lifecycle attribution and SLO monitoring (``repro.obs.slo``).

Three pieces, all plain data structures fed by the serving path:

- :class:`AttributionRecord` — one serve request's latency and
  critical-path compute plus a count of which ladder rung (cache / store /
  overlay / recompute) served each node.  Rung counts sum to the node count by
  construction, which is the invariant the tests pin.
- :class:`SLOMonitor` — a rolling time window of request outcomes scored
  against an :class:`SLOTarget` (latency threshold + objective): windowed
  p50/p95/p99, error-budget remaining, and burn rate (1.0 = spending the
  budget exactly as fast as the objective allows).
- :class:`SlowRequestLog` — a bounded worst-K log keeping exemplar
  attribution records for the slowest requests, so "p99 regressed" comes
  with the actual offending requests attached.

Nothing here touches the hot path unless explicitly installed: the router
holds ``slo=None`` by default and the guard is one ``is None`` check.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.obs.metrics import nearest_rank_percentile

__all__ = [
    "RUNGS",
    "AttributionRecord",
    "SLOTarget",
    "SLOMonitor",
    "SlowRequestLog",
]

# The serving ladder, fastest rung first (see repro.serve / repro.store).
RUNGS = ("cache", "store", "overlay", "recompute")


@dataclass
class AttributionRecord:
    """Where one serve request's time and nodes went.

    ``compute`` is critical-path seconds of miss work, a shard's submit
    loop end to its last answer (the max across the shards the request
    touched — a scatter-gather request is as slow as its slowest shard,
    not the sum).  ``rungs`` counts nodes
    by the ladder rung that produced their embedding; the counts sum to
    ``nodes``.
    """

    trace_id: str
    nodes: int
    shards: int
    latency: float
    compute: float
    rungs: Dict[str, int] = field(default_factory=dict)
    ok: bool = True
    error: Optional[str] = None

    def to_record(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "nodes": self.nodes,
            "shards": self.shards,
            "latency_s": self.latency,
            "compute_s": self.compute,
            "rungs": dict(self.rungs),
            "ok": self.ok,
            **({"error": self.error} if self.error else {}),
        }


@dataclass(frozen=True)
class SLOTarget:
    """A latency SLO: ``objective`` of requests under ``latency_threshold``.

    ``window`` is the rolling horizon in seconds over which compliance is
    judged; requests older than the window stop counting against (or for)
    the budget.
    """

    latency_threshold: float = 0.050
    objective: float = 0.99
    window: float = 300.0

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(f"objective must be in (0, 1), got {self.objective}")
        if self.latency_threshold <= 0.0:
            raise ValueError(
                f"latency_threshold must be positive, got {self.latency_threshold}"
            )
        if self.window <= 0.0:
            raise ValueError(f"window must be positive, got {self.window}")


class SLOMonitor:
    """Rolling-window SLO compliance over a stream of request outcomes.

    ``observe(latency, ok)`` appends one request and evicts the entries
    that have left the window, so it holds one window's requests however
    rarely it is read; ``report()`` evicts too and scores the window.  A
    request is *good* when it succeeded **and** met the latency threshold
    — an error burns budget exactly like a slow success.  ``burn_rate`` is
    the classic ratio: bad-fraction / allowed-bad-fraction, so 1.0 means
    the error budget drains exactly at the sustainable rate and 2.0 means
    twice that.
    """

    def __init__(self, target: Optional[SLOTarget] = None, *, clock=time.monotonic):
        self.target = target if target is not None else SLOTarget()
        self._clock = clock
        # (timestamp, latency, ok) — appended in time order, evicted left.
        self._window: Deque[Tuple[float, float, bool]] = deque()
        self.total_observed = 0

    def observe(self, latency: float, ok: bool = True) -> None:
        now = self._clock()
        self._evict(now)
        self._window.append((now, float(latency), bool(ok)))
        self.total_observed += 1

    def _evict(self, now: float) -> None:
        horizon = now - self.target.window
        window = self._window
        while window and window[0][0] < horizon:
            window.popleft()

    def report(self) -> Dict[str, object]:
        now = self._clock()
        self._evict(now)
        latencies = sorted(entry[1] for entry in self._window)
        count = len(latencies)
        threshold = self.target.latency_threshold
        good = sum(
            1 for (_, latency, ok) in self._window if ok and latency <= threshold
        )
        bad = count - good
        allowed_bad = 1.0 - self.target.objective
        bad_frac = (bad / count) if count else 0.0
        # budget_remaining: 1.0 = untouched, 0.0 = exhausted, negative = blown.
        budget_remaining = 1.0 - (bad_frac / allowed_bad) if count else 1.0
        return {
            "target": {
                "latency_threshold_s": threshold,
                "objective": self.target.objective,
                "window_s": self.target.window,
            },
            "window_count": count,
            "good": good,
            "bad": bad,
            "compliance": (good / count) if count else 1.0,
            "error_budget_remaining": budget_remaining,
            "burn_rate": bad_frac / allowed_bad,
            "p50_s": nearest_rank_percentile(latencies, 50),
            "p95_s": nearest_rank_percentile(latencies, 95),
            "p99_s": nearest_rank_percentile(latencies, 99),
            "total_observed": self.total_observed,
        }


class SlowRequestLog:
    """Bounded worst-K log of :class:`AttributionRecord` exemplars.

    A min-heap keyed on latency: the fastest of the kept requests sits at
    the root and is evicted first, so after N observations the log holds
    the K slowest seen.  The tie-break counter keeps heap pushes total even
    when latencies collide (AttributionRecord doesn't order).
    """

    def __init__(self, capacity: int = 16):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._heap: List[Tuple[float, int, AttributionRecord]] = []
        self._pushed = 0

    def observe(self, record: AttributionRecord) -> None:
        entry = (record.latency, self._pushed, record)
        self._pushed += 1
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap, entry)
        elif entry[0] > self._heap[0][0]:
            heapq.heapreplace(self._heap, entry)

    def __len__(self) -> int:
        return len(self._heap)

    def worst(self) -> List[AttributionRecord]:
        """Kept records, slowest first."""
        return [
            entry[2]
            for entry in sorted(self._heap, key=lambda e: (-e[0], e[1]))
        ]

    def to_records(self) -> List[Dict[str, object]]:
        return [record.to_record() for record in self.worst()]
