"""Request queue + micro-batcher.

Single-node requests are cheap to issue but expensive to execute one by one;
the batcher coalesces them into batched forward passes under two triggers,
the standard serving trade-off (cf. DGL/TF-Serving batching queues):

- **size** — the queue reached ``max_batch_size``; flush immediately.
- **deadline** — the *oldest* queued request has waited ``max_wait``
  seconds; flush whatever is queued so tail latency stays bounded even at
  low arrival rates.

The batcher is purely logical: callers pass explicit ``now`` timestamps, so
the same component serves both wall-clock operation and deterministic
trace replay/tests (no hidden clock reads).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class MicroBatcher:
    """Coalesces request ids; flushes on the size or deadline trigger."""

    max_batch_size: int = 16
    max_wait: float = 0.002
    # Queued request ids and, beside them, their arrival times: the
    # deadline trigger reads the oldest one.
    _queue: List[int] = field(default_factory=list)
    _arrivals: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {self.max_wait}")

    @property
    def depth(self) -> int:
        return len(self._queue)

    @property
    def deadline(self) -> Optional[float]:
        """When the deadline trigger fires for what is queued now."""
        return self._arrivals[0] + self.max_wait if self._arrivals else None

    def submit(self, request_id: int, arrival: float) -> Optional[List[int]]:
        """Enqueue; returns a batch iff the size trigger fired."""
        self._queue.append(request_id)
        self._arrivals.append(arrival)
        if len(self._queue) >= self.max_batch_size:
            return self._take()
        return None

    def poll(self, now: float) -> Optional[List[int]]:
        """Returns a batch iff the deadline trigger fired at time ``now``."""
        if self._queue and now - self._arrivals[0] >= self.max_wait:
            return self._take()
        return None

    def flush(self) -> Optional[List[int]]:
        """Unconditionally drain up to ``max_batch_size`` oldest requests."""
        if not self._queue:
            return None
        return self._take()

    def _take(self) -> List[int]:
        count = self.max_batch_size
        batch, self._queue = self._queue[:count], self._queue[count:]
        self._arrivals = self._arrivals[count:]
        return batch
