"""Capacity-bounded LRU embedding cache keyed on ``(node_id, graph_version)``.

Versioned keys make stale reads *structurally* impossible: a streaming
mutation bumps ``HeteroGraph.version``, so every subsequent lookup misses the
pre-mutation entries regardless of what is still resident.  The server
additionally drops dead-version entries eagerly from its mutation hook
(:meth:`EmbeddingCache.invalidate`) so they stop occupying capacity.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.obs.metrics import Histogram

Key = Tuple[int, int]  # (node_id, graph_version)


class EmbeddingCache:
    """LRU cache of per-node embeddings with hit/miss/eviction accounting."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Key, np.ndarray]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        # Per-node hit counts (across versions) — the skew signal capacity
        # planning reads: a heavy-tailed histogram means a few hot nodes
        # carry the hit rate and capacity can shrink; a flat one means the
        # working set really is this wide.
        self.node_hits: "Counter[int]" = Counter()
        # Per-node dropped-entry counts — the audit trail of fine-grained
        # invalidation: after a mutation, exactly the k-hop frontier should
        # appear here and nothing else.
        self.node_invalidations: "Counter[int]" = Counter()

    def get(self, node: int, version: int) -> Optional[np.ndarray]:
        """Embedding for ``node`` at graph ``version``; None on miss."""
        key = (int(node), int(version))
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self.node_hits[key[0]] += 1
        return entry

    def node_hit_histogram(self) -> Histogram:
        """Distribution of per-node hit counts as a shared Histogram."""
        histogram = Histogram("cache_node_hits")
        histogram.observe_many(float(count) for count in self.node_hits.values())
        return histogram

    def put(self, node: int, version: int, embedding: np.ndarray) -> None:
        key = (int(node), int(version))
        self._entries[key] = np.asarray(embedding)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate(
        self, nodes: Optional[Iterable[int]] = None, *, keep_version: Optional[int] = None
    ) -> int:
        """Drop entries; returns how many were removed.

        ``nodes=None`` drops everything (or, with ``keep_version``, every
        entry from *other* versions — the mutation-hook fast path).
        ``nodes`` drops all versions of the given ids.
        """
        if nodes is not None:
            return self.invalidate_nodes(nodes)
        if keep_version is None:
            return self._drop(list(self._entries))
        return self._drop([key for key in self._entries if key[1] != keep_version])

    def invalidate_nodes(self, nodes: Iterable[int]) -> int:
        """Drop every resident entry of the given node ids; returns count.

        The fine-grained invalidation path: a mutation hook passes the k-hop
        frontier of the change and everything outside it stays warm.  Each
        dropped entry is recorded in :attr:`node_invalidations`.  The
        resident keys (at most ``capacity``) are tested against ``nodes``
        in one vectorized membership check, so the cost does not grow with
        a frontier that spans most of the graph.
        """
        keys = list(self._entries)
        if not isinstance(nodes, np.ndarray):
            nodes = np.fromiter(nodes, dtype=np.int64)
        resident = np.fromiter((key[0] for key in keys), np.int64, len(keys))
        return self._drop(
            [keys[i] for i in np.flatnonzero(np.isin(resident, nodes))]
        )

    def _drop(self, victims) -> int:
        for key in victims:
            del self._entries[key]
            self.node_invalidations[key[0]] += 1
        self.invalidations += len(victims)
        return len(victims)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Key) -> bool:
        return (int(key[0]), int(key[1])) in self._entries

    def __repr__(self) -> str:
        return (
            f"EmbeddingCache(size={len(self)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )
