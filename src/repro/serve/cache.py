"""Capacity-bounded LRU answer cache with per-entry read sets.

An entry is the whole answer for one node, its embedding and the head's
label, plus what it depended on: the *read set* of its sample (the ids
whose adjacency lists the sampler consulted, see
:meth:`repro.core.state.NeighborTable.read_sets`) and the *stamp*, the
server's write clock when it was computed.  :func:`fresh_mask` is the one
freshness rule every materialization tier shares — cache entries and
store rows, built offline or refreshed since, alike: an entry is exact
until a write touches one of the lists it read.  :class:`WriteClock` holds
the state the rule reads and the one rule by which a write advances it.

Stale entries are not found at lookup time; the server sweeps the resident
entries (at most ``capacity``) once per write with :meth:`stale_nodes` and
drops what the rule rejects through :meth:`invalidate_nodes`, so every
resident entry is fresh and a lookup stays a dict probe.  Read sets and
stamps live in two slot-indexed arrays, which makes the sweep one gather
instead of a loop over entries.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np


def fresh_mask(
    touched_at: np.ndarray, reads: np.ndarray, stamps: np.ndarray
) -> np.ndarray:
    """Which materializations are still exact: the one freshness rule.

    ``touched_at[u]`` is the write clock of the last write that changed
    ``u``'s adjacency list; row ``i`` of ``reads`` is the read set of a
    materialization made at clock ``stamps[i]``.  It is fresh iff nothing
    it read was touched since.  Read sets are padded with a member id, so
    the gather needs no mask.
    """
    return touched_at[reads].max(axis=1) <= stamps


class WriteClock:
    """The freshness state :func:`fresh_mask` reads, and the rule that
    advances it: the write clock and, per node, the clock of the last write
    that changed its adjacency list.

    Every write is one tick.  An arrival extends the array and stamps the
    new ids (no existing list changed), ``add_edges`` stamps the event's
    ``sources``, and a rewire of unknown extent stamps every node.  A store
    built at another graph version saw writes this clock never counted, so
    attaching one stamps every node too.  The rule is a function of the
    write stream alone, so a whole-graph server, every shard of a fleet and
    the fleet's coordinator, each fed the same writes, hold the same state.
    """

    def __init__(self, num_nodes: int) -> None:
        self.clock = 0
        self.touched_at = np.zeros(num_nodes, dtype=np.int64)

    def touch(self, nodes: np.ndarray) -> None:
        self.clock += 1
        self.touched_at[nodes] = self.clock

    def observe(self, graph) -> Tuple[np.ndarray, str]:
        """Stamp what ``graph.last_mutation`` touched (a graph mutation
        hook).  Returns the touched ids and the ``reason`` label."""
        event = graph.last_mutation
        arrived = graph.num_nodes - self.touched_at.size
        if arrived > 0:
            self.touched_at = np.concatenate(
                [self.touched_at, np.zeros(arrived, dtype=np.int64)]
            )
        if event.kind == "add_nodes":
            touched, reason = event.nodes, "frontier"
        elif event.sources.size or event.kind == "add_edges":
            # Read sets name the dependents of a changed list exactly.
            touched, reason = event.sources, "frontier"
        else:
            touched, reason = np.arange(graph.num_nodes), "full"
        self.touch(touched)
        return touched, reason

    def attach_store(self, store, graph) -> None:
        """Base store rows carry stamp 0, comparable only when the store
        was built from the graph as it is now."""
        if int(store.meta["graph_version"]) != graph.version:
            self.touch(np.arange(graph.num_nodes))

    def export(self, graph) -> Dict[str, object]:
        """The state as plain data.  The stamps are sparse: the nodes a
        write has reached (``touched_nodes``, ascending) and the clock of
        the last write to each (``touched_at``), two int64 arrays."""
        touched = np.flatnonzero(self.touched_at)
        return {
            "clock": int(self.clock),
            "touched_nodes": touched.astype(np.int64, copy=False),
            "touched_at": self.touched_at[touched],
            "graph_version": int(graph.version),
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Adopt an exported clock and stamps."""
        self.clock = int(state["clock"])
        self.touched_at = np.zeros_like(self.touched_at)
        self.touched_at[np.asarray(state["touched_nodes"], np.int64)] = (
            state["touched_at"]
        )


def state_differences(
    got: Dict[str, object], want: Dict[str, object]
) -> List[str]:
    """The keys of ``want`` (a :meth:`WriteClock.export`) on which ``got``
    differs, arrays compared element by element."""
    return [key for key in want if not np.array_equal(got.get(key), want[key])]


class EmbeddingCache:
    """LRU cache of per-node answers with hit/miss/eviction accounting.

    An answer is ``(embedding, label)``, the label computed by the head in
    the batch that computed the embedding, so a classify hit runs no head.
    Eviction and both invalidations drop the two together.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[int, Tuple[np.ndarray, int]]" = OrderedDict()
        # Dependency tables, one row ("slot") per resident entry: the node
        # (-1: free slot), its stamp and its read set.  The read-set table
        # widens to the longest read set seen; shorter ones and free slots
        # are padded with ids that are valid to gather through.
        self._slot_of: Dict[int, int] = {}
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self._slot_nodes = np.full(capacity, -1, np.int64)
        self._stamps = np.zeros(capacity, np.int64)
        self._reads = np.zeros((capacity, 1), np.int64)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        # Per-node hit counts — the skew signal capacity
        # planning reads: a heavy-tailed histogram means a few hot nodes
        # carry the hit rate and capacity can shrink; a flat one means the
        # working set really is this wide.
        self.node_hits: "Counter[int]" = Counter()
        # Per-node dropped-entry counts — the audit trail of fine-grained
        # invalidation: after a mutation, exactly the entries whose read
        # set met the change should appear here and nothing else.
        self.node_invalidations: "Counter[int]" = Counter()

    def get(self, node: int) -> Optional[Tuple[np.ndarray, int]]:
        """``(embedding, label)`` for ``node``; None on miss."""
        node = int(node)
        entry = self._entries.get(node)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(node)
        self.hits += 1
        self.node_hits[node] += 1
        return entry

    def put(
        self,
        node: int,
        embedding: np.ndarray,
        label: int,
        *,
        stamp: int = 0,
        reads: Optional[np.ndarray] = None,
    ) -> None:
        """Insert the answer ``(embedding, label)`` made at write clock
        ``stamp`` from a sample that read the adjacency lists of ``reads``
        (default: the node's own)."""
        node = int(node)
        slot = self._slot_of.get(node)
        if slot is None:
            if len(self._entries) >= self.capacity:
                self._release(self._entries.popitem(last=False)[0])
                self.evictions += 1
            slot = self._free.pop()
            self._slot_of[node] = slot
            self._slot_nodes[slot] = node
        self._entries[node] = (np.asarray(embedding), int(label))
        self._entries.move_to_end(node)
        self._stamps[slot] = stamp
        width = 1 if reads is None else len(reads)
        if width > self._reads.shape[1]:
            wider = np.repeat(np.maximum(self._slot_nodes, 0)[:, None], width, axis=1)
            wider[:, : self._reads.shape[1]] = self._reads
            self._reads = wider
        self._reads[slot] = node
        if reads is not None:
            self._reads[slot, :width] = reads

    def _release(self, node: int) -> None:
        slot = self._slot_of.pop(node)
        self._slot_nodes[slot] = -1
        self._free.append(slot)

    def stale_nodes(self, touched_at: np.ndarray) -> np.ndarray:
        """Ids of the resident entries :func:`fresh_mask` rejects.

        One gather over the slot tables — at most ``capacity`` rows,
        whatever the size of the graph or of the write.
        """
        stale = ~fresh_mask(touched_at, self._reads, self._stamps)
        return self._slot_nodes[stale & (self._slot_nodes >= 0)]

    def invalidate(self) -> int:
        """Drop every entry; returns how many were removed."""
        return self._drop(list(self._entries))

    def invalidate_nodes(self, nodes: Iterable[int]) -> int:
        """Drop the resident entries of the given node ids; returns count.

        The fine-grained invalidation path: a mutation hook passes the ids
        the freshness rule rejected and everything else stays warm.  Each
        dropped entry is recorded in :attr:`node_invalidations`.  The
        resident ids (at most ``capacity``) are tested against ``nodes``
        in one vectorized membership check over the slot table.
        """
        if not isinstance(nodes, np.ndarray):
            nodes = np.fromiter(nodes, dtype=np.int64)
        hit = np.isin(self._slot_nodes, nodes) & (self._slot_nodes >= 0)
        return self._drop(self._slot_nodes[hit].tolist())

    def _drop(self, victims: List[int]) -> int:
        for node in victims:
            del self._entries[node]
            self._release(node)
            self.node_invalidations[node] += 1
        self.invalidations += len(victims)
        return len(victims)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node: int) -> bool:
        return int(node) in self._entries

    def __repr__(self) -> str:
        return (
            f"EmbeddingCache(size={len(self)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )
