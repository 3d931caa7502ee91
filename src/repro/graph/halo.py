"""k-hop reachability: what a sample can read, what a write can reach.

WIDEN's serving path is local by construction: embedding a target samples a
wide (1-hop) neighbor set and Φ random walks of length ``num_deep``, so the
computation only ever *queries the adjacency list* of nodes within
``num_deep - 1`` out-hops of the target and only ever *reads the features*
of nodes within ``num_deep`` hops.  Two vectorized multi-source BFS helpers
measure that locality:

- :func:`k_hop_out` — everything a set of targets can read.  It is how
  EXPERIMENTS.md ("What a shard holds") measured that the reach of a
  shard's owned set is the whole graph at every scale this repo runs —
  which is why a shard (``repro.cluster``) is a full replica and no halo
  is maintained.
- :func:`k_hop_in` / :func:`mutation_frontier` — everything that can read a
  changed list within a reach.  Serving invalidates by read set instead;
  ``mutation_frontier`` stays a name the wall-clock benchmark wraps.
"""

from __future__ import annotations

import numpy as np

from repro.graph.hetero_graph import HeteroGraph


def _as_seed_array(seeds) -> np.ndarray:
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    return seeds


def k_hop_out(graph: HeteroGraph, seeds, depth: int) -> np.ndarray:
    """Nodes reachable from ``seeds`` within ``depth`` out-hops (inclusive).

    Returns a sorted id array that always contains ``seeds`` themselves
    (depth 0).  Runs one vectorized frontier expansion per level — no
    per-node python loops — so it is cheap enough to recompute per mutation.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    seeds = _as_seed_array(seeds)
    if seeds.size and (seeds[0] < 0 or seeds[-1] >= graph.num_nodes):
        raise IndexError("seed ids out of range")
    visited = np.zeros(graph.num_nodes, dtype=bool)
    visited[seeds] = True
    frontier = seeds
    for _ in range(depth):
        if frontier.size == 0:
            break
        starts = graph.indptr[frontier]
        stops = graph.indptr[frontier + 1]
        counts = stops - starts
        total = int(counts.sum())
        if total == 0:
            break
        # Gather the concatenation of every frontier node's neighbor slice.
        offsets = np.repeat(starts, counts) + (
            np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        )
        neighbors = graph.indices[offsets]
        fresh = neighbors[~visited[neighbors]]
        if fresh.size == 0:
            break
        frontier = np.unique(fresh)
        visited[frontier] = True
    return np.flatnonzero(visited)


def k_hop_in(graph: HeteroGraph, seeds, depth: int) -> np.ndarray:
    """Nodes that can *reach* ``seeds`` within ``depth`` out-hops (inclusive).

    The reverse of :func:`k_hop_out`: BFS along in-edges.  Each level is one
    ``isin`` scan over the edge array — O(E) per level, no reverse CSR kept.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    seeds = _as_seed_array(seeds)
    if seeds.size and (seeds[0] < 0 or seeds[-1] >= graph.num_nodes):
        raise IndexError("seed ids out of range")
    visited = np.zeros(graph.num_nodes, dtype=bool)
    visited[seeds] = True
    frontier_mask = np.zeros(graph.num_nodes, dtype=bool)
    frontier_mask[seeds] = True
    for _ in range(depth):
        if not frontier_mask.any():
            break
        into_frontier = frontier_mask[graph.indices]
        predecessors = graph._src[into_frontier]
        frontier_mask = np.zeros(graph.num_nodes, dtype=bool)
        frontier_mask[predecessors] = True
        frontier_mask &= ~visited
        visited |= frontier_mask
    return np.flatnonzero(visited)


def mutation_frontier(graph: HeteroGraph, changed_sources, reach: int) -> np.ndarray:
    """Node ids whose served embedding may observe changed adjacency lists.

    ``changed_sources`` are the nodes whose out-edge lists were mutated;
    ``reach`` is the model's sampling reach (walk length): a target queries
    adjacency lists up to ``reach - 1`` hops out, so the affected set is
    everything within ``reach - 1`` in-hops of a changed list.  Computed on
    the *post-mutation* graph, whose edge set is a superset of the
    pre-mutation one, so the answer over-approximates safely.
    """
    if reach < 1:
        raise ValueError(f"reach must be >= 1, got {reach}")
    return k_hop_in(graph, changed_sources, reach - 1)
