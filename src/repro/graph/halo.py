"""k-hop reachability helpers for halo replication and cache invalidation.

WIDEN's serving path is local by construction: embedding a target samples a
wide (1-hop) neighbor set and Φ random walks of length ``num_deep``, so the
computation only ever *queries the adjacency list* of nodes within
``num_deep - 1`` out-hops of the target and only ever *reads the features*
of nodes within ``num_deep`` hops.  Two consequences, both computed here
with vectorized multi-source BFS:

- **Halo replication** (``repro.cluster``): a shard that materializes every
  out-edge of nodes within ``reach - 1`` hops of its owned set can serve any
  owned node bit-identically to a whole-graph server — the sampled
  neighborhoods are shard-local.  :func:`k_hop_out` computes that reach.
- **Fine-grained invalidation** (``repro.serve``): an ``add_edges`` mutation
  changes the adjacency lists of its endpoints only; the embeddings that can
  observe the change are exactly the nodes within ``reach - 1`` *in*-hops of
  a changed list.  :func:`mutation_frontier` computes that set so the rest
  of the embedding cache stays warm.

The graph is append-only, so a reach only ever grows.  The shard planner
therefore keeps capped hop *distances* (:func:`out_hops` / :func:`in_hops`)
instead of reach sets and repairs them from the new edges alone
(:func:`relax_out_hops` / :func:`relax_in_hops`): which nodes just entered
a closure or a halo falls out of what moved, without a fresh BFS per write.
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


# ----------------------------------------------------------------------
# Hop distances, kept current under edge insertion (shard planner)
# ----------------------------------------------------------------------


def out_edge_slots(graph: HeteroGraph, nodes: np.ndarray):
    """``(sources, slots)`` of every out-edge of ``nodes``: its source and
    its position in the CSR arrays (``graph.indices[slots]`` are the heads),
    list by list in CSR order — one gather, no per-node python loop."""
    starts = graph.indptr[nodes]
    counts = graph.indptr[nodes + 1] - starts
    total = int(counts.sum())
    slots = np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(total)
    return np.repeat(nodes, counts), slots


def _out_edges(graph: HeteroGraph, nodes: np.ndarray):
    """``(tails, heads)`` of every out-edge of ``nodes``."""
    tails, slots = out_edge_slots(graph, nodes)
    return tails, graph.indices[slots]


def _in_edges(graph: HeteroGraph, nodes: np.ndarray):
    """``(tails, heads)`` of every in-edge of ``nodes``, walked backwards
    (tail in ``nodes``, head its predecessor): one scan of the edge array —
    O(E), no reverse CSR kept."""
    wanted = np.zeros(graph.num_nodes, dtype=bool)
    wanted[nodes] = True
    into = wanted[graph.indices]
    return graph.indices[into], graph._src[into]


def _lower(hops: np.ndarray, tails: np.ndarray, heads: np.ndarray, depth: int) -> np.ndarray:
    """``hops[head] = min(hops[head], hops[tail] + 1)`` wherever that is an
    improvement within ``depth``; returns the lowered heads (sorted)."""
    reached = hops[tails] + 1
    better = (reached < hops[heads]) & (reached <= depth)
    heads = heads[better]
    np.minimum.at(hops, heads, reached[better])
    lowered = np.zeros(hops.size, dtype=bool)  # dedupe without a sort
    lowered[heads] = True
    return np.flatnonzero(lowered)


def _settle(graph: HeteroGraph, hops: np.ndarray, lowered: np.ndarray, depth: int, edges_of) -> np.ndarray:
    """Propagate lowered distances along ``edges_of`` until nothing moves;
    returns every id that was lowered, ``lowered`` included (sorted)."""
    moved = np.zeros(hops.size, dtype=bool)
    while lowered.size:
        moved[lowered] = True
        lowered = _lower(hops, *edges_of(graph, lowered), depth)
    return np.flatnonzero(moved)


def _hops(graph: HeteroGraph, seeds, depth: int, edges_of) -> np.ndarray:
    seeds = _as_seed_array(seeds)
    hops = np.full(graph.num_nodes, depth + 1, dtype=np.int64)
    hops[seeds] = 0
    _settle(graph, hops, seeds, depth, edges_of)
    return hops


def out_hops(graph: HeteroGraph, seeds, depth: int) -> np.ndarray:
    """Out-hop distance from ``seeds`` to every node, capped: ``depth + 1``
    stands for "farther than ``depth``" (unreachable included)."""
    return _hops(graph, seeds, depth, _out_edges)


def in_hops(graph: HeteroGraph, seeds, depth: int) -> np.ndarray:
    """Out-hop distance from every node *to* ``seeds``, capped like
    :func:`out_hops`."""
    return _hops(graph, seeds, depth, _in_edges)


def relax_out_hops(graph: HeteroGraph, hops: np.ndarray, src, dst, depth: int) -> np.ndarray:
    """Repair :func:`out_hops` distances in place after edges ``src -> dst``
    were added to ``graph``; returns the ids whose distance dropped.

    Edges are only ever added, so distances only fall: the new edges are
    relaxed once and the drops propagated — O(new edges + what moved)
    instead of a fresh BFS.
    """
    return _settle(graph, hops, _lower(hops, src, dst, depth), depth, _out_edges)


def relax_in_hops(graph: HeteroGraph, hops: np.ndarray, src, dst, depth: int) -> np.ndarray:
    """:func:`relax_out_hops` for :func:`in_hops` distances."""
    return _settle(graph, hops, _lower(hops, dst, src, depth), depth, _in_edges)
