"""Graph partitioning — the reproduction's stand-in for METIS.

The paper partitions the Yelp graph with METIS so that full-graph baselines
(GCN, GAT, GTN, HAN, Node2Vec) can train one subgraph at a time.  We
implement the same role with a two-stage heuristic:

1. **BFS growth**: seed ``k`` parts with high-degree nodes and grow them in
   breadth-first waves, always extending the currently smallest part, which
   yields balanced, locally connected parts.
2. **Boundary refinement**: a Kernighan–Lin-flavoured pass that moves
   boundary nodes to the neighboring part where most of their edges live,
   subject to a balance constraint, reducing edge cut.

Both stages are sequential walks over one node at a time, so they run on
Python lists taken once from the CSR arrays: per-node numpy calls on
scalars cost more than the work they do.  Ties go to the lowest part id
(``np.argmin`` / ``np.argmax``'s first-extremum rule), so the parts are a
function of ``(graph, num_parts, rng)`` alone.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import List

import numpy as np

from repro.graph.hetero_graph import HeteroGraph
from repro.utils.rng import SeedLike, new_rng


def partition_graph(
    graph: HeteroGraph,
    num_parts: int,
    refine_passes: int = 2,
    balance_slack: float = 1.3,
    rng: SeedLike = None,
) -> List[np.ndarray]:
    """Split nodes into ``num_parts`` balanced, low-edge-cut parts.

    Returns a list of node-id arrays covering every node exactly once.
    """
    if num_parts < 1:
        raise ValueError(f"num_parts must be >= 1, got {num_parts}")
    if num_parts == 1:
        return [np.arange(graph.num_nodes, dtype=np.int64)]
    if num_parts > graph.num_nodes:
        raise ValueError(
            f"cannot split {graph.num_nodes} nodes into {num_parts} parts"
        )
    rng = new_rng(rng)
    adjacency = graph.indptr.tolist(), graph.indices.tolist()
    assignment = _bfs_grow(graph, adjacency, num_parts, rng)
    max_size = int(balance_slack * np.ceil(graph.num_nodes / num_parts))
    for _ in range(refine_passes):
        moved = _refine(adjacency, assignment, num_parts, max_size)
        if not moved:
            break
    assignment = np.frombuffer(assignment, dtype=np.int64)
    return [np.flatnonzero(assignment == part) for part in range(num_parts)]


def _bfs_grow(graph: HeteroGraph, adjacency, num_parts: int, rng) -> array:
    degrees = graph.degrees()
    # Seed with distinct high-degree nodes, jittered for tie-breaking.
    seeds = np.argsort(-(degrees + rng.random(graph.num_nodes)))[:num_parts].tolist()
    indptr, indices = adjacency
    # An int64 buffer, so the disconnected-component fallback can scan it
    # with numpy without a copy.
    assignment = array("q", [-1]) * graph.num_nodes
    frontiers = [deque([seed]) for seed in seeds]
    sizes = [1] * num_parts
    for part, seed in enumerate(seeds):
        assignment[seed] = part
    remaining = graph.num_nodes - num_parts
    while remaining > 0:
        # The smallest part that can still grow (lowest id on ties).
        part = -1
        for candidate in range(num_parts):
            if frontiers[candidate] and (part < 0 or sizes[candidate] < sizes[part]):
                part = candidate
        if part < 0:
            # All frontiers empty but nodes remain (disconnected components):
            # assign an arbitrary unvisited node to the smallest part.
            part = sizes.index(min(sizes))
            unassigned = np.flatnonzero(np.frombuffer(assignment, dtype=np.int64) == -1)
            node = int(unassigned[rng.integers(unassigned.size)])
            assignment[node] = part
            sizes[part] += 1
            frontiers[part].append(node)
            remaining -= 1
            continue
        frontier = frontiers[part]
        node = frontier.popleft()
        for neighbor in indices[indptr[node] : indptr[node + 1]]:
            if assignment[neighbor] == -1:
                assignment[neighbor] = part
                sizes[part] += 1
                frontier.append(neighbor)
                remaining -= 1
    return assignment


def _refine(adjacency, assignment: array, num_parts: int, max_size: int) -> int:
    indptr, indices = adjacency
    sizes = np.bincount(np.frombuffer(assignment, dtype=np.int64), minlength=num_parts).tolist()
    moved = 0
    for node in range(len(assignment)):
        start, stop = indptr[node], indptr[node + 1]
        if start == stop:
            continue
        current = assignment[node]
        counts = [0] * num_parts
        for neighbor in indices[start:stop]:
            counts[assignment[neighbor]] += 1
        best = counts.index(max(counts))  # first maximum
        gain = counts[best] - counts[current]
        if best != current and gain > 0 and sizes[best] < max_size and sizes[current] > 1:
            assignment[node] = best
            sizes[current] -= 1
            sizes[best] += 1
            moved += 1
    return moved
