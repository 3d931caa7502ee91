"""Random walks over heterogeneous graphs.

Two walk flavours:

- :func:`random_walk` — uniform walks that also record the edge type taken at
  each step.  This is the walk underlying WIDEN's deep neighbor sets
  (Definition 3): each position carries the edge linking it to its
  predecessor, which message packaging (Eq. 2) consumes.  One walk, one
  ``Generator``: the reference for :func:`random_walk_batch`, which advances
  every walker of a batch in lock-step and is what runs.
- :func:`node2vec_walk` — second-order biased walks (return parameter ``p``,
  in-out parameter ``q``) for the Node2Vec baseline.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.graph.hetero_graph import HeteroGraph
from repro.obs.tracing import span as trace_span
from repro.utils.rng import SeedLike, keyed_fractions, new_rng


def random_walk(
    graph: HeteroGraph,
    start: int,
    length: int,
    rng: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Uniform random walk of ``length`` steps from ``start``.

    Returns ``(nodes, edge_types)`` — both of length <= ``length`` (shorter
    only when the walk hits a node with no outgoing edges).  ``nodes``
    excludes ``start`` itself; ``edge_types[s]`` is the type of the edge
    between ``nodes[s]`` and its predecessor (``start`` for ``s == 0``),
    exactly the ``e_{s,s-1}`` of Eq. 2.
    """
    rng = new_rng(rng)
    with trace_span("graph.random_walk", start=int(start), length=int(length)):
        nodes: List[int] = []
        etypes: List[int] = []
        current = start
        for _ in range(length):
            neighbors, edge_types = graph.neighbors(current)
            if neighbors.size == 0:
                break
            pick = rng.integers(neighbors.size)
            current = int(neighbors[pick])
            nodes.append(current)
            etypes.append(int(edge_types[pick]))
        return np.asarray(nodes, dtype=np.int64), np.asarray(etypes, dtype=np.int64)


def random_walk_batch(
    graph: HeteroGraph,
    starts: np.ndarray,
    num_walks: int,
    length: int,
    seed: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``num_walks`` :func:`random_walk`s from every start, advanced in lock-step.

    Returns ``(nodes, edge_types, lengths)`` of shapes ``(B, num_walks,
    length)`` ×2 and ``(B, num_walks)``; slots beyond a walk's length are
    zero.  All ``B · num_walks`` walkers take step ``s`` together — one
    gather of their current nodes' CSR extents, one pick each — and a
    walker whose node has no outgoing edge drops out there.  Walk ``w`` of
    start ``v`` takes step ``s`` with draw ``(seed, v, w · length + s)`` of
    :func:`~repro.utils.rng.keyed_fractions`, so a walk depends on its start
    and the adjacency lists it crosses, not on what else is in the batch.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    starts = np.asarray(starts, np.int64)
    walkers = np.arange(starts.size * num_walks)
    # Step-major, (step, start, walk): what the walkers draw, and where
    # they write, at one step is one contiguous row.
    nodes = np.zeros((length, walkers.size), np.int64)
    edge_types = np.zeros((length, walkers.size), np.int64)
    lengths = np.full(walkers.size, length)
    fractions = keyed_fractions(
        seed,
        starts[:, np.newaxis],
        np.arange(length)[:, np.newaxis, np.newaxis] + np.arange(num_walks) * length,
    ).reshape(length, walkers.size)
    current = np.repeat(starts, num_walks)
    for step in range(length):
        begin, degree = graph.extents(current)
        if np.count_nonzero(degree) < degree.size:
            alive = degree > 0
            lengths[walkers[~alive]] = step
            walkers, begin, degree = walkers[alive], begin[alive], degree[alive]
            if walkers.size == 0:
                break
        slot = begin + (fractions[step][walkers] * degree >> 31)
        current = graph.indices[slot]
        nodes[step][walkers] = current
        edge_types[step][walkers] = graph.edge_type_of[slot]
    shape = (starts.size, num_walks, length)
    return (
        nodes.T.reshape(shape), edge_types.T.reshape(shape), lengths.reshape(shape[:2])
    )


def node2vec_walk(
    graph: HeteroGraph,
    start: int,
    length: int,
    p: float = 1.0,
    q: float = 1.0,
    rng: SeedLike = None,
) -> np.ndarray:
    """Second-order biased walk from Grover & Leskovec (2016).

    Transition weights relative to the previous node ``t``:
    ``1/p`` to return to ``t``, ``1`` to a common neighbor of ``t``,
    ``1/q`` to move farther away.  Returns the node sequence including
    ``start``.
    """
    if p <= 0 or q <= 0:
        raise ValueError(f"p and q must be positive, got p={p}, q={q}")
    rng = new_rng(rng)
    walk = [start]
    previous = -1
    for _ in range(length):
        current = walk[-1]
        neighbors, _ = graph.neighbors(current)
        if neighbors.size == 0:
            break
        if previous < 0:
            pick = int(neighbors[rng.integers(neighbors.size)])
        else:
            prev_neighbors = set(graph.neighbors(previous)[0].tolist())
            weights = np.empty(neighbors.size)
            for i, candidate in enumerate(neighbors):
                if candidate == previous:
                    weights[i] = 1.0 / p
                elif int(candidate) in prev_neighbors:
                    weights[i] = 1.0
                else:
                    weights[i] = 1.0 / q
            weights /= weights.sum()
            pick = int(neighbors[rng.choice(neighbors.size, p=weights)])
        previous = current
        walk.append(pick)
    return np.asarray(walk, dtype=np.int64)
