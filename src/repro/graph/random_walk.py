"""Random walks over heterogeneous graphs.

Two walk flavours:

- :func:`random_walk` — uniform walks that also record the edge type taken at
  each step.  This is the walk underlying WIDEN's deep neighbor sets
  (Definition 3): each position carries the edge linking it to its
  predecessor, which message packaging (Eq. 2) consumes.  One walk, one
  ``Generator``: the reference for :func:`random_walk_batch`, which advances
  every walker of a batch in lock-step and is what runs.
- :func:`node2vec_walks` — second-order biased walks (return parameter
  ``p``, in-out parameter ``q``) for the Node2Vec baseline, many at once.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.graph.hetero_graph import HeteroGraph
from repro.obs.tracing import span as trace_span
from repro.utils.rng import SeedLike, keyed_fractions, new_rng

# Rejection rounds a node2vec step gives its walkers before the rest draw
# from normalised weights.  ``p = q = 1`` needs one round; the cap stops a
# walker whose candidates all carry a small weight (a leaf's way back under
# a large ``p``) from drawing about max/min weight times.  Caps of 1 to 64
# were timed (EXPERIMENTS.md, "Figure 4"): 1-2 were fastest or tied.
REJECTION_ROUNDS = 2


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
    count = starts.size * num_walks
    # Step-major, (step, start, walk): what the walkers draw, and where
    # they write, at one step is one contiguous row.
    nodes = np.zeros((length, count), np.int64)
    edge_types = np.zeros((length, count), np.int64)
    lengths = np.full(count, length)
    fractions = keyed_fractions(
        seed,
        starts[:, np.newaxis],
        np.arange(length)[:, np.newaxis, np.newaxis] + np.arange(num_walks) * length,
    ).reshape(length, count)
    current = np.repeat(starts, num_walks)
    # A whole-row slice until the first walker drops out: no gather needed.
    walkers = slice(None)
    for step in range(length):
        begin, degree = graph.extents(current)
        if np.count_nonzero(degree) < degree.size:
            alive = degree > 0
            walkers = np.arange(count)[walkers]
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


def node2vec_walks(
    graph: HeteroGraph,
    starts: np.ndarray,
    length: int,
    p: float = 1.0,
    q: float = 1.0,
    rng: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Second-order biased walks (Grover & Leskovec, 2016), one per start,
    advanced in lock-step.

    Transition weights relative to the previous node ``t``: ``1/p`` to
    return to ``t``, ``1`` to a common neighbor of ``t``, ``1/q`` to move
    farther away.  A step is drawn by rejection: a uniform pick from the
    current list is kept with probability weight / max weight, and the
    walkers that rejected draw again — a single round at ``p = q = 1``.
    Walkers still rejecting after :data:`REJECTION_ROUNDS` rounds draw from
    their list's normalised weights, so a step costs at most that many
    rounds plus one pass over those walkers' lists, whatever ``p`` and ``q``
    are; both draws are exact.  Returns ``(walks, lengths)``: ``(W, length
    + 1)`` node ids, each row starting at its start, and each row's count
    of valid entries (fewer only when the walk reaches a node with no
    out-edges); slots beyond are zero.
    """
    if p <= 0 or q <= 0:
        raise ValueError(f"p and q must be positive, got p={p}, q={q}")
    rng = new_rng(rng)
    starts = np.asarray(starts, np.int64)
    n = graph.num_nodes
    # One key u·n + v per edge, sorted: "v is a neighbor of u" is a search.
    edge_keys = np.sort(np.repeat(np.arange(n), graph.degrees()) * n + graph.indices)
    keep_odds = np.array([1.0 / p, 1.0, 1.0 / q])  # return, common, farther
    keep_odds /= keep_odds.max()

    def weights(previous: np.ndarray, candidate: np.ndarray) -> np.ndarray:
        key = previous * n + candidate
        found = np.searchsorted(edge_keys, key)
        common = edge_keys[np.minimum(found, edge_keys.size - 1)] == key
        return keep_odds[np.where(candidate == previous, 0, np.where(common, 1, 2))]

    walks = np.zeros((starts.size, length + 1), np.int64)
    walks[:, 0] = starts
    lengths = np.ones(starts.size, np.int64)
    alive = np.arange(starts.size)
    for step in range(1, length + 1):
        begin, degree = graph.extents(walks[alive, step - 1])
        moving = degree > 0
        alive, begin, degree = alive[moving], begin[moving], degree[moving]
        if alive.size == 0:
            break
        previous = walks[alive, step - 2] if step > 1 else None
        picks = np.empty(alive.size, np.int64)
        pending = np.arange(alive.size)
        for _ in range(REJECTION_ROUNDS):
            if pending.size == 0:
                break
            candidate = graph.indices[begin[pending] + rng.integers(degree[pending])]
            if previous is None:
                kept = np.ones(pending.size, bool)
            else:
                kept = rng.random(pending.size) < weights(previous[pending], candidate)
            picks[pending[kept]] = candidate[kept]
            pending = pending[~kept]
        if pending.size:
            # Every entry of the remaining walkers' lists, row after row,
            # and one inverse-CDF draw per row over the running weight sum.
            sizes = degree[pending]
            ends = np.cumsum(sizes)
            entries = np.arange(ends[-1]) + np.repeat(begin[pending] - (ends - sizes), sizes)
            candidate = graph.indices[entries]
            total = np.cumsum(weights(np.repeat(previous[pending], sizes), candidate))
            high = total[ends - 1]
            low = np.concatenate(([0.0], high[:-1]))
            chosen = np.searchsorted(total, low + rng.random(pending.size) * (high - low), "right")
            picks[pending] = candidate[np.clip(chosen, ends - sizes, ends - 1)]
        walks[alive, step] = picks
        lengths[alive] = step + 1
    return walks, lengths
