"""Neighbor sampling: wide sets (Definition 2) and deep walks (Definition 3).

Both samplers return small dataclasses holding parallel arrays of global node
ids and edge types.  WIDEN's neighbor state mutates *copies* of these during
downsampling; the samplers themselves are pure.

:func:`sample_wide` and :func:`sample_deep` draw for one node from a
``Generator``; they are the reference.  What runs is
:func:`sample_wide_batch` (and :func:`~repro.graph.random_walk.random_walk_batch`):
many targets at once, straight off the CSR, draws keyed by ``(seed, node)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Tuple

import numpy as np

from repro.graph.hetero_graph import HeteroGraph
from repro.graph.random_walk import random_walk
from repro.obs.tracing import span as trace_span
from repro.utils.rng import SeedLike, keyed_draws, keyed_fractions, new_rng


@dataclass
class WideNeighborSet:
    """Sampled first-order neighborhood W(v_t) of a target node.

    ``nodes[n]`` is the global id of local-index-``n`` neighbor; ``etypes[n]``
    the type of the edge connecting it to the target.  Local indexes are
    implicit array positions (the paper's ``(n, i)`` tuples).
    """

    target: int
    nodes: np.ndarray
    etypes: np.ndarray

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=np.int64)
        self.etypes = np.asarray(self.etypes, dtype=np.int64)
        if self.nodes.shape != self.etypes.shape:
            raise ValueError("nodes/etypes length mismatch")

    def __len__(self) -> int:
        return int(self.nodes.shape[0])

    def drop(self, local_index: int) -> "WideNeighborSet":
        """Return a copy without the neighbor at ``local_index`` (Alg. 1 core)."""
        if not 0 <= local_index < len(self):
            raise IndexError(f"local index {local_index} out of range 0..{len(self)-1}")
        keep = np.arange(len(self)) != local_index
        return WideNeighborSet(self.target, self.nodes[keep], self.etypes[keep])


@dataclass
class DeepNeighborSet:
    """A deep random-walk neighbor sequence D(v_t).

    ``nodes[s]`` is the s-th walk node (target excluded); ``etypes[s]`` types
    the edge to its predecessor (the target for ``s == 0``).  ``relays[s]``
    is ``None`` for ordinary edges, or a *relay recipe* — the list of message
    packs absorbed into a contextualized relay edge during pruning (Eq. 8).
    Each recipe entry is a ``(node_id, etype, inner_relays)`` tuple so the
    relay edge can be recomputed from current embeddings every forward pass,
    keeping it trainable.
    """

    target: int
    nodes: np.ndarray
    etypes: np.ndarray
    relays: List[object] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=np.int64)
        self.etypes = np.asarray(self.etypes, dtype=np.int64)
        if self.nodes.shape != self.etypes.shape:
            raise ValueError("nodes/etypes length mismatch")
        if not self.relays:
            self.relays = [None] * len(self.nodes)
        if len(self.relays) != len(self.nodes):
            raise ValueError("relays length mismatch")

    def __len__(self) -> int:
        return int(self.nodes.shape[0])


def sample_wide(
    graph: HeteroGraph,
    target: int,
    num_wide: int,
    rng: SeedLike = None,
) -> WideNeighborSet:
    """Uniformly sample up to ``num_wide`` first-order neighbors of ``target``.

    Sampling is *without replacement* when the degree allows it, and with
    replacement otherwise (the GraphSAGE convention the paper builds on), so
    the returned set always has ``min(num_wide, 1) <= len <= num_wide`` except
    for isolated nodes which yield an empty set.
    """
    if num_wide < 1:
        raise ValueError(f"num_wide must be >= 1, got {num_wide}")
    rng = new_rng(rng)
    with trace_span("graph.sample_wide", target=int(target)):
        neighbors, etypes = graph.neighbors(target)
        if neighbors.size == 0:
            return WideNeighborSet(
                target, np.empty(0, np.int64), np.empty(0, np.int64)
            )
        if neighbors.size >= num_wide:
            pick = rng.choice(neighbors.size, size=num_wide, replace=False)
        else:
            pick = rng.choice(neighbors.size, size=num_wide, replace=True)
        return WideNeighborSet(target, neighbors[pick], etypes[pick])


def sample_deep(
    graph: HeteroGraph,
    target: int,
    num_deep: int,
    rng: SeedLike = None,
) -> DeepNeighborSet:
    """Sample one deep neighbor sequence: a random walk of length ``num_deep``."""
    if num_deep < 1:
        raise ValueError(f"num_deep must be >= 1, got {num_deep}")
    with trace_span("graph.sample_deep", target=int(target)):
        nodes, etypes = random_walk(graph, target, num_deep, rng=rng)
        return DeepNeighborSet(target, nodes, etypes)


def sample_wide_batch(
    graph: HeteroGraph,
    targets: np.ndarray,
    num_wide: int,
    seed: int,
    first_counter: int = 0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`sample_wide` for many targets at once, straight off the CSR.

    Returns ``(nodes, etypes, lengths)`` — ``(B, num_wide)`` grids whose row
    ``b`` holds ``lengths[b]`` picks (slots beyond are zero).  The sampling
    distribution is :func:`sample_wide`'s; draw ``j`` of a target is
    :func:`~repro.utils.rng.keyed_draws` at ``(seed, target, first_counter +
    j)``, so a row depends on its target's adjacency list and nothing else
    in the batch:

    - degree below the cap — pick ``j`` is slot ``⌊u_j · degree⌋`` of the
      list;
    - degree at or above it — slot ``j`` of the list gets draw ``j`` as its
      key and the ``num_wide`` slots with the smallest keys are taken in
      key order: a uniform ordered subset without replacement, by one sort
      segmented over the batch's lists.
    """
    if num_wide < 1:
        raise ValueError(f"num_wide must be >= 1, got {num_wide}")
    targets = np.asarray(targets, np.int64)
    start, degree = graph.extents(targets)
    positions = np.arange(num_wide)
    lengths = np.where(degree > 0, num_wide, 0)
    slots = (
        keyed_fractions(seed, targets[:, np.newaxis], first_counter + positions)
        * degree[:, np.newaxis]
    ) >> 31
    capped = np.flatnonzero(degree >= num_wide)
    if capped.size:
        sizes = degree[capped]
        begins = np.cumsum(sizes) - sizes
        segment = np.repeat(np.arange(capped.size), sizes)
        slot = np.arange(segment.size) - begins[segment]
        keys = keyed_draws(seed, targets[capped][segment], first_counter + slot)
        order = np.lexsort((keys, segment))
        slots[capped] = slot[order[begins[:, np.newaxis] + positions]]
    valid = positions < lengths[:, np.newaxis]
    picks = (start[:, np.newaxis] + slots)[valid]
    nodes = np.zeros((targets.size, num_wide), np.int64)
    etypes = np.zeros((targets.size, num_wide), np.int64)
    nodes[valid] = graph.indices[picks]
    etypes[valid] = graph.edge_type_of[picks]
    return nodes, etypes, lengths
