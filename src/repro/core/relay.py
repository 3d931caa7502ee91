"""Downsampling steps: Algorithm 1 (wide) and Algorithm 2 (deep).

The deep pruning step implements **contextualized relay edges** (Eq. 8 and
Fig. 2 of the paper).  When the pack at position ``s'`` is deleted from a
deep sequence, its successor's edge must not simply rejoin the sequence —
that would fabricate a relation that never existed ("T. Kipf authored ResNet
Paper" in the paper's example).  Instead the successor's edge becomes::

    relay = maxpool(e_{s'+1,s'}, m_{s'})        # Eq. 8
    m_{s'+1} <- v_{s'+1} ⊙ relay

Because ``m_{s'}`` is computed from *trainable* node projections and edge
embeddings, we do not bake the relay into a constant vector.  We store a
:class:`RelayRecipe` — the symbolic composition — and re-evaluate it with
current parameters on every forward pass, keeping the relay differentiable
end to end.  Repeated prunes nest recipes naturally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.graph.sampling import DeepNeighborSet, WideNeighborSet

EdgeSpecLike = Union[int, "RelayRecipe"]


@dataclass(frozen=True)
class RelayRecipe:
    """Symbolic contextualized relay edge.

    Evaluates (in :meth:`WidenModel.edge_vector`) to::

        maxpool(edge_vector(outer), v[deleted_node] ⊙ edge_vector(deleted))

    ``outer`` is the surviving pack's previous edge spec (``e_{s'+1,s'}``);
    ``deleted_node``/``deleted`` reconstruct the deleted pack ``m_{s'}``.
    Specs are either plain edge-type ids or nested recipes from earlier
    prunes.
    """

    outer: EdgeSpecLike
    deleted_node: int
    deleted: EdgeSpecLike

    def depth(self) -> int:
        """Nesting depth (1 for a first prune), used in tests/diagnostics."""
        inner = 0
        for spec in (self.outer, self.deleted):
            if isinstance(spec, RelayRecipe):
                inner = max(inner, spec.depth())
        return inner + 1


def shrink_wide(wide: WideNeighborSet, weights: np.ndarray) -> WideNeighborSet:
    """Algorithm 1: drop the wide neighbor with the smallest attention.

    ``weights`` is the full attention distribution over ``len(wide) + 1``
    packs, position 0 being the target's own pack ``m_t°`` (excluded from
    deletion, line 3 of Algorithm 1).
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(wide) + 1,):
        raise ValueError(
            f"expected {len(wide) + 1} attention weights, got {weights.shape}"
        )
    if len(wide) == 0:
        raise ValueError("cannot shrink an empty wide neighbor set")
    victim = int(np.argmin(weights[1:]))
    return wide.drop(victim)


def prune_deep(
    deep: DeepNeighborSet, weights: np.ndarray, use_relay: bool = True
) -> DeepNeighborSet:
    """Algorithm 2: prune one deep pack, installing a relay edge (Eq. 8).

    ``weights`` covers ``len(deep) + 1`` packs with the target's pack first.
    With ``use_relay=False`` (the Table-4 "Removing Relay Edges" ablation)
    the deleted pack is discarded outright and the successor keeps — i.e.
    falsifies — its original edge.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(deep) + 1,):
        raise ValueError(
            f"expected {len(deep) + 1} attention weights, got {weights.shape}"
        )
    if len(deep) == 0:
        raise ValueError("cannot prune an empty deep neighbor set")
    victim = int(np.argmin(weights[1:]))

    nodes = np.delete(deep.nodes, victim)
    etypes = np.delete(deep.etypes, victim)
    relays = list(deep.relays)
    deleted_node = int(deep.nodes[victim])
    deleted_spec: EdgeSpecLike = (
        relays[victim] if relays[victim] is not None else int(deep.etypes[victim])
    )
    del relays[victim]
    if use_relay and victim < len(deep) - 1:
        # The old position victim+1 is now at index `victim` after deletion.
        successor_old_spec: EdgeSpecLike = (
            relays[victim] if relays[victim] is not None else int(etypes[victim])
        )
        relays[victim] = RelayRecipe(
            outer=successor_old_spec,
            deleted_node=deleted_node,
            deleted=deleted_spec,
        )
    return DeepNeighborSet(deep.target, nodes, etypes, relays)


def flatten_recipes(recipes) -> tuple:
    """Recipe trees as one ``int64 (K, 3)`` table plus each tree's root row.

    A table row is ``(outer, deleted_node, deleted)``, children before their
    parent; a spec ``>= 0`` is an edge-type id and ``-(1 + k)`` names row
    ``k``.  :func:`unflatten_recipes` is the inverse.
    """
    rows = []

    def row_of(recipe: RelayRecipe) -> int:
        outer, deleted = (
            -(1 + row_of(spec)) if isinstance(spec, RelayRecipe) else int(spec)
            for spec in (recipe.outer, recipe.deleted)
        )
        rows.append((outer, int(recipe.deleted_node), deleted))
        return len(rows) - 1

    roots = [row_of(recipe) for recipe in recipes]
    return np.asarray(rows, np.int64).reshape(-1, 3), np.asarray(roots, np.int64)


def unflatten_recipes(table: np.ndarray, roots: np.ndarray) -> list:
    """The recipes :func:`flatten_recipes` wrote, one per root."""
    built = []
    for outer, deleted_node, deleted in table.tolist():
        built.append(
            RelayRecipe(
                outer if outer >= 0 else built[-1 - outer],
                deleted_node,
                deleted if deleted >= 0 else built[-1 - deleted],
            )
        )
    return [built[root] for root in roots.tolist()]
