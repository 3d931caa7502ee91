"""Meta-path utilities for the HAN and GTN baselines.

A meta path is a sequence of edge types, e.g. ``("paper-author",
"paper-author")`` realizes author–paper–author (APA) when traversed
symmetrically.  HAN needs, for each meta path, the *meta-path-based neighbor
graph* — which node pairs are connected by at least one path instance.  GTN
learns a soft selection over edge types and *composes* the selected
adjacencies by sparse multiplication; :func:`compose_adjacency` is that
product for a concrete selection.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.graph.hetero_graph import HeteroGraph

if TYPE_CHECKING:  # annotations only: scipy is imported where a matrix is built
    import scipy.sparse as sp


def metapath_adjacency(
    graph: HeteroGraph,
    edge_types: Sequence[str],
    binary: bool = True,
) -> sp.csr_matrix:
    """Adjacency of the meta-path-based neighbor graph.

    ``edge_types`` names the edge-type sequence of the path.  The result's
    ``(i, j)`` entry counts path instances from ``i`` to ``j`` (or is clipped
    to 1 when ``binary``).  Diagonal entries (closed paths back to the start)
    are kept — HAN treats each node as its own meta-path neighbor.
    """
    if not edge_types:
        raise ValueError("meta path needs at least one edge type")
    product = None
    for name in edge_types:
        adj = graph.adjacency(edge_type=graph.edge_type_id(name))
        product = adj if product is None else (product @ adj).tocsr()
    if binary:
        product = product.copy()
        product.data = np.ones_like(product.data)
    return product.tocsr()


def compose_adjacency(
    adjacencies: Sequence[sp.csr_matrix],
    weights_per_hop: Sequence[np.ndarray],
) -> sp.csr_matrix:
    """GTN-style soft meta-path adjacency.

    Each hop mixes the per-edge-type adjacencies with a convex weight vector
    (softmaxed selection in the real model), then consecutive hops are
    matrix-multiplied: ``A_path = (Σ_r w1_r A_r) (Σ_r w2_r A_r) …``.
    """
    if not weights_per_hop:
        raise ValueError("need at least one hop")
    product = None
    for weights in weights_per_hop:
        weights = np.asarray(weights, dtype=np.float64)
        if len(weights) != len(adjacencies):
            raise ValueError(
                f"{len(weights)} weights for {len(adjacencies)} adjacencies"
            )
        mixed = None
        for weight, adj in zip(weights, adjacencies):
            term = adj.multiply(weight)
            mixed = term if mixed is None else mixed + term
        mixed = mixed.tocsr()
        product = mixed if product is None else (product @ mixed).tocsr()
    return product


def row_normalize(adj: sp.csr_matrix) -> sp.csr_matrix:
    """``D^-1 A`` row normalization used on composed meta-path graphs."""
    import scipy.sparse as sp

    degree = np.asarray(adj.sum(axis=1)).reshape(-1)
    inv = np.where(degree > 0, 1.0 / np.maximum(degree, 1e-12), 0.0)
    return (sp.diags(inv) @ adj).tocsr()
