"""HAN baseline (Wang et al., 2019).

The Heterogeneous Attention Network runs two attention levels:

1. **Node-level**: for each meta path ``m``, a GAT-style attention
   aggregates a node's meta-path-based neighbors into ``z^m``.
2. **Semantic-level**: a learned query scores each meta path's summary
   ``w_m = mean_i q·tanh(W z_i^m + b)``; softmax weights β_m mix the per-path
   embeddings into the final representation.

Meta paths default to the symmetric 2-hop paths through every edge type
incident to the target node type (e.g. PAP and PSP on ACM) — exactly the
hand-crafted paths the original work uses, derived here automatically from
the schema.  This dependence on pre-defined meta paths (and the per-path
attention machinery) is the inflexibility/training-cost critique WIDEN makes
of HAN; keeping the structure faithful keeps that comparison meaningful.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.common import BaseClassifier, sample_neighbors
from repro.baselines.gat import _GatLayer
from repro.graph import HeteroGraph, metapath_adjacency
from repro.nn import Linear, Module, Parameter, init
from repro.tensor import Tensor, functional as F, ops
from repro.utils.rng import SeedLike, new_rng, spawn_rngs

if TYPE_CHECKING:  # annotations only: scipy is imported where a matrix is built
    import scipy.sparse as sp


def default_metapaths(graph: HeteroGraph, target_type: str) -> List[List[str]]:
    """Symmetric 2-hop meta paths through each edge type touching the target.

    With symmetric edge storage, following edge type ``e`` twice from a
    target-type node returns to target-type nodes (paper-author twice = PAP).
    """
    target_nodes = graph.nodes_of_type(target_type)
    incident_types: set = set()
    for node in target_nodes[: min(200, target_nodes.size)]:
        _, etypes = graph.neighbors(int(node))
        incident_types.update(etypes.tolist())
    if not incident_types:
        raise ValueError(f"no edges incident to node type {target_type!r}")
    return [
        [graph.edge_type_names[e], graph.edge_type_names[e]]
        for e in sorted(incident_types)
    ]


class _SemanticAttention(Module):
    """Scores each meta path's embedding matrix and mixes them."""

    def __init__(self, dim: int, attention_dim: int, rng):
        super().__init__()
        rngs = spawn_rngs(rng, 2)
        self.transform = Linear(dim, attention_dim, rng=rngs[0])
        self.query = Parameter(init.xavier_uniform((attention_dim,), rng=rngs[1]))

    def forward(self, per_path: List[Tensor]) -> Tensor:
        """``per_path``: list of (B, d) tensors, one per meta path."""
        scores = []
        for z in per_path:
            projected = ops.tanh(self.transform(z))  # (B, a)
            scores.append(ops.mean(ops.matmul(projected, self.query)))  # scalar
        beta = F.softmax(ops.stack(scores), axis=-1)  # (P,)
        mixed = beta[0] * per_path[0]
        for p in range(1, len(per_path)):
            mixed = mixed + beta[p] * per_path[p]
        return mixed


class _HanNet(Module):
    def __init__(self, in_dim: int, hidden: int, out_dim: int, num_paths: int, rngs):
        super().__init__()
        self.path_attention = self.register_modules(
            "path_attention",
            [_GatLayer(in_dim, hidden, rngs[p]) for p in range(num_paths)],
        )
        self.semantic = _SemanticAttention(hidden, hidden, rngs[num_paths])
        self.classifier = Linear(hidden, out_dim, rng=rngs[num_paths + 1])


class HAN(BaseClassifier):
    """Heterogeneous attention network over pre-defined meta paths."""

    name = "han"

    def __init__(
        self,
        metapaths: Optional[Sequence[Sequence[str]]] = None,
        target_type: Optional[str] = None,
        hidden: int = 32,
        fanout: int = 5,
        batch_size: int = 64,
        learning_rate: float = 0.01,
        weight_decay: float = 5e-4,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        self.metapaths = [list(path) for path in metapaths] if metapaths else None
        self.target_type = target_type
        self.hidden = hidden
        self.fanout = fanout
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        rngs = spawn_rngs(seed, 10)
        self._net_rngs = rngs[:9]
        self._rng = new_rng(rngs[9])
        self.net: Optional[_HanNet] = None
        self._path_adjacency: Dict[int, List[sp.csr_matrix]] = {}

    def _make_net(self, graph: HeteroGraph) -> _HanNet:
        if self.metapaths is None:
            if self.target_type is None:
                raise ValueError("HAN needs either explicit metapaths or a target_type")
            self.metapaths = default_metapaths(graph, self.target_type)
        return _HanNet(
            graph.features.shape[1], self.hidden, graph.num_classes,
            len(self.metapaths), self._net_rngs,
        )

    def _adjacencies_for(self, graph: HeteroGraph) -> List[sp.csr_matrix]:
        key = id(graph)
        if key not in self._path_adjacency:
            self._path_adjacency[key] = [
                metapath_adjacency(graph, path) for path in self.metapaths
            ]
        return self._path_adjacency[key]

    def _forward(self, nodes: np.ndarray, graph: HeteroGraph):
        """Per meta path, attend over ``fanout`` of the node's meta-path
        neighbors (itself when it has none); mix the paths semantically."""
        features = graph.features
        per_path = []
        for adjacency, attention in zip(
            self._adjacencies_for(graph), self.net.path_attention
        ):
            neighbors = sample_neighbors(
                adjacency.indptr, adjacency.indices, nodes, self.fanout, self._rng
            )
            per_path.append(attention(
                Tensor(features[nodes]),
                Tensor(features[neighbors].reshape(nodes.size, self.fanout, -1)),
            ))
        mixed = self.net.semantic(per_path)
        return self.net.classifier(mixed), mixed
