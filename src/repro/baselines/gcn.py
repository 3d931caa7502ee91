"""GCN baseline (Kipf & Welling, 2017).

Two spectral convolution layers over the symmetric-normalized adjacency
``Â = D^-1/2 (A + I) D^-1/2`` of the heterogeneous graph (type information is
ignored — that is the point of the baseline)::

    H = ReLU(Â X W0)
    Z = Â H W1

Full-batch training, as in the original (the paper notes this requires the
full adjacency, making GCN transductive by design; the inductive protocol
masks held-out nodes during training and restores them for evaluation, which
our interface realizes by passing the full graph at predict time).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.baselines.common import BaseClassifier
from repro.graph import HeteroGraph
from repro.nn import Dropout, Linear, Module
from repro.tensor import Tensor, ops
from repro.utils.rng import SeedLike, spawn_rngs

if TYPE_CHECKING:  # annotations only: scipy is imported where a matrix is built
    import scipy.sparse as sp


class _GcnNet(Module):
    def __init__(self, in_dim: int, hidden: int, out_dim: int, dropout: float, rngs):
        super().__init__()
        self.layer1 = Linear(in_dim, hidden, rng=rngs[0])
        self.layer2 = Linear(hidden, out_dim, rng=rngs[1])
        self.dropout = Dropout(dropout, rng=rngs[2])

    def forward(self, adj: sp.csr_matrix, features: Tensor):
        hidden = ops.relu(ops.spmm(adj, self.layer1(features)))
        hidden = self.dropout(hidden)
        logits = ops.spmm(adj, self.layer2(hidden))
        return logits, hidden


class GCN(BaseClassifier):
    """Full-batch two-layer graph convolutional network."""

    name = "gcn"

    def __init__(
        self,
        hidden: int = 32,
        learning_rate: float = 0.01,
        weight_decay: float = 5e-4,
        dropout: float = 0.3,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        self.hidden = hidden
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.dropout = dropout
        self._rngs = spawn_rngs(seed, 3)
        self.net: Optional[_GcnNet] = None
        self._adj_cache: Dict[int, sp.csr_matrix] = {}

    def _make_net(self, graph: HeteroGraph) -> _GcnNet:
        return _GcnNet(
            graph.features.shape[1], self.hidden, graph.num_classes,
            self.dropout, self._rngs,
        )

    def _normalized(self, graph: HeteroGraph) -> sp.csr_matrix:
        key = id(graph)
        if key not in self._adj_cache:
            self._adj_cache[key] = graph.normalized_adjacency()
        return self._adj_cache[key]

    def _forward(self, nodes: np.ndarray, graph: HeteroGraph):
        logits, hidden = self.net(self._normalized(graph), Tensor(graph.features))
        return logits[nodes], hidden[nodes]
