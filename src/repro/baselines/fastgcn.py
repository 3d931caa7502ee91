"""FastGCN baseline (Chen, Ma & Xiao, 2018).

GCN with **layerwise importance sampling**: instead of full-batch
propagation, each minibatch samples a fixed-size support set per layer with
probability proportional to the squared column norm of ``Â``, and the
convolution is evaluated as an importance-weighted Monte-Carlo estimate::

    H^(l+1)[batch] = σ( Â[batch, S] diag(1 / (s · q[S])) H^(l)[S] W )

This keeps per-step cost independent of graph size (the paper's "parallelizable
model ... retaining similar performance as GCN").  Evaluation uses the exact
full-batch forward.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.baselines.common import BaseClassifier
from repro.graph import HeteroGraph
from repro.nn import Linear, Module
from repro.tensor import Tensor, functional as F, ops
from repro.utils.rng import SeedLike, new_rng, spawn_rngs

if TYPE_CHECKING:  # annotations only: scipy is imported where a matrix is built
    import scipy.sparse as sp


class _FastGcnNet(Module):
    def __init__(self, in_dim: int, hidden: int, out_dim: int, rngs):
        super().__init__()
        self.layer1 = Linear(in_dim, hidden, rng=rngs[0])
        self.layer2 = Linear(hidden, out_dim, rng=rngs[1])


class FastGCN(BaseClassifier):
    """Two-layer GCN trained with layerwise importance sampling."""

    name = "fastgcn"

    def __init__(
        self,
        hidden: int = 32,
        sample_size: int = 256,
        batch_size: int = 64,
        learning_rate: float = 0.01,
        weight_decay: float = 5e-4,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        self.hidden = hidden
        self.sample_size = sample_size
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        rngs = spawn_rngs(seed, 3)
        self._net_rngs = rngs[:2]
        self._rng = new_rng(rngs[2])
        self.net: Optional[_FastGcnNet] = None
        self._adj: Optional[sp.csr_matrix] = None
        self._importance: Optional[np.ndarray] = None

    def _make_net(self, graph: HeteroGraph) -> _FastGcnNet:
        return _FastGcnNet(
            graph.features.shape[1], self.hidden, graph.num_classes, self._net_rngs
        )

    def _on_rebind(self, graph: HeteroGraph) -> None:
        self._adj = graph.normalized_adjacency()
        # Importance distribution q(v) ∝ ||Â[:, v]||² (the FastGCN choice).
        column_norms = np.asarray(self._adj.multiply(self._adj).sum(axis=0)).reshape(-1)
        total = column_norms.sum()
        if total <= 0:
            column_norms = np.ones_like(column_norms)
            total = column_norms.sum()
        self._importance = column_norms / total

    def _sample_support(self) -> np.ndarray:
        size = min(self.sample_size, self.graph.num_nodes)
        return self._rng.choice(
            self.graph.num_nodes, size=size, replace=False, p=self._importance
        )

    def _loss(self, batch: np.ndarray):
        support1 = self._sample_support()  # hidden-layer support
        support2 = self._sample_support()  # input-layer support
        scale1 = 1.0 / (support1.size * self._importance[support1])
        scale2 = 1.0 / (support2.size * self._importance[support2])
        # Layer 1 estimate on support1: Â[s1, s2] diag(scale2) X[s2] W0
        block12 = self._adj[support1][:, support2].multiply(scale2).tocsr()
        hidden = ops.relu(
            ops.spmm(block12, self.net.layer1(Tensor(self.graph.features[support2])))
        )
        # Layer 2 estimate on the batch rows.
        block01 = self._adj[batch][:, support1].multiply(scale1).tocsr()
        logits = ops.spmm(block01, self.net.layer2(hidden))
        return F.cross_entropy(logits, self.graph.labels[batch])

    def _forward(self, nodes: np.ndarray, graph: HeteroGraph):
        """The exact full-batch GCN forward (evaluation)."""
        adj = self._adj if graph is self.graph else graph.normalized_adjacency()
        hidden = ops.relu(ops.spmm(adj, self.net.layer1(Tensor(graph.features))))
        logits = ops.spmm(adj, self.net.layer2(hidden))
        return logits[nodes], hidden[nodes]
