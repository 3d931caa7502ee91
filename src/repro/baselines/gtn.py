"""GTN baseline (Yun et al., 2019).

The Graph Transformer Network learns *soft meta paths*: each hop carries a
trainable selection over edge-type adjacencies (including the identity, so
shorter paths remain expressible); consecutive hops are composed and a GCN
runs on the learned meta-path graph.  Per channel ``c`` and hop ``l``::

    A_mix^(c,l) = Σ_r softmax(θ^(c,l))_r · A_r        (A_0 = I)
    output_c    = rownorm(A_mix^(c,1)) rownorm(A_mix^(c,2)) X W

The composition is applied right-to-left against the feature matrix rather
than materializing the composed n×n adjacency (hop-wise row normalization;
the composition of row-stochastic matrices stays row-stochastic, preserving
GTN's D^-1 normalization up to reweighting).  Channels are concatenated and
classified with a linear layer.

As in the paper, GTN is the slowest baseline by far — the per-epoch cost is
O(hops · channels · nnz(A) · d) with dense feature propagation through every
edge type — and the paper skips it on Yelp for this reason.  The benchmark
harness reproduces that skip.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.baselines.common import BaseClassifier
from repro.graph import HeteroGraph
from repro.graph.metapath import row_normalize
from repro.nn import Linear, Module, Parameter
from repro.tensor import Tensor, functional as F, ops
from repro.utils.rng import SeedLike, spawn_rngs

if TYPE_CHECKING:  # annotations only: scipy is imported where a matrix is built
    import scipy.sparse as sp


class _GtnNet(Module):
    def __init__(
        self, in_dim: int, hidden: int, out_dim: int,
        num_edge_types: int, channels: int, hops: int, rngs,
    ):
        super().__init__()
        # +1 selection slot for the identity adjacency.
        self.selection = Parameter(
            np.zeros((channels, hops, num_edge_types + 1)), name="theta"
        )
        self.transform = Linear(in_dim, hidden, rng=rngs[0])
        self.classifier = Linear(hidden * channels, out_dim, rng=rngs[1])
        self.channels = channels
        self.hops = hops


class GTN(BaseClassifier):
    """Graph Transformer Network with soft edge-type selection."""

    name = "gtn"

    def __init__(
        self,
        hidden: int = 32,
        channels: int = 2,
        hops: int = 2,
        learning_rate: float = 0.01,
        weight_decay: float = 5e-4,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        self.hidden = hidden
        self.channels = channels
        self.hops = hops
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self._rngs = spawn_rngs(seed, 2)
        self.net: Optional[_GtnNet] = None
        self._adjacencies: Optional[List[sp.csr_matrix]] = None

    def _make_net(self, graph: HeteroGraph) -> _GtnNet:
        return _GtnNet(
            graph.features.shape[1], self.hidden, graph.num_classes,
            graph.num_edge_types, self.channels, self.hops, self._rngs,
        )

    def _on_rebind(self, graph: HeteroGraph) -> None:
        self._adjacencies = self._row_normalized_adjacencies(graph)

    @staticmethod
    def _row_normalized_adjacencies(graph: HeteroGraph) -> List[sp.csr_matrix]:
        import scipy.sparse as sp

        matrices = [
            row_normalize(graph.adjacency(edge_type=etype))
            for etype in range(graph.num_edge_types)
        ]
        matrices.append(sp.eye(graph.num_nodes, format="csr"))
        return matrices

    def _propagate(self, features: Tensor, adjacencies: List[sp.csr_matrix]) -> Tensor:
        """All channels' composed propagation, concatenated: (n, channels*h)."""
        hidden = self.net.transform(features)  # (n, h)
        outputs = []
        for channel in range(self.channels):
            channel_hidden = hidden
            # Apply hops right-to-left: A^(1) (A^(2) (… X)).
            for hop in reversed(range(self.hops)):
                weights = F.softmax(self.net.selection[channel, hop], axis=-1)
                mixed_parts = []
                for r, adjacency in enumerate(adjacencies):
                    propagated = ops.spmm(adjacency, channel_hidden)
                    mixed_parts.append(weights[r] * propagated)
                channel_hidden = mixed_parts[0]
                for part in mixed_parts[1:]:
                    channel_hidden = channel_hidden + part
            outputs.append(ops.relu(channel_hidden))
        return ops.concat(outputs, axis=1)

    def _forward(self, nodes: np.ndarray, graph: HeteroGraph):
        adjacencies = (
            self._adjacencies
            if graph is self.graph
            else self._row_normalized_adjacencies(graph)
        )
        combined = self._propagate(Tensor(graph.features), adjacencies)
        return self.net.classifier(combined)[nodes], combined[nodes]
