"""Link prediction with WIDEN embeddings — the paper's second task.

Section 1 names link prediction alongside node classification as the
downstream tasks node embeddings serve, and Section 3.4 notes WIDEN "can be
optimized for different downstream tasks".  This module realizes that:

- :func:`split_edges` holds out a fraction of edges (with sampled
  non-edges as negatives) for evaluation, removing them from the training
  graph so the model cannot cheat.
- :class:`LinkPredictionTrainer` optimizes WIDEN with a binary
  cross-entropy objective on bilinear edge scores ``σ(v_u W v_v^T)`` with
  negative sampling, instead of Eq. 10's classification loss.  (A trainable
  bilinear form replaces the raw dot product because WIDEN's embeddings are
  L2-normalized (Eq. 7), which caps dot-product logits at ±1 and starves the
  BCE gradient.)
- Evaluation reports ROC-AUC over the held-out positives/negatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.config import WidenConfig
from repro.core.model import WidenModel
from repro.core.state import NeighborStateStore
from repro.graph import HeteroGraph
from repro.optim import Adam, clip_grad_norm
from repro.tensor import functional as F, no_grad, ops
from repro.utils.rng import SeedLike, new_rng, spawn_rngs


@dataclass
class EdgeSplit:
    """Training graph + evaluation edge sets for link prediction."""

    train_graph: HeteroGraph
    positive_edges: np.ndarray  # (m, 2) held-out true edges
    negative_edges: np.ndarray  # (m, 2) sampled non-edges


def split_edges(
    graph: HeteroGraph, holdout_fraction: float = 0.1, rng: SeedLike = None
) -> EdgeSplit:
    """Hold out ``holdout_fraction`` of undirected edges for evaluation.

    The held-out edges (both directions) are removed from the training
    graph; an equal number of uniformly sampled non-edges become negatives.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    rng = new_rng(rng)
    # Work with canonical (u < v) undirected pairs.
    src, dst = graph._src, graph.indices
    canonical = src < dst
    pairs = np.stack([src[canonical], dst[canonical]], axis=1)
    etypes = graph.edge_type_of[canonical]
    count = max(1, int(round(holdout_fraction * pairs.shape[0])))
    order = rng.permutation(pairs.shape[0])
    held, kept = order[:count], order[count:]

    existing = set(map(tuple, pairs.tolist()))
    negatives: List[Tuple[int, int]] = []
    while len(negatives) < count:
        u = int(rng.integers(graph.num_nodes))
        v = int(rng.integers(graph.num_nodes))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key not in existing:
            negatives.append(key)

    kept_pairs, kept_types = pairs[kept], etypes[kept]
    train_graph = HeteroGraph(
        node_types=graph.node_types,
        src=np.concatenate([kept_pairs[:, 0], kept_pairs[:, 1]]),
        dst=np.concatenate([kept_pairs[:, 1], kept_pairs[:, 0]]),
        edge_types=np.concatenate([kept_types, kept_types]),
        node_type_names=graph.node_type_names,
        edge_type_names=graph.edge_type_names,
        features=graph.features,
        labels=graph.labels,
        num_classes=graph.num_classes,
    )
    return EdgeSplit(
        train_graph=train_graph,
        positive_edges=pairs[held],
        negative_edges=np.asarray(negatives, dtype=np.int64),
    )


class LinkPredictionTrainer:
    """Optimizes WIDEN embeddings for edge existence."""

    def __init__(
        self,
        model: WidenModel,
        graph: HeteroGraph,
        config: WidenConfig,
        negatives_per_edge: int = 1,
        seed: SeedLike = None,
    ) -> None:
        self.model = model
        self.graph = graph
        self.config = config
        self.negatives_per_edge = negatives_per_edge
        sample_rng, self._rng, head_rng = spawn_rngs(seed, 3)
        self.store = NeighborStateStore(
            graph, config.num_wide, config.num_deep, config.num_deep_walks,
            rng=sample_rng,
        )
        from repro.nn import Linear

        self.bilinear = Linear(config.dim, config.dim, bias=False, rng=head_rng)
        # One list per trainer, not a module-tree walk per step.  The clip
        # has always covered the model's parameters and not the bilinear
        # head's; kept as is.
        self._clipped = model.parameters()
        self.optimizer = Adam(
            self._clipped + self.bilinear.parameters(),
            lr=config.learning_rate,
            weight_decay=config.weight_decay,
        )
        self.losses: List[float] = []

    def fit(self, epochs: int, edges_per_epoch: int = 128) -> "LinkPredictionTrainer":
        """Train on sampled positive edges + uniform negatives."""
        src_all, dst_all = self.graph._src, self.graph.indices
        if src_all.size == 0:
            raise ValueError("training graph has no edges")
        for _ in range(epochs):
            picks = self._rng.integers(src_all.size, size=edges_per_epoch)
            epoch_loss = 0.0
            batch_size = self.config.batch_size
            for start in range(0, edges_per_epoch, batch_size):
                chunk = picks[start : start + batch_size]
                loss = self._step(src_all[chunk], dst_all[chunk])
                epoch_loss += loss * chunk.size
            self.losses.append(epoch_loss / edges_per_epoch)
        return self

    def _step(self, src: np.ndarray, dst: np.ndarray) -> float:
        negatives = self._rng.integers(
            self.graph.num_nodes, size=src.size * self.negatives_per_edge
        )
        nodes = np.unique(np.concatenate([src, dst, negatives]))
        table, _, _ = self.model.forward_batch(self.store.batch(nodes), self.graph)

        def score(u_ids, v_ids):
            # ``nodes`` is sorted and holds every id scored here.
            u = table[np.searchsorted(nodes, u_ids)]
            v = table[np.searchsorted(nodes, v_ids)]
            return ops.sum(self.bilinear(u) * v, axis=1) * 4.0

        positive_scores = score(src, dst)
        negative_scores = score(
            np.repeat(src, self.negatives_per_edge), negatives
        )
        scores = ops.concat([positive_scores, negative_scores], axis=0)
        targets = np.concatenate(
            [np.ones(src.size), np.zeros(negatives.size)]
        )
        loss = F.binary_cross_entropy_with_logits(scores, targets)
        self.optimizer.zero_grad()
        loss.backward()
        if self.config.grad_clip > 0:
            clip_grad_norm(self._clipped, self.config.grad_clip)
        self.optimizer.step()
        return loss.item()

    def score_edges(self, edges: np.ndarray) -> np.ndarray:
        """Dot-product scores for ``(m, 2)`` node-id pairs."""
        edges = np.asarray(edges, dtype=np.int64)
        nodes = np.unique(edges.reshape(-1))
        self.model.eval()
        with no_grad():
            embeddings, _, _ = self.model.forward_batch(
                self.store.batch(nodes), self.graph
            )
        self.model.train()
        rows = embeddings.data[np.searchsorted(nodes, edges)]  # (m, 2, d)
        weight = self.bilinear.weight.data
        return np.einsum("md,de,me->m", rows[:, 0], weight, rows[:, 1])
