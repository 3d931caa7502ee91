"""Unsupervised WIDEN training — embeddings without any labels.

The paper positions WIDEN as "a versatile and generic heterogeneous graph
embedding model" optimized here for semi-supervised classification (Eq. 10).
This module supplies the fully unsupervised alternative used by the random-
walk line of work the paper builds on (GraphSAGE's context loss, itself a
SkipGram descendant):

    L = -log σ(z_a · z_p) - Σ_k E_{n~U} log σ(-z_a · z_n)

where the positive ``p`` co-occurs with anchor ``a`` on a short random walk
and the ``n`` are uniform negatives.  The resulting embeddings can feed any
downstream model; :meth:`UnsupervisedWidenTrainer.fit_classifier_probe`
trains a logistic-regression probe to quantify their quality.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.config import WidenConfig
from repro.core.model import WidenModel
from repro.core.state import NeighborStateStore
from repro.graph import HeteroGraph, random_walk
from repro.nn import Linear
from repro.optim import Adam, clip_grad_norm
from repro.tensor import Tensor, functional as F, no_grad, ops
from repro.utils.rng import SeedLike, spawn_rngs


class UnsupervisedWidenTrainer:
    """Trains WIDEN embeddings with the walk-context objective."""

    def __init__(
        self,
        model: WidenModel,
        graph: HeteroGraph,
        config: WidenConfig,
        walk_length: int = 3,
        negatives: int = 2,
        seed: SeedLike = None,
    ) -> None:
        self.model = model
        self.graph = graph
        self.config = config
        self.walk_length = walk_length
        self.negatives = negatives
        sample_rng, self._rng = spawn_rngs(seed, 2)
        self.store = NeighborStateStore(
            graph, config.num_wide, config.num_deep, config.num_deep_walks,
            rng=sample_rng,
        )
        self.optimizer = Adam(
            model.parameters(), lr=config.learning_rate,
            weight_decay=config.weight_decay,
        )
        self.losses: List[float] = []

    def fit(self, epochs: int, anchors_per_epoch: int = 128) -> "UnsupervisedWidenTrainer":
        for _ in range(epochs):
            anchors = self._rng.integers(
                self.graph.num_nodes, size=anchors_per_epoch
            )
            epoch_loss = 0.0
            batch_size = self.config.batch_size
            for start in range(0, anchors_per_epoch, batch_size):
                batch = anchors[start : start + batch_size]
                loss = self._step(batch)
                epoch_loss += loss * batch.size
            self.losses.append(epoch_loss / anchors_per_epoch)
        return self

    def _step(self, anchors: np.ndarray) -> float:
        triples = []
        for anchor in anchors:
            walk, _ = random_walk(self.graph, int(anchor), self.walk_length, rng=self._rng)
            if walk.size == 0:
                continue  # isolated node: no context to learn from
            positive = int(walk[self._rng.integers(walk.size)])
            negatives = self._rng.integers(self.graph.num_nodes, size=self.negatives)
            triples.append((int(anchor), positive, negatives))
        if not triples:
            return 0.0
        nodes = sorted(
            {a for a, _, _ in triples}
            | {p for _, p, _ in triples}
            | {int(n) for _, _, negs in triples for n in negs}
        )
        index_of: Dict[int, int] = {node: i for i, node in enumerate(nodes)}
        table, _, _ = self.model.forward_batch(self.store.batch(nodes), self.graph)

        scores = []
        targets = []
        for anchor, positive, negatives in triples:
            anchor_vec = table[index_of[anchor]]
            scores.append(ops.sum(anchor_vec * table[index_of[positive]]) * 4.0)
            targets.append(1.0)
            for negative in negatives:
                scores.append(ops.sum(anchor_vec * table[index_of[int(negative)]]) * 4.0)
                targets.append(0.0)
        loss = F.binary_cross_entropy_with_logits(
            ops.stack(scores), np.asarray(targets)
        )
        self.optimizer.zero_grad()
        loss.backward()
        if self.config.grad_clip > 0:
            clip_grad_norm(self.optimizer.parameters, self.config.grad_clip)
        self.optimizer.step()
        return loss.item()

    def embed(self, nodes) -> np.ndarray:
        nodes = [int(node) for node in nodes]
        self.model.eval()
        with no_grad():
            embeddings, _, _ = self.model.forward_batch(
                self.store.batch(nodes), self.graph
            )
        self.model.train()
        return embeddings.data

    def fit_classifier_probe(
        self,
        train_nodes: np.ndarray,
        test_nodes: np.ndarray,
        epochs: int = 150,
        seed: SeedLike = 0,
    ) -> float:
        """Freeze embeddings, train a linear probe, return test accuracy."""
        train_embeddings = Tensor(self.embed(train_nodes))
        train_labels = self.graph.labels[np.asarray(train_nodes)]
        probe = Linear(self.config.dim, self.graph.num_classes, rng=seed)
        optimizer = Adam(probe.parameters(), lr=0.05)
        for _ in range(epochs):
            optimizer.zero_grad()
            F.cross_entropy(probe(train_embeddings), train_labels).backward()
            optimizer.step()
        with no_grad():
            logits = probe(Tensor(self.embed(test_nodes)))
        predictions = logits.data.argmax(axis=1)
        return float((predictions == self.graph.labels[np.asarray(test_nodes)]).mean())
