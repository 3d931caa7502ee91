"""Node2Vec baseline (Grover & Leskovec, 2016).

Unsupervised: biased second-order random walks feed a skip-gram objective
with negative sampling (SGNS), optimized with hand-rolled numpy gradients
(the classic formulation — no autograd needed, and it keeps the baseline
fast like the reference implementation).  An epoch walks from every node at
once, then advances through chunks of walks position by position: one
gradient step per center position covers the chunk's ``(center, context,
negatives)`` triples there — one gather, one row-wise dot and one
scatter-add per table — so a walk's pairs are applied in walk order, as the
per-pair loop did.  A logistic-regression head is then
fit on the frozen embeddings of labeled training nodes, matching the paper's
protocol ("Node2Vec ... is trained in a solely unsupervised manner").

Transductive only: embeddings are indexed by node identity, so unseen nodes
have no representation — the paper excludes Node2Vec from the inductive
comparison for exactly this reason.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.common import BaseClassifier
from repro.graph import HeteroGraph, node2vec_walks
from repro.nn import Linear
from repro.optim import Adam
from repro.tensor import Tensor, functional as F
from repro.utils.rng import SeedLike, new_rng, spawn_rngs


# Walks advanced together: an SGNS step covers one center position of this
# many walks (EXPERIMENTS.md, "Figure 4", holds the sweep that chose it).
WALKS_PER_STEP = 64


class Node2Vec(BaseClassifier):
    """Biased random walks + SGNS embeddings + logistic-regression head."""

    name = "node2vec"
    supports_inductive = False

    def __init__(
        self,
        dim: int = 32,
        walk_length: int = 10,
        walks_per_node: int = 3,
        window: int = 3,
        negatives: int = 2,
        p: float = 1.0,
        q: float = 1.0,
        learning_rate: float = 0.025,
        classifier_epochs: int = 100,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        self.dim = dim
        self.walk_length = walk_length
        self.walks_per_node = walks_per_node
        self.window = window
        self.negatives = negatives
        self.p = p
        self.q = q
        self.learning_rate = learning_rate
        self.classifier_epochs = classifier_epochs
        rngs = spawn_rngs(seed, 3)
        self._rng = new_rng(rngs[0])
        self._head_rng = rngs[1]
        self._init_rng = new_rng(rngs[2])
        self.embeddings: Optional[np.ndarray] = None
        self.head: Optional[Linear] = None

    def _build(self, graph: HeteroGraph) -> None:
        n = graph.num_nodes
        self.embeddings = (self._init_rng.random((n, self.dim)) - 0.5) / self.dim
        self._context = np.zeros((n, self.dim))
        self.head = Linear(self.dim, graph.num_classes, rng=self._head_rng)
        self._head_optimizer = Adam(self.head.parameters(), lr=0.05)

    def _on_rebind(self, graph: HeteroGraph) -> None:
        raise ValueError(
            "node2vec embeds nodes by identity and cannot be rebound to a "
            "different graph (partition training is unsupported)"
        )

    def _train_epoch(self, train_nodes: np.ndarray) -> float:
        """One epoch = walks from every node + SGNS over them, followed by
        refreshing the logistic head on the training labels."""
        starts = np.repeat(self._rng.permutation(self.graph.num_nodes), self.walks_per_node)
        walks, lengths = node2vec_walks(
            self.graph, starts, self.walk_length, p=self.p, q=self.q, rng=self._rng
        )
        total_loss = 0.0
        pairs = 0
        for begin in range(0, starts.size, WALKS_PER_STEP):
            chunk = slice(begin, begin + WALKS_PER_STEP)
            for position in range(walks.shape[1]):
                centers, contexts = self._skipgram_pairs(
                    walks[chunk], lengths[chunk], position
                )
                total_loss += self._sgns_step(centers, contexts)
                pairs += centers.size
        self._fit_head(train_nodes)
        return total_loss / max(pairs, 1)

    def _skipgram_pairs(self, walks: np.ndarray, lengths: np.ndarray, position: int):
        """Every ``(center, context)`` pair whose center sits at ``position``
        of a walk, its contexts within ``window`` steps either side."""
        offsets = np.arange(-self.window, self.window + 1)
        near = position + offsets[offsets != 0]
        near = near[(near >= 0) & (near < walks.shape[1])]
        valid = (near < lengths[:, np.newaxis]) & (position < lengths[:, np.newaxis])
        centers = np.repeat(walks[:, position : position + 1], near.size, axis=1)
        return centers[valid], walks[:, near][valid]

    def _sgns_step(self, centers: np.ndarray, contexts: np.ndarray) -> float:
        """One gradient step of skip-gram with negative sampling (manual grads)
        over all pairs at once; returns the summed loss."""
        emb, ctx = self.embeddings, self._context
        negatives = self._rng.integers(
            0, self.graph.num_nodes, size=(centers.size, self.negatives)
        )
        samples = np.concatenate([contexts[:, np.newaxis], negatives], axis=1)
        vectors = ctx[samples]  # (P, 1+neg, dim)
        center_rows = emb[centers]  # (P, dim)
        scores = np.einsum("psd,pd->ps", vectors, center_rows)
        sig = 1.0 / (1.0 + np.exp(-np.clip(scores, -30, 30)))
        grad_scores = sig.copy()  # d loss / d score
        grad_scores[:, 0] -= 1.0
        lr = self.learning_rate
        np.add.at(emb, centers, -lr * np.einsum("ps,psd->pd", grad_scores, vectors))
        np.add.at(ctx, samples, -lr * grad_scores[..., np.newaxis] * center_rows[:, np.newaxis])
        return float(
            -np.log(np.clip(sig[:, 0], 1e-10, 1)).sum()
            - np.log(np.clip(1 - sig[:, 1:], 1e-10, 1)).sum()
        )

    def _fit_head(self, train_nodes: np.ndarray) -> None:
        features = Tensor(self.embeddings[train_nodes])
        labels = self.graph.labels[train_nodes]
        for _ in range(self.classifier_epochs):
            self._head_optimizer.zero_grad()
            loss = F.cross_entropy(self.head(features), labels)
            loss.backward()
            self._head_optimizer.step()

    def _embed(self, nodes: np.ndarray, graph: HeteroGraph) -> np.ndarray:
        return self.embeddings[nodes]

    def _predict(self, nodes: np.ndarray, graph: HeteroGraph) -> np.ndarray:
        logits = self.head(Tensor(self.embeddings[nodes]))
        return logits.data.argmax(axis=1)
