"""Training objectives — what a minibatch's embedding table is scored against.

Section 3.4: WIDEN "can be optimized for different downstream tasks".
:class:`~repro.core.trainer.WidenTrainer` runs Algorithm 3's phases under
whichever objective it was built with; the objective names the node ids a
slice of the epoch's examples forwards and the loss over the ``(n, d)``
table that one forward returns.

- :class:`Classification` — Eq. 10 cross-entropy over labeled node ids.
- :class:`WalkContext` — unsupervised, GraphSAGE's walk-context loss
  ``-log σ(z_a·z_p) - Σ_k log σ(-z_a·z_n)`` over anchor node ids; ``p`` is
  a node of the anchor's own deep walks, the ``n`` uniform negatives.
- :class:`EdgeExistence` — link prediction (Section 1's second task), BCE
  on bilinear scores ``σ(v_u W v_vᵀ)`` over edge ids against uniform
  negatives; ``W`` trains in the trainer's one optimizer.

:func:`split_edges` holds edges out for the link-prediction evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.graph import HeteroGraph
from repro.nn import Linear, Parameter
from repro.tensor import Tensor, functional as F, ops
from repro.utils.rng import SeedLike, new_rng, spawn_rngs

# Eq. 7 L2-normalises every embedding, which caps a dot product at ±1 and
# with it how far a sigmoid can move: both BCE objectives scale their scores
# by this before the loss.
LOGIT_SCALE = 4.0


class Objective:
    """The interface :class:`~repro.core.trainer.WidenTrainer` calls."""

    def parameters(self) -> List[Parameter]:
        """Trainable tensors beside the model's (they join its optimizer)."""
        return []

    def epoch_begin(self, graph: HeteroGraph, examples: np.ndarray) -> np.ndarray:
        """Check the epoch's examples; return the node ids they train."""
        return examples

    def microbatch(self, trainer, examples: np.ndarray):
        """``(node ids to forward, loss function)`` for one slice.

        The ids are unique whenever they could repeat.  The loss function
        maps the forward's table to ``(loss, labeled)``: ``loss`` is
        ``None`` when no example can be scored, ``labeled`` is ``(labels,
        predictions)`` for an objective with labels, else ``None``.
        """
        raise NotImplementedError


class Classification(Objective):
    """Eq. 10: cross-entropy of the model's head over labeled nodes."""

    def epoch_begin(self, graph: HeteroGraph, examples: np.ndarray) -> np.ndarray:
        if (graph.labels[examples] < 0).any():
            raise ValueError("all training nodes must be labeled")
        return examples

    def microbatch(self, trainer, examples: np.ndarray):
        labels = trainer.graph.labels[examples]

        def loss(table: Tensor):
            logits = trainer.model.logits(table)
            predictions = logits.data.argmax(axis=1)
            return F.cross_entropy(logits, labels), (labels, predictions)

        return examples, loss


def _context_loss(anchors: Tensor, table: Tensor, contexts: np.ndarray) -> Tensor:
    """BCE of the ``(n, 1+k)`` scores ``anchors[i] · table[contexts[i, j]]``,
    column 0 positive and the rest negative: one gather, one batched
    row-wise dot, one loss."""
    n, width = contexts.shape
    context = ops.embedding_lookup(table, contexts)  # (n, 1+k, d)
    scores = ops.sum(context * ops.reshape(anchors, (n, 1, -1)), axis=2)
    targets = np.zeros((n, width))
    targets[:, 0] = 1.0
    return F.binary_cross_entropy_with_logits(scores * LOGIT_SCALE, targets)


def walk_context_loss(
    table: Tensor, anchors: np.ndarray, contexts: np.ndarray, mask: np.ndarray
) -> Optional[Tensor]:
    """The walk-context loss over rows of ``table``.

    ``anchors (B,)`` and ``contexts (B, 1+k)`` are row indices, positive
    first; anchors where ``mask`` is False are left out, and with none left
    there is no loss (``None``).
    """
    if not mask.any():
        return None
    anchor_rows = ops.embedding_lookup(table, anchors[mask])
    return _context_loss(anchor_rows, table, contexts[mask])


class WalkContext(Objective):
    """Unsupervised: an anchor's embedding should predict its walk context.

    The positive is uniform over the anchor's deep-walk positions — the
    N_d-step walks ``sample_fresh`` already drew into its table row, as
    downsampled so far — so no walk is drawn here.  An anchor with no
    neighbor has empty walks and is masked out of the loss.  Positions and
    the ``negatives`` uniform nodes per anchor come from this objective's
    own generator.
    """

    def __init__(self, negatives: int = 2, seed: SeedLike = None) -> None:
        self.negatives = negatives
        self._rng = new_rng(seed)

    def microbatch(self, trainer, examples: np.ndarray):
        table = trainer.store.table
        rows = trainer.store.rows_for(examples)
        count = examples.size
        walked = table.deep_nodes[rows].reshape(count, -1)
        valid = (
            np.arange(table.num_deep) < table.deep_len[rows][..., np.newaxis]
        ).reshape(count, -1)
        lengths = valid.sum(axis=1)
        # The pick-th valid slot: a stable sort puts a row's valid slots first.
        picks = (self._rng.random(count) * lengths).astype(np.int64)
        slots = np.argsort(~valid, axis=1, kind="stable")[np.arange(count), picks]
        mask = lengths > 0
        positives = np.where(mask, walked[np.arange(count), slots], examples)
        negatives = self._rng.integers(
            trainer.graph.num_nodes, size=(count, self.negatives)
        )
        contexts = np.column_stack([positives, negatives])
        nodes = np.unique(np.concatenate([examples, contexts.ravel()]))

        def loss(table: Tensor):
            anchors = np.searchsorted(nodes, examples)
            context_rows = np.searchsorted(nodes, contexts)
            return walk_context_loss(table, anchors, context_rows, mask), None

        return nodes, loss


class EdgeExistence(Objective):
    """Link prediction: bilinear BCE over true edges and uniform non-edges.

    Each edge ``(u, v)`` is scored against ``negatives_per_edge`` uniform
    ``(u, n)``.  The bilinear form ``W`` (this objective's ``head``) stands
    where a raw dot product would: Eq. 7's unit-norm embeddings leave a dot
    product little to learn from.
    """

    def __init__(
        self, dim: int, negatives_per_edge: int = 1, seed: SeedLike = None
    ) -> None:
        self.negatives_per_edge = negatives_per_edge
        self._rng, head_rng = spawn_rngs(seed, 2)
        self.head = Linear(dim, dim, bias=False, rng=head_rng)

    def parameters(self) -> List[Parameter]:
        return self.head.parameters()

    def epoch_begin(self, graph: HeteroGraph, examples: np.ndarray) -> np.ndarray:
        return np.union1d(graph._src[examples], graph.indices[examples])

    def microbatch(self, trainer, examples: np.ndarray):
        graph = trainer.graph
        negatives = self._rng.integers(
            graph.num_nodes, size=(examples.size, self.negatives_per_edge)
        )
        sources = graph._src[examples]
        contexts = np.column_stack([graph.indices[examples], negatives])
        nodes = np.unique(np.concatenate([sources, contexts.ravel()]))

        def loss(table: Tensor):
            anchors = ops.embedding_lookup(table, np.searchsorted(nodes, sources))
            context_rows = np.searchsorted(nodes, contexts)
            return _context_loss(self.head(anchors), table, context_rows), None

        return nodes, loss

    def score_edges(self, trainer, edges: np.ndarray) -> np.ndarray:
        """Bilinear scores of ``(m, 2)`` node-id pairs under ``trainer``'s model."""
        rows = pair_embeddings(trainer, edges)
        weight = self.head.weight.data
        return np.einsum("md,de,me->m", rows[:, 0], weight, rows[:, 1])


def pair_embeddings(trainer, pairs: np.ndarray) -> np.ndarray:
    """``(m, 2, d)`` embeddings of ``(m, 2)`` node-id pairs, each node
    embedded once."""
    pairs = np.asarray(pairs, dtype=np.int64)
    nodes = np.unique(pairs)
    return trainer.embed(nodes)[np.searchsorted(nodes, pairs)]


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
