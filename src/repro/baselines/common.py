"""Shared baseline infrastructure.

:class:`BaseClassifier` fixes the interface every baseline implements so
evaluation protocols and benchmark harnesses treat all models uniformly:

- ``fit(graph, train_nodes, epochs)`` — semi-supervised training on labeled
  nodes of ``graph``; records per-epoch losses and wall-clock seconds.
- ``predict(nodes, graph=None)`` / ``embed(nodes, graph=None)`` — inference.
  Passing a *different* graph than the one trained on realizes the paper's
  inductive protocol (Section 4.3) for models whose parameters are node-count
  independent; identity-based models (Node2Vec) set
  ``supports_inductive = False`` and reject it.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from repro.graph import HeteroGraph
from repro.nn import Module
from repro.tensor import no_grad


def sample_neighbor_matrix(
    graph: HeteroGraph, nodes: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Fixed-size neighbor sample: ``(len(nodes), k)`` ids, with replacement.

    Isolated nodes fall back to themselves, which makes the mean/attention
    aggregators of GraphSAGE/GAT/HGT degenerate gracefully to self-loops.
    """
    result = np.empty((nodes.size, k), dtype=np.int64)
    for row, node in enumerate(nodes):
        neighbors, _ = graph.neighbors(int(node))
        if neighbors.size == 0:
            result[row] = node
        else:
            result[row] = neighbors[rng.integers(neighbors.size, size=k)]
    return result


def sample_typed_neighbor_matrix(
    graph: HeteroGraph, nodes: np.ndarray, k: int, rng: np.random.Generator
):
    """Like :func:`sample_neighbor_matrix` but also returns the edge types.

    Isolated nodes use their own self-loop edge type (HGT's fallback).
    """
    neighbor_ids = np.empty((nodes.size, k), dtype=np.int64)
    edge_types = np.empty((nodes.size, k), dtype=np.int64)
    for row, node in enumerate(nodes):
        neighbors, etypes = graph.neighbors(int(node))
        if neighbors.size == 0:
            neighbor_ids[row] = node
            edge_types[row] = graph.self_loop_type(int(node))
        else:
            picks = rng.integers(neighbors.size, size=k)
            neighbor_ids[row] = neighbors[picks]
            edge_types[row] = etypes[picks]
    return neighbor_ids, edge_types


class BaseClassifier:
    """Common skeleton: training loop bookkeeping + inference plumbing."""

    name: str = "base"
    supports_inductive: bool = True

    def __init__(self) -> None:
        self.graph: Optional[HeteroGraph] = None
        self.losses: List[float] = []
        self.epoch_seconds: List[float] = []

    # -- subclass contract ----------------------------------------------

    def _build(self, graph: HeteroGraph) -> None:
        """Create parameters for ``graph``'s feature/class dimensions."""
        raise NotImplementedError

    def _train_epoch(self, train_nodes: np.ndarray) -> float:
        """One optimization epoch; returns mean training loss."""
        raise NotImplementedError

    def _embed(self, nodes: np.ndarray, graph: HeteroGraph) -> np.ndarray:
        """Embeddings (pre-classifier representations) for ``nodes``."""
        raise NotImplementedError

    def _predict(self, nodes: np.ndarray, graph: HeteroGraph) -> np.ndarray:
        """Predicted class per node."""
        raise NotImplementedError

    # -- public API -------------------------------------------------------

    def fit(
        self, graph: HeteroGraph, train_nodes: np.ndarray, epochs: int
    ) -> "BaseClassifier":
        train_nodes = np.asarray(train_nodes, dtype=np.int64)
        if (graph.labels[train_nodes] < 0).any():
            raise ValueError("all training nodes must be labeled")
        if self.graph is None:
            self.graph = graph
            self._build(graph)
        elif self.graph is not graph:
            raise ValueError("fit() must be called with the same graph each time")
        for _ in range(epochs):
            start = time.perf_counter()
            loss = self._train_epoch(train_nodes)
            self.epoch_seconds.append(time.perf_counter() - start)
            self.losses.append(loss)
        return self

    def rebind(self, graph: HeteroGraph) -> None:
        """Point the model at a different graph without resetting parameters.

        Used by partition training (``fit_on_partitions``): the parameters
        are feature-dimensional, so they carry across subgraphs; per-graph
        caches are rebuilt via :meth:`_on_rebind`.
        """
        if self.graph is None:
            raise RuntimeError("rebind() before the first fit(); just call fit()")
        if graph is self.graph:
            return
        self.graph = graph
        self._on_rebind(graph)

    def _on_rebind(self, graph: HeteroGraph) -> None:
        """Hook for rebuilding graph-specific caches after :meth:`rebind`."""

    def predict(
        self, nodes: np.ndarray, graph: Optional[HeteroGraph] = None
    ) -> np.ndarray:
        graph = self._resolve_graph(graph)
        with no_grad():
            return self._predict(np.asarray(nodes, dtype=np.int64), graph)

    def embed(
        self, nodes: np.ndarray, graph: Optional[HeteroGraph] = None
    ) -> np.ndarray:
        graph = self._resolve_graph(graph)
        with no_grad():
            return self._embed(np.asarray(nodes, dtype=np.int64), graph)

    def num_parameters(self) -> int:
        """Trainable scalar count (Fig. 4's model-complexity context)."""
        total = 0
        for value in vars(self).values():
            if isinstance(value, Module):
                total += value.num_parameters()
        return total

    def _resolve_graph(self, graph: Optional[HeteroGraph]) -> HeteroGraph:
        if self.graph is None:
            raise RuntimeError(f"{self.name}: predict/embed called before fit")
        if graph is None or graph is self.graph:
            return self.graph
        if not self.supports_inductive:
            raise ValueError(
                f"{self.name} is transductive-only and cannot run on a new graph"
            )
        return graph
