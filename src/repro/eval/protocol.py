"""Protocol runners for the paper's two evaluation settings (Section 4.3).

- :func:`evaluate_transductive` — Table 2's setting: semi-supervised
  training on a fraction of the labeled split, micro-F1 on the test split.
  Full-graph models training on the large Yelp graph go through
  :func:`fit_on_partitions`, reproducing the paper's METIS workaround
  (Section 4.4) with our partitioner.
- :func:`evaluate_inductive` — Table 3's setting: 20% of labeled nodes are
  removed from the graph during training; the trained model must then embed
  and classify them in the restored full graph.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.common import BaseClassifier
from repro.datasets.dataset import Dataset
from repro.datasets.splits import label_fraction as subsample_labels
from repro.datasets.splits import make_inductive_split
from repro.eval.metrics import micro_f1
from repro.graph import HeteroGraph, partition_graph
from repro.utils.rng import SeedLike, new_rng, spawn_rngs


def fit_on_partitions(
    model: BaseClassifier,
    graph: HeteroGraph,
    train_nodes: np.ndarray,
    epochs: int,
    num_parts: int,
    seed: SeedLike = None,
) -> BaseClassifier:
    """Train a full-graph model one partition at a time (the METIS protocol).

    Each epoch cycles over all partitions; training nodes falling in a
    partition are trained against that partition's subgraph only, so
    cross-partition edges are invisible during training — the exact handicap
    the paper imposes on full-graph models for the Yelp-scale setting.
    """
    parts = partition_graph(graph, num_parts, rng=new_rng(seed))
    train_set = np.asarray(train_nodes, dtype=np.int64)
    jobs = []
    for nodes in parts:
        subgraph, mapping = graph.subgraph(nodes)
        old_to_new = np.full(graph.num_nodes, -1, dtype=np.int64)
        old_to_new[mapping] = np.arange(mapping.size)
        local_train = old_to_new[np.intersect1d(train_set, mapping)]
        if local_train.size:
            jobs.append((subgraph, local_train))
    if not jobs:
        raise ValueError("no partition contains any training node")
    for _ in range(epochs):
        for subgraph, local_train in jobs:
            if model.graph is not None:
                model.rebind(subgraph)
            model.fit(subgraph, local_train, epochs=1)
    return model


def evaluate_transductive(
    model: BaseClassifier,
    dataset: Dataset,
    epochs: int,
    label_fraction: float = 1.0,
    num_parts: Optional[int] = None,
    seed: SeedLike = None,
) -> float:
    """Train on ``label_fraction`` of the training split; micro-F1 on test.

    ``num_parts`` switches on partition training (for full-graph models on
    the Yelp-scale dataset).
    """
    fraction_rng, partition_rng = spawn_rngs(seed, 2)
    train = (
        subsample_labels(dataset.split.train, label_fraction, rng=fraction_rng)
        if label_fraction < 1.0
        else dataset.split.train
    )
    if num_parts and num_parts > 1:
        fit_on_partitions(
            model, dataset.graph, train, epochs, num_parts, seed=partition_rng
        )
        predictions = model.predict(dataset.split.test, graph=dataset.graph)
    else:
        model.fit(dataset.graph, train, epochs)
        predictions = model.predict(dataset.split.test)
    return micro_f1(dataset.graph.labels[dataset.split.test], predictions)


def evaluate_inductive(
    model: BaseClassifier,
    dataset: Dataset,
    epochs: int,
    holdout_fraction: float = 0.2,
    seed: SeedLike = None,
) -> float:
    """Table 3's protocol: train with holdout nodes absent, then classify
    them in the restored full graph."""
    if not model.supports_inductive:
        raise ValueError(f"{model.name} does not support the inductive protocol")
    split = make_inductive_split(dataset, holdout_fraction, rng=new_rng(seed))
    model.fit(split.train_graph, split.train_nodes, epochs)
    predictions = model.predict(split.holdout, graph=dataset.graph)
    return micro_f1(dataset.graph.labels[split.holdout], predictions)
