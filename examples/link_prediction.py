"""Link prediction: predict missing edges with WIDEN embeddings.

The paper's second downstream task.  We hold out 10% of ACM edges, train
WIDEN against the edge-existence objective (bilinear BCE with negative
sampling), and rank held-out true edges against sampled non-edges
(ROC-AUC).  A model trained on the unsupervised walk-context objective is
a comparison point: the same trainer and the same embeddings serve several
objectives.

Run:  python examples/link_prediction.py
"""

import numpy as np

from repro.core import (
    EdgeExistence,
    WalkContext,
    WidenConfig,
    WidenModel,
    WidenTrainer,
    split_edges,
)
from repro.core.objectives import pair_embeddings
from repro.datasets import make_acm
from repro.eval.metrics import roc_auc


def main() -> None:
    dataset = make_acm(seed=0)
    split = split_edges(dataset.graph, holdout_fraction=0.1, rng=0)
    graph = split.train_graph
    print(f"graph: {dataset.graph}")
    print(f"held-out edges: {len(split.positive_edges)} positives, "
          f"{len(split.negative_edges)} sampled non-edges")

    edges = np.vstack([split.positive_edges, split.negative_edges])
    labels = np.concatenate(
        [np.ones(len(split.positive_edges)), np.zeros(len(split.negative_edges))]
    )

    config = WidenConfig(dim=16, num_wide=6, num_deep=5, num_deep_walks=1,
                         learning_rate=1e-2, dropout=0.0)

    def trainer_for(objective):
        model = WidenModel(
            graph.features.shape[1],
            graph.num_edge_types_with_loops,
            graph.num_classes,
            config,
            seed=0,
        )
        return WidenTrainer(model, graph, config, seed=0, objective=objective)

    rng = np.random.default_rng(0)

    print("\n-- WIDEN with the bilinear edge objective --")
    edge_objective = EdgeExistence(config.dim, seed=0)
    trainer = trainer_for(edge_objective)
    auc_before = roc_auc(labels, edge_objective.score_edges(trainer, edges))
    for _ in range(6):  # each epoch trains on 512 fresh training-edge ids
        trainer.fit(rng.integers(graph.num_edges, size=512), epochs=1)
    auc_after = roc_auc(labels, edge_objective.score_edges(trainer, edges))
    print(f"ROC-AUC before training: {auc_before:.3f}")
    print(f"ROC-AUC after training:  {auc_after:.3f}")

    print("\n-- Unsupervised walk-context embeddings, dot-product scoring --")
    unsupervised = trainer_for(WalkContext(seed=0))
    for _ in range(4):  # each epoch trains on 256 fresh anchors
        unsupervised.fit(rng.integers(graph.num_nodes, size=256), epochs=1)
    rows = pair_embeddings(unsupervised, edges)
    scores = np.sum(rows[:, 0] * rows[:, 1], axis=1)
    print(f"ROC-AUC (unsupervised embeddings): {roc_auc(labels, scores):.3f}")


if __name__ == "__main__":
    main()
