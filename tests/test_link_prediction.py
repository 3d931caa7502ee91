"""Tests for the link-prediction extension (paper's second downstream task):
the edge-existence objective under WidenTrainer, and the edge split."""

import numpy as np
import pytest

from repro.core import EdgeExistence, WidenConfig, WidenModel, WidenTrainer
from repro.core.objectives import split_edges
from repro.datasets import make_acm
from repro.eval.metrics import roc_auc
from repro.optim import global_grad_norm
from tests.helpers import use_per_node_forward


@pytest.fixture(scope="module")
def acm():
    return make_acm(seed=0)


@pytest.fixture(scope="module")
def split(acm):
    return split_edges(acm.graph, holdout_fraction=0.1, rng=0)


def build(split, seed=0, **overrides):
    defaults = dict(dim=16, num_wide=6, num_deep=5, num_deep_walks=1,
                    learning_rate=1e-2, dropout=0.0)
    defaults.update(overrides)
    config = WidenConfig(**defaults)
    graph = split.train_graph
    model = WidenModel(
        graph.features.shape[1], graph.num_edge_types_with_loops,
        graph.num_classes, config, seed=seed,
    )
    objective = EdgeExistence(config.dim, seed=seed)
    return WidenTrainer(model, graph, config, seed=seed, objective=objective)


def fit(trainer, epochs, edges, seed=0):
    """``epochs`` epochs, each over ``edges`` fresh uniform edge ids."""
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        trainer.fit(rng.integers(trainer.graph.num_edges, size=edges), epochs=1)
    return trainer.history.losses


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_inverted_scores(self):
        assert roc_auc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, 2000)
        scores = rng.random(2000)
        assert abs(roc_auc(labels, scores) - 0.5) < 0.05

    def test_ties_get_midranks(self):
        # All scores equal -> AUC exactly 0.5.
        assert roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.5)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            roc_auc([1, 1], [0.1, 0.2])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            roc_auc([0, 1], [0.5])


class TestSplitEdges:
    def test_counts_and_disjointness(self, acm):
        split = split_edges(acm.graph, holdout_fraction=0.1, rng=0)
        undirected = acm.graph.num_edges // 2
        expected = int(round(0.1 * undirected))
        assert split.positive_edges.shape == (expected, 2)
        assert split.negative_edges.shape == (expected, 2)
        assert split.train_graph.num_edges == acm.graph.num_edges - 2 * expected

    def test_negatives_are_non_edges(self, acm):
        split = split_edges(acm.graph, holdout_fraction=0.05, rng=0)
        adjacency = acm.graph.adjacency()
        for u, v in split.negative_edges:
            assert adjacency[u, v] == 0

    def test_positives_removed_from_train_graph(self, acm):
        split = split_edges(acm.graph, holdout_fraction=0.05, rng=0)
        train_adjacency = split.train_graph.adjacency()
        for u, v in split.positive_edges[:20]:
            assert train_adjacency[u, v] == 0

    def test_node_set_preserved(self, acm):
        split = split_edges(acm.graph, holdout_fraction=0.1, rng=0)
        assert split.train_graph.num_nodes == acm.graph.num_nodes

    def test_rejects_bad_fraction(self, acm):
        with pytest.raises(ValueError):
            split_edges(acm.graph, holdout_fraction=0.0)
        with pytest.raises(ValueError):
            split_edges(acm.graph, holdout_fraction=1.0)


class TestLinkPredictionTrainer:
    def test_training_improves_auc_over_untrained(self, split):
        trainer = build(split)

        def auc():
            edges = np.vstack([split.positive_edges, split.negative_edges])
            labels = np.concatenate(
                [np.ones(len(split.positive_edges)), np.zeros(len(split.negative_edges))]
            )
            return roc_auc(labels, trainer.objective.score_edges(trainer, edges))

        before = auc()
        losses = fit(trainer, epochs=5, edges=512)
        after = auc()
        assert len(losses) == 5
        assert after > before  # training improves ranking ...
        assert after > 0.55  # ... to clearly-predictive territory

    def test_loss_decreases(self, split):
        losses = fit(build(split), epochs=5, edges=256)
        assert losses[-1] < losses[0]

    def test_matches_per_node_reference_loop(self, split, monkeypatch):
        """Training steps (dropout on) and ``score_edges`` go through
        ``forward_batch``; the same trainer over a loop of
        ``WidenModel.forward`` is the reference."""
        batched = build(split, num_deep_walks=2, dropout=0.3)
        reference = build(split, num_deep_walks=2, dropout=0.3)
        use_per_node_forward(monkeypatch, reference.model)
        for trainer in (batched, reference):
            fit(trainer, epochs=2, edges=64)
        np.testing.assert_allclose(
            batched.history.losses, reference.history.losses, atol=1e-10
        )
        edges = split.positive_edges[:30]
        np.testing.assert_allclose(
            batched.objective.score_edges(batched, edges),
            reference.objective.score_edges(reference, edges),
            atol=1e-10,
        )

    def test_head_is_clipped_with_the_model(self, split):
        """One clip covers every optimised tensor, the bilinear head
        included: after one microbatch and its update the global norm of
        all gradients is within ``grad_clip``."""
        trainer = build(split, grad_clip=1e-3)
        head = trainer.objective.head.weight
        assert any(param is head for param in trainer.optimizer.parameters)
        trainer.epoch_begin(np.arange(trainer.config.batch_size))
        trainer.run_microbatch(0)
        trainer.apply_update()
        assert head.grad is not None
        grads = [param.grad for param in trainer.optimizer.parameters]
        assert global_grad_norm(grads) <= 1e-3 + 1e-12
