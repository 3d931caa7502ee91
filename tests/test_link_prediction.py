"""Tests for the link-prediction extension (paper's second downstream task)."""

import numpy as np
import pytest

from repro.core import WidenConfig, WidenModel
from repro.core.link_prediction import EdgeSplit, LinkPredictionTrainer, split_edges
from repro.datasets import make_acm
from repro.eval.metrics import roc_auc
from tests.helpers import use_per_node_forward


@pytest.fixture(scope="module")
def acm():
    return make_acm(seed=0)


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
    def test_training_improves_auc_over_untrained(self, acm):
        split = split_edges(acm.graph, holdout_fraction=0.1, rng=0)
        config = WidenConfig(dim=16, num_wide=6, num_deep=5, num_deep_walks=1,
                             learning_rate=1e-2, dropout=0.0)
        model = WidenModel(
            acm.graph.features.shape[1],
            acm.graph.num_edge_types_with_loops,
            acm.graph.num_classes,
            config,
            seed=0,
        )
        trainer = LinkPredictionTrainer(model, split.train_graph, config, seed=0)

        def auc():
            edges = np.vstack([split.positive_edges, split.negative_edges])
            labels = np.concatenate(
                [np.ones(len(split.positive_edges)), np.zeros(len(split.negative_edges))]
            )
            return roc_auc(labels, trainer.score_edges(edges))

        before = auc()
        trainer.fit(epochs=5, edges_per_epoch=512)
        after = auc()
        assert len(trainer.losses) == 5
        assert after > before  # training improves ranking ...
        assert after > 0.55  # ... to clearly-predictive territory

    def test_loss_decreases(self, acm):
        split = split_edges(acm.graph, holdout_fraction=0.1, rng=0)
        config = WidenConfig(dim=16, num_wide=6, num_deep=5, num_deep_walks=1,
                             learning_rate=1e-2, dropout=0.0)
        model = WidenModel(
            acm.graph.features.shape[1],
            acm.graph.num_edge_types_with_loops,
            acm.graph.num_classes,
            config,
            seed=0,
        )
        trainer = LinkPredictionTrainer(model, split.train_graph, config, seed=0)
        trainer.fit(epochs=5, edges_per_epoch=256)
        assert trainer.losses[-1] < trainer.losses[0]

    def test_matches_per_node_reference_loop(self, acm, monkeypatch):
        """Training steps (dropout on) and ``score_edges`` go through
        ``forward_batch``; the same trainer over a loop of
        ``WidenModel.forward`` is the reference."""
        split = split_edges(acm.graph, holdout_fraction=0.1, rng=0)
        config = WidenConfig(dim=16, num_wide=6, num_deep=5, num_deep_walks=2,
                             learning_rate=1e-2, dropout=0.3)
        trainers = []
        for path in ("batched", "per_node"):
            model = WidenModel(
                acm.graph.features.shape[1],
                acm.graph.num_edge_types_with_loops,
                acm.graph.num_classes,
                config,
                seed=0,
            )
            if path == "per_node":
                use_per_node_forward(monkeypatch, model)
            trainer = LinkPredictionTrainer(model, split.train_graph, config, seed=0)
            trainers.append(trainer.fit(epochs=2, edges_per_epoch=64))
        batched, reference = trainers
        np.testing.assert_allclose(batched.losses, reference.losses, atol=1e-10)
        edges = split.positive_edges[:30]
        np.testing.assert_allclose(
            batched.score_edges(edges), reference.score_edges(edges), atol=1e-10
        )
