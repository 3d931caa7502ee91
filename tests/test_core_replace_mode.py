"""Tests for Algorithm 3's literal embedding-replacement mode.

``WidenConfig(embedding_mode="replace")`` keeps a persistent table of
current representations: every processed node's output overwrites its row,
and neighbors read refined (detached) embeddings from it.
"""

import numpy as np
import pytest

from repro.core import WidenConfig, WidenModel, WidenTrainer
from repro.datasets import make_acm, make_inductive_split


@pytest.fixture(scope="module")
def acm():
    return make_acm(seed=0)


def build(graph, **overrides):
    defaults = dict(
        dim=16, num_wide=6, num_deep=5, num_deep_walks=1,
        embedding_mode="replace", refresh_fraction=0.2,
    )
    defaults.update(overrides)
    config = WidenConfig(**defaults)
    model = WidenModel(
        graph.features.shape[1], graph.num_edge_types_with_loops,
        graph.num_classes, config, seed=0,
    )
    return model, WidenTrainer(model, graph, config, seed=0)


class TestReplaceMode:
    def test_initial_state_is_normalized_projection(self, acm):
        model, trainer = build(acm.graph)
        assert trainer.node_state is not None
        norms = np.linalg.norm(trainer.node_state, axis=1)
        np.testing.assert_allclose(norms, np.ones_like(norms), atol=1e-9)

    def test_project_mode_keeps_no_table(self, acm):
        _, trainer = build(acm.graph, embedding_mode="project")
        assert trainer.node_state is None

    def test_training_overwrites_processed_rows(self, acm):
        model, trainer = build(acm.graph)
        nodes = acm.split.train[:16]
        before = trainer.node_state[nodes].copy()
        trainer.fit(nodes, epochs=1)
        after = trainer.node_state[nodes]
        assert not np.allclose(before, after)

    def test_refresh_updates_some_unlabeled_rows(self, acm):
        model, trainer = build(acm.graph, refresh_fraction=0.5)
        nodes = acm.split.train[:16]
        others = np.setdiff1d(np.arange(acm.graph.num_nodes), nodes)
        before = trainer.node_state[others].copy()
        trainer.fit(nodes, epochs=3)  # refresh starts from epoch 1
        changed = (~np.isclose(trainer.node_state[others], before)).any(axis=1)
        assert changed.sum() > 0.2 * others.size

    def test_zero_refresh_leaves_others_untouched(self, acm):
        model, trainer = build(acm.graph, refresh_fraction=0.0)
        nodes = acm.split.train[:16]
        others = np.setdiff1d(np.arange(acm.graph.num_nodes), nodes)
        before = trainer.node_state[others].copy()
        trainer.fit(nodes, epochs=2)
        np.testing.assert_allclose(trainer.node_state[others], before)

    def test_learns_above_chance(self, acm):
        model, trainer = build(acm.graph, learning_rate=1e-2, dim=32)
        trainer.fit(acm.split.train, epochs=12)
        predictions = trainer.predict(trainer.embed(acm.split.test))
        accuracy = (predictions == acm.graph.labels[acm.split.test]).mean()
        assert accuracy > 0.45

    def test_inductive_warmup_runs(self, acm):
        split = make_inductive_split(acm, rng=0)
        model, trainer = build(split.train_graph, learning_rate=1e-2)
        trainer.fit(split.train_nodes[:64], epochs=2)
        embeddings = trainer.embed_inductive(acm.graph, split.holdout[:20], rng=3)
        assert embeddings.shape == (20, 16)
        assert np.isfinite(embeddings).all()

    def test_eval_does_not_mutate_state_table(self, acm):
        model, trainer = build(acm.graph)
        trainer.fit(acm.split.train[:16], epochs=1)
        snapshot = trainer.node_state.copy()
        trainer.embed(acm.split.val[:10])
        np.testing.assert_allclose(trainer.node_state, snapshot)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            WidenConfig(embedding_mode="magic")
        with pytest.raises(ValueError):
            WidenConfig(refresh_fraction=1.5)
