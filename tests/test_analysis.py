"""Tests for the attention analysis tools."""

import numpy as np
import pytest

from repro.core import WidenConfig, WidenModel, WidenTrainer
from repro.core.analysis import downsampling_summary, edge_type_attention_profile
from repro.datasets import make_acm


@pytest.fixture(scope="module")
def acm():
    return make_acm(seed=0)


@pytest.fixture(scope="module")
def trained(acm):
    config = WidenConfig(dim=32, num_wide=10, num_deep=8, num_deep_walks=2,
                         learning_rate=1e-2, dropout=0.5)
    graph = acm.graph
    model = WidenModel(
        graph.features.shape[1], graph.num_edge_types_with_loops,
        graph.num_classes, config, seed=0,
    )
    trainer = WidenTrainer(model, graph, config, seed=0)
    trainer.fit(acm.split.train, epochs=15)
    return trainer


class TestAttentionProfile:
    def test_profile_covers_incident_edge_types(self, trained, acm):
        profile = edge_type_attention_profile(trained, acm.split.train[:60])
        assert "self" in profile
        assert "paper-author" in profile
        assert "paper-subject" in profile
        assert all(0.0 <= value <= 1.0 for value in profile.values())

    def test_informative_relation_outweighs_noisy_one(self, trained, acm):
        """The mechanism claim: after training, packs arriving over the
        strongly homophilous authorship relation should attract more
        attention per pack than packs over the noisy subject relation
        (homophily 0.9 vs 0.15 in the ACM generator)."""
        profile = edge_type_attention_profile(trained, acm.split.train)
        assert profile["paper-author"] > profile["paper-subject"], profile

    def test_untrained_model_has_flatter_profile(self, acm):
        config = WidenConfig(dim=32, num_wide=10, num_deep=8, num_deep_walks=2)
        graph = acm.graph
        model = WidenModel(
            graph.features.shape[1], graph.num_edge_types_with_loops,
            graph.num_classes, config, seed=0,
        )
        fresh = WidenTrainer(model, graph, config, seed=0)
        profile = edge_type_attention_profile(fresh, acm.split.train[:40])
        gap = abs(profile["paper-author"] - profile["paper-subject"])
        assert gap < 0.15  # near-uniform before any training


class TestDownsamplingSummary:
    def test_summary_reflects_shrinking(self, trained, acm):
        summary = downsampling_summary(trained, acm.split.train)
        assert summary["mean_wide_size"] < trained.config.num_wide
        assert summary["relay_count"] >= 0
        assert summary["max_relay_depth"] >= 0

    def test_fresh_trainer_has_no_relays(self, acm):
        config = WidenConfig(dim=8, num_wide=5, num_deep=4, num_deep_walks=1)
        graph = acm.graph
        model = WidenModel(
            graph.features.shape[1], graph.num_edge_types_with_loops,
            graph.num_classes, config, seed=0,
        )
        fresh = WidenTrainer(model, graph, config, seed=0)
        summary = downsampling_summary(fresh, acm.split.train[:10])
        assert summary["relay_count"] == 0
        assert summary["mean_wide_size"] == pytest.approx(5.0)
