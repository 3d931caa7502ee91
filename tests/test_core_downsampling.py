"""Tests for Algorithms 1-2 (shrink/prune), relay recipes and the KL trigger."""

import dataclasses

import numpy as np
import pytest

from repro.core import WidenConfig, WidenModel, WidenTrainer
from repro.core.ablation import ABLATION_VARIANTS, make_variant_config
from repro.core.packing import AttentionGrid
from repro.core.relay import RelayRecipe, prune_deep, shrink_wide
from repro.datasets import make_acm
from repro.graph.sampling import DeepNeighborSet, WideNeighborSet


def wide_set(n=5):
    return WideNeighborSet(0, np.arange(10, 10 + n), np.zeros(n, dtype=np.int64))


def deep_set(n=5):
    return DeepNeighborSet(
        0, np.arange(20, 20 + n), np.arange(n, dtype=np.int64) % 3
    )


class TestShrinkWide:
    def test_drops_argmin_excluding_target(self):
        wide = wide_set(4)
        weights = np.array([0.01, 0.3, 0.05, 0.4, 0.24])  # target first
        result = shrink_wide(wide, weights)
        assert len(result) == 3
        # Neighbor with weight 0.05 (local index 1) is gone.
        assert 11 not in result.nodes
        # Target's own weight (smallest overall) is never a deletion candidate.
        np.testing.assert_array_equal(result.nodes, [10, 12, 13])

    def test_local_indices_reindexed(self):
        wide = wide_set(4)
        weights = np.array([0.5, 0.4, 0.01, 0.05, 0.04])
        result = shrink_wide(wide, weights)
        np.testing.assert_array_equal(result.nodes, [10, 12, 13])

    def test_rejects_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            shrink_wide(wide_set(4), np.ones(3))

    def test_rejects_empty_set(self):
        with pytest.raises(ValueError):
            shrink_wide(wide_set(0), np.ones(1))


class TestPruneDeep:
    def test_installs_relay_on_successor(self):
        deep = deep_set(5)
        weights = np.array([0.5, 0.2, 0.01, 0.1, 0.1, 0.09])  # victim local idx 1
        result = prune_deep(deep, weights)
        assert len(result) == 4
        assert 21 not in result.nodes
        recipe = result.relays[1]  # old position 2 shifted to 1
        assert isinstance(recipe, RelayRecipe)
        assert recipe.deleted_node == 21
        assert recipe.deleted == int(deep.etypes[1])
        assert recipe.outer == int(deep.etypes[2])

    def test_last_element_prune_needs_no_relay(self):
        deep = deep_set(4)
        weights = np.array([0.5, 0.2, 0.15, 0.1, 0.05])  # victim is the last
        result = prune_deep(deep, weights)
        assert len(result) == 3
        assert all(relay is None for relay in result.relays)

    def test_no_relay_mode_discards(self):
        deep = deep_set(5)
        weights = np.array([0.5, 0.2, 0.01, 0.1, 0.1, 0.09])
        result = prune_deep(deep, weights, use_relay=False)
        assert all(relay is None for relay in result.relays)

    def test_repeated_prunes_nest_recipes(self):
        deep = deep_set(5)
        weights = np.array([0.5, 0.2, 0.01, 0.1, 0.1, 0.09])
        once = prune_deep(deep, weights)
        # Prune the pack that now carries the relay (local idx 1 -> weight pos 2).
        weights2 = np.array([0.5, 0.3, 0.01, 0.1, 0.09])
        twice = prune_deep(once, weights2)
        nested = twice.relays[1]
        assert isinstance(nested, RelayRecipe)
        assert nested.depth() == 2

    def test_prune_preserves_order_of_survivors(self):
        deep = deep_set(5)
        weights = np.array([0.5, 0.2, 0.01, 0.1, 0.1, 0.09])
        result = prune_deep(deep, weights)
        np.testing.assert_array_equal(result.nodes, [20, 22, 23, 24])

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            prune_deep(deep_set(3), np.ones(2))
        with pytest.raises(ValueError):
            prune_deep(deep_set(0), np.ones(1))


class TestKLTrigger:
    @pytest.fixture
    def trainer(self):
        dataset = make_acm(seed=0)
        graph = dataset.graph
        config = WidenConfig(dim=8, num_wide=6, num_deep=5, num_deep_walks=1,
                             wide_floor=2, deep_floor=2)
        model = WidenModel(
            graph.features.shape[1], graph.num_edge_types_with_loops,
            graph.num_classes, config, seed=0,
        )
        return WidenTrainer(model, graph, config, seed=0)

    @staticmethod
    def fires(trainer, trigger, prev, current, threshold, prev_len=None):
        """``_fires`` for one above-floor segment remembering ``prev``
        (``prev_len`` 0: a set that changed since forgot it)."""
        current = np.asarray(current, float)
        memory = np.zeros((1, max(current.size, 0 if prev is None else len(prev))))
        memory_len = np.zeros(1, np.int64)
        if prev is not None:
            memory[0, : len(prev)] = prev
            memory_len[0] = len(prev) if prev_len is None else prev_len
        fired, _ = trainer._fires(
            trigger,
            AttentionGrid(current[np.newaxis], np.array([current.size])),
            np.ones(1, bool), memory, memory_len, np.zeros(1, np.int64),
            threshold,
        )
        return bool(fired[0])

    def test_no_fire_in_first_epoch(self, trainer):
        assert not self.fires(trainer, "kl", None, np.ones(3) / 3, threshold=1e9)

    def test_fires_on_small_kl(self, trainer):
        trainer._epoch = 2
        att = np.array([0.5, 0.3, 0.2])
        assert self.fires(trainer, "kl", att, att.copy(), 1e-3)

    def test_no_fire_on_large_kl(self, trainer):
        trainer._epoch = 2
        prev = np.array([0.9, 0.05, 0.05])
        curr = np.array([0.1, 0.45, 0.45])
        assert not self.fires(trainer, "kl", prev, curr, 1e-3)

    def test_no_fire_on_signature_change(self, trainer):
        """Eq. 9's '+inf otherwise' branch: different neighbor set, no fire."""
        trainer._epoch = 2
        att = np.array([0.5, 0.3, 0.2])
        # A downsample forgot the distribution, or the set shrank under it.
        assert not self.fires(trainer, "kl", att, att, 1e9, prev_len=0)
        assert not self.fires(trainer, "kl", att, att[:2] / att[:2].sum(), 1e9)

    def test_always_trigger(self, trainer):
        assert self.fires(trainer, "always", None, np.ones(2) / 2, 0.0)


class TestTrainerDownsampling:
    def make_trainer(self, **config_overrides):
        dataset = make_acm(seed=0)
        config = WidenConfig(
            dim=8, num_wide=6, num_deep=5, num_deep_walks=1,
            wide_floor=2, deep_floor=2, batch_size=16, **config_overrides,
        )
        graph = dataset.graph
        model = WidenModel(
            graph.features.shape[1], graph.num_edge_types_with_loops,
            graph.num_classes, config, seed=0,
        )
        trainer = WidenTrainer(model, graph, config, seed=0)
        return trainer, dataset

    def test_downsampling_shrinks_sets_over_epochs(self):
        trainer, dataset = self.make_trainer()
        nodes = dataset.split.train[:24]
        trainer.fit(nodes, epochs=6)
        sizes = [len(trainer.store.get(int(v)).wide) for v in nodes]
        assert min(sizes) < 6  # something got dropped
        assert sum(trainer.history.wide_drops) > 0
        assert sum(trainer.history.deep_drops) > 0

    def test_floors_are_respected(self):
        trainer, dataset = self.make_trainer(trigger="always")
        nodes = dataset.split.train[:16]
        trainer.fit(nodes, epochs=10)
        for v in nodes:
            state = trainer.store.get(int(v))
            # Isolated/short-walk nodes may start below the floor; they must
            # never be downsampled below it.
            assert len(state.wide) >= min(2, trainer.config.num_wide)
            for deep in state.deep:
                assert len(deep) >= 0

    def test_off_mode_never_drops(self):
        trainer, dataset = self.make_trainer(downsample_mode="off")
        trainer.fit(dataset.split.train[:16], epochs=4)
        assert sum(trainer.history.wide_drops) == 0
        assert sum(trainer.history.deep_drops) == 0

    def test_never_trigger_never_drops(self):
        trainer, dataset = self.make_trainer(trigger="never")
        trainer.fit(dataset.split.train[:16], epochs=4)
        assert sum(trainer.history.wide_drops) == 0

    def test_per_side_random_modes(self):
        trainer, dataset = self.make_trainer(wide_downsample="random")
        assert trainer.config.effective_wide_mode == "random"
        assert trainer.config.effective_deep_mode == "attentive"
        trainer.fit(dataset.split.train[:16], epochs=3)
        # Random mode bypasses the KL trigger: wide drops start from epoch 1.
        assert sum(trainer.history.wide_drops) > 0

    def test_relay_recipes_appear_after_attentive_prunes(self):
        trainer, dataset = self.make_trainer(trigger="always")
        nodes = dataset.split.train[:16]
        trainer.fit(nodes, epochs=4)
        found_relay = any(
            any(relay is not None for relay in trainer.store.get(int(v)).deep[0].relays)
            for v in nodes
        )
        assert found_relay

    def test_no_relay_config_produces_no_recipes(self):
        trainer, dataset = self.make_trainer(trigger="always", use_relay=False)
        nodes = dataset.split.train[:16]
        trainer.fit(nodes, epochs=4)
        for v in nodes:
            assert all(relay is None for relay in trainer.store.get(int(v)).deep[0].relays)

    def test_unlabeled_training_node_rejected(self):
        trainer, dataset = self.make_trainer()
        unlabeled = np.flatnonzero(dataset.graph.labels < 0)[:4]
        with pytest.raises(ValueError):
            trainer.fit(unlabeled, epochs=1)


class TestAblationConfigs:
    def test_all_paper_rows_present(self):
        expected = {
            "default", "no_downsampling", "no_wide", "no_deep",
            "no_successive", "no_relay",
            "random_wide_downsampling", "random_deep_downsampling",
        }
        assert set(ABLATION_VARIANTS) == expected

    def test_variant_overrides_apply(self):
        base = WidenConfig(dim=8)
        assert make_variant_config(base, "no_wide").use_wide is False
        assert make_variant_config(base, "no_downsampling").downsample_mode == "off"
        assert make_variant_config(base, "no_relay").use_relay is False
        rand_wide = make_variant_config(base, "random_wide_downsampling")
        assert rand_wide.effective_wide_mode == "random"
        assert rand_wide.effective_deep_mode == "attentive"

    def test_default_is_identity(self):
        base = WidenConfig(dim=8)
        assert make_variant_config(base, "default") == base

    def test_unknown_variant_raises(self):
        with pytest.raises(KeyError):
            make_variant_config(WidenConfig(), "bogus")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WidenConfig(use_wide=False, use_deep=False)
        with pytest.raises(ValueError):
            WidenConfig(downsample_mode="sometimes")
        with pytest.raises(ValueError):
            WidenConfig(trigger="maybe")
        with pytest.raises(ValueError):
            WidenConfig(dim=0)
        with pytest.raises(ValueError):
            WidenConfig(wide_floor=0)
        with pytest.raises(ValueError):
            WidenConfig(wide_downsample="bogus")
