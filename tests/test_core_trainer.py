"""Integration tests: WIDEN end-to-end training, evaluation, inductiveness."""

import numpy as np
import pytest

from repro.core import WidenClassifier, WidenConfig, WidenModel, WidenTrainer
from repro.core.state import NeighborStateStore
from repro.datasets import make_acm, make_inductive_split


@pytest.fixture(scope="module")
def dataset():
    return make_acm(seed=0)


def build(graph, seed=0, **overrides):
    defaults = dict(dim=16, num_wide=6, num_deep=5, num_deep_walks=2, batch_size=32)
    defaults.update(overrides)
    config = WidenConfig(**defaults)
    model = WidenModel(
        graph.features.shape[1],
        graph.num_edge_types_with_loops,
        graph.num_classes,
        config,
        seed=seed,
    )
    return model, WidenTrainer(model, graph, config, seed=seed)


class TestTraining:
    def test_loss_decreases(self, dataset):
        _, trainer = build(dataset.graph)
        history = trainer.fit(dataset.split.train, epochs=5)
        assert history.losses[-1] < history.losses[0]

    def test_history_lengths(self, dataset):
        _, trainer = build(dataset.graph)
        history = trainer.fit(dataset.split.train[:32], epochs=3)
        assert history.epochs == 3
        assert len(history.epoch_seconds) == 3
        assert all(seconds > 0 for seconds in history.epoch_seconds)

    def test_fit_is_resumable(self, dataset):
        _, trainer = build(dataset.graph)
        trainer.fit(dataset.split.train[:32], epochs=2)
        history = trainer.fit(dataset.split.train[:32], epochs=2)
        assert history.epochs == 4

    def test_beats_majority_class(self, dataset):
        _, trainer = build(dataset.graph)
        trainer.fit(dataset.split.train, epochs=8)
        predictions = trainer.predict(trainer.embed(dataset.split.test))
        accuracy = (predictions == dataset.graph.labels[dataset.split.test]).mean()
        labels = dataset.graph.labels[dataset.split.test]
        majority = np.bincount(labels).max() / labels.size
        assert accuracy > majority + 0.1

    def test_embeddings_are_unit_norm(self, dataset):
        _, trainer = build(dataset.graph)
        trainer.fit(dataset.split.train[:32], epochs=1)
        embeddings = trainer.embed(dataset.split.val[:10])
        np.testing.assert_allclose(
            np.linalg.norm(embeddings, axis=1), np.ones(10), atol=1e-6
        )

    def test_eval_does_not_perturb_training_state(self, dataset):
        _, trainer = build(dataset.graph)
        trainer.fit(dataset.split.train[:32], epochs=1)
        before = {
            name: param.copy() for name, param in trainer.model.state_dict().items()
        }
        trainer.embed(dataset.split.val[:10])
        after = trainer.model.state_dict()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])
        assert trainer.model.training  # restored to train mode


class TestModeHandOff:
    """Serving sets eval mode and leaves it; every training step sets train
    mode.  Both directions are pinned, with dropout on."""

    def _classifier(self, dataset):
        model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5, batch_size=16)
        model.fit(dataset.graph, dataset.split.train[:48], 1)
        return model

    def test_serving_between_steps_leaves_training_bit_identical(self, dataset):
        def two_steps(serve_between):
            model = self._classifier(dataset)
            trainer = model.trainer
            trainer.epoch_begin(dataset.split.train[:48])
            trainer.run_microbatch(0)
            trainer.apply_update()
            if serve_between:
                model.embed_for_serving_batch(dataset.split.test[:5], dataset.graph, 3)
            trainer.run_microbatch(16)
            trainer.apply_update()
            return model.model.state_dict(), trainer.rng_state()

        assert self._classifier(dataset).config.dropout > 0
        plain, served = two_steps(False), two_steps(True)
        for name in plain[0]:
            np.testing.assert_array_equal(plain[0][name], served[0][name])
        assert plain[1] == served[1]

    def test_serving_answer_ignores_the_mode_it_found(self, dataset):
        model = self._classifier(dataset)
        nodes, graph = dataset.split.test[:5], dataset.graph
        answers = []
        for set_mode in (model.model.train, model.model.eval, model.model.train):
            set_mode()
            embeddings, reads = model.embed_for_serving_batch(nodes, graph, 3)
            answers.append((embeddings, reads))
            assert not any(module.training for module in model.model.modules())
        for embeddings, reads in answers[1:]:
            np.testing.assert_array_equal(embeddings, answers[0][0])
            np.testing.assert_array_equal(reads, answers[0][1])


class TestInductive:
    def test_embeds_unseen_nodes(self, dataset):
        split = make_inductive_split(dataset, rng=0)
        _, trainer = build(split.train_graph)
        trainer.fit(split.train_nodes, epochs=5)
        embeddings = trainer.embed_inductive(dataset.graph, split.holdout, rng=3)
        assert embeddings.shape == (split.holdout.size, 16)
        assert np.isfinite(embeddings).all()

    def test_inductive_accuracy_beats_chance(self, dataset):
        split = make_inductive_split(dataset, rng=0)
        _, trainer = build(split.train_graph)
        trainer.fit(split.train_nodes, epochs=8)
        predictions = trainer.predict(
            trainer.embed_inductive(dataset.graph, split.holdout, rng=3)
        )
        accuracy = (predictions == dataset.graph.labels[split.holdout]).mean()
        assert accuracy > 1.5 / dataset.num_classes

    def test_inductive_uses_no_identity_information(self, dataset):
        """Permuting an unseen node's id must not change its embedding when
        features and neighborhoods are identical — verified by embedding the
        same node through two stores with the same sampling rng."""
        split = make_inductive_split(dataset, rng=0)
        _, trainer = build(split.train_graph)
        trainer.fit(split.train_nodes, epochs=2)
        node = split.holdout[:5]
        a = trainer.embed_inductive(dataset.graph, node, rng=11)
        b = trainer.embed_inductive(dataset.graph, node, rng=11)
        np.testing.assert_allclose(a, b)


class TestStateStore:
    def test_lazy_caching(self, dataset):
        store = NeighborStateStore(dataset.graph, 5, 4, 2, rng=0)
        assert len(store) == 0
        state = store.get(3)
        assert len(store) == 1
        assert 3 in store
        # A second get reads the cached row: nothing is drawn again.
        drawn = store.rng_state()
        again = store.get(3)
        assert store.rng_state() == drawn and len(store.table) == 1
        np.testing.assert_array_equal(again.wide.nodes, state.wide.nodes)
        for walk, cached in zip(again.deep, state.deep):
            np.testing.assert_array_equal(walk.nodes, cached.nodes)

    def test_sample_fresh_not_cached(self, dataset):
        store = NeighborStateStore(dataset.graph, 5, 4, 2, rng=0)
        rows = store.sample_fresh([3, 8])
        assert rows.tolist() == [0, 1] and len(store.table) == 2
        assert 3 not in store and 8 not in store and len(store) == 0

    def test_phi_walks_sampled(self, dataset):
        store = NeighborStateStore(dataset.graph, 5, 4, 3, rng=0)
        assert len(store.get(0).deep) == 3


class TestDownsamplingEfficiency:
    def test_downsampling_reduces_message_volume(self, dataset):
        """The paper's efficiency claim: active downsampling cuts the number
        of message packs processed per epoch.

        Asserted on the trainer's message-volume counters (packs that
        actually flowed through PASS°/PASS▷ each epoch, recorded in
        ``TrainHistory.wide_messages``/``deep_messages``) rather than
        wall-clock seconds — the structural quantity is deterministic, so
        this test cannot flake under machine load the way the old timing
        comparison did."""
        history = {}
        packs = {}
        nodes = dataset.split.train[:48]
        variants = {
            "attentive": dict(downsample_mode="attentive", use_relay=True),
            "attentive_no_relay": dict(downsample_mode="attentive", use_relay=False),
            "off": dict(downsample_mode="off"),
        }
        for name, overrides in variants.items():
            _, trainer = build(
                dataset.graph, num_wide=20, num_deep=16,
                trigger="always", wide_floor=2, deep_floor=2, **overrides,
            )
            trainer.fit(nodes, epochs=8)
            history[name] = trainer.history
            packs[name] = sum(
                len(trainer.store.get(int(v)).wide)
                + sum(len(deep) for deep in trainer.store.get(int(v)).deep)
                for v in nodes
            )
        assert packs["attentive"] < 0.8 * packs["off"], (
            "downsampling should shrink the total message-pack volume"
        )
        # The per-epoch processed-message counters must tell the same story:
        # with downsampling off, the volume is constant across epochs; with
        # active downsampling it declines monotonically (neighbor sets only
        # ever shrink) and ends well below the constant baseline.
        off = history["off"]
        assert len(set(off.messages)) == 1, (
            "without downsampling the per-epoch message volume is constant"
        )
        for name in ("attentive", "attentive_no_relay"):
            messages = history[name].messages
            assert all(
                later <= earlier
                for earlier, later in zip(messages, messages[1:])
            ), "downsampling can only shrink the per-epoch message volume"
            assert messages[-1] < 0.8 * off.messages[-1], (
                "downsampling should process markedly fewer packs per epoch"
            )
            # Every drop is a trigger fire; under trigger="always" the
            # trainer must record them.
            assert sum(history[name].trigger_fires) == sum(
                history[name].wide_drops
            ) + sum(history[name].deep_drops)
