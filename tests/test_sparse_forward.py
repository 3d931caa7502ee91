"""Sparse CSR forward path vs the batched and per-node references.

The sparse kernels multiply exactly the same values the padded grids
multiply (padding contributes exact zeros there; here it simply does not
exist), so agreement is expected to gemm-summation-order noise — the
acceptance bar is 1e-10 everywhere: embeddings, attention weights,
parameter gradients, train-mode dropout losses, serving batches, store
rows/blocks, and a mutating 4-shard ``mp`` cluster stream.
"""

import numpy as np
import pytest

from repro.cluster import ClusterRouter
from repro.core import WidenClassifier, WidenConfig, WidenModel
from repro.core.packing import pack_batch, pack_batch_sparse, padded_waste
from repro.core.trainer import WidenTrainer
from repro.datasets import make_acm
from repro.serve import InferenceServer
from repro.store import AggregateStore, build_store
from repro.tensor import kernels, ops
from tests.test_batched_forward import add_relays, make_model, sample_states

VARIANTS = [
    dict(),
    dict(use_successive=True),
    dict(num_heads=2),
    dict(use_successive=True, num_heads=2),
    dict(use_wide=False),
    dict(use_deep=False),
]


@pytest.fixture(scope="module")
def dataset():
    return make_acm(seed=0, scale=0.5)


@pytest.fixture(scope="module")
def graph(dataset):
    return dataset.graph


def sparse_twin(graph, seed=0, **overrides):
    """Same weights as ``make_model`` but dispatching through the CSR path."""
    model = make_model(graph, seed=seed, **overrides)
    model.config.forward_mode = "sparse"
    return model


class TestSparsePackBatch:
    def test_flat_slots_equal_padded_valid_slots(self, graph):
        model = make_model(graph)
        targets = graph.labeled_nodes()[:6]
        states = add_relays(sample_states(graph, model.config, targets))
        padded = pack_batch(targets, states, graph, model.config)
        sparse = pack_batch_sparse(targets, states, graph, model.config)
        # Wide: segment b holds exactly the valid slots of padded row b.
        for b in range(len(targets)):
            lo, hi = sparse.wide_offsets[b], sparse.wide_offsets[b + 1]
            n = int(padded.wide_valid[b].sum())
            assert hi - lo == n
            np.testing.assert_array_equal(
                sparse.wide_src[lo:hi], padded.wide_index[b, :n]
            )
            np.testing.assert_array_equal(
                sparse.wide_etypes[lo:hi], padded.wide_etypes[b, :n]
            )
        # Deep: one segment per (target, walk), same order as the padded rows.
        total = len(targets) * sparse.num_walks
        assert sparse.deep_offsets.shape == (total + 1,)
        for w in range(total):
            lo, hi = sparse.deep_offsets[w], sparse.deep_offsets[w + 1]
            n = int(padded.deep_valid[w].sum())
            assert hi - lo == n
            np.testing.assert_array_equal(
                sparse.deep_src[lo:hi], padded.deep_index[w, :n]
            )

    def test_padding_waste_gauge_reaches_metrics(self, graph):
        from repro.obs import MetricsRegistry, set_registry

        model = make_model(graph)
        targets = graph.labeled_nodes()[:6]
        states = add_relays(sample_states(graph, model.config, targets))
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            pack_batch(targets, states, graph, model.config)
            pack_batch_sparse(targets, states, graph, model.config)
        finally:
            set_registry(previous)
        exposition = registry.render_prometheus()
        assert 'pack_padding_waste{path="wide"}' in exposition
        assert 'pack_padding_waste{path="deep"}' in exposition
        # Both packers report the would-be waste; only the padded packer
        # materializes padding slots.
        assert 'pack_slots_total{kind="padding",path="wide"}' in exposition

    def test_dropout_masks_equal_padded_valid_slots(self, graph):
        model_a = make_model(graph, dropout=0.4)
        model_b = make_model(graph, dropout=0.4)
        model_a.train(), model_b.train()
        targets = graph.labeled_nodes()[:5]
        states = sample_states(graph, model_a.config, targets)
        padded = pack_batch(
            targets, states, graph, model_a.config,
            pack_dropout=model_a.pack_dropout,
            hidden_dropout=model_a.hidden_dropout,
        )
        sparse = pack_batch_sparse(
            targets, states, graph, model_b.config,
            pack_dropout=model_b.pack_dropout,
            hidden_dropout=model_b.hidden_dropout,
            dim=model_b.config.dim,
        )
        for b in range(len(targets)):
            lo, hi = sparse.wide_offsets[b], sparse.wide_offsets[b + 1]
            np.testing.assert_array_equal(
                sparse.wide_dropout[lo:hi], padded.wide_dropout[b, : hi - lo]
            )
        for w in range(len(targets) * sparse.num_walks):
            lo, hi = sparse.deep_offsets[w], sparse.deep_offsets[w + 1]
            np.testing.assert_array_equal(
                sparse.deep_dropout[lo:hi], padded.deep_dropout[w, : hi - lo]
            )
        np.testing.assert_array_equal(
            sparse.hidden_dropout, padded.hidden_dropout
        )


class TestSparseForwardEquivalence:
    @pytest.mark.parametrize(
        "overrides", VARIANTS, ids=[str(v) for v in VARIANTS]
    )
    def test_embeddings_and_attentions_match_batched(self, graph, overrides):
        model_b = make_model(graph, **overrides)
        model_s = sparse_twin(graph, **overrides)
        model_b.eval(), model_s.eval()
        targets = graph.labeled_nodes()[:8]
        states = add_relays(sample_states(graph, model_b.config, targets))
        batched, wide_b, deep_b = model_b.forward_batch(targets, states, graph)
        sparse, wide_s, deep_s = model_s.forward_batch(targets, states, graph)
        np.testing.assert_allclose(sparse.data, batched.data, atol=1e-10)
        for b in range(len(targets)):
            if wide_b[b] is None:
                assert wide_s[b] is None  # use_wide=False ablation
            else:
                np.testing.assert_allclose(wide_s[b], wide_b[b], atol=1e-10)
            assert len(deep_s[b]) == len(deep_b[b])
            for got, want in zip(deep_s[b], deep_b[b]):
                np.testing.assert_allclose(got, want, atol=1e-10)

    def test_embeddings_match_per_node_reference(self, graph):
        model = sparse_twin(graph, use_successive=True)
        model.eval()
        targets = graph.labeled_nodes()[:6]
        states = add_relays(sample_states(graph, model.config, targets))
        sparse, _, _ = model.forward_batch(targets, states, graph)
        for b, (node, state) in enumerate(zip(targets, states)):
            single, _, _ = model.forward(int(node), state, graph, None)
            np.testing.assert_allclose(
                sparse.data[b], single.data, atol=1e-10
            )

    def test_node_state_is_honored(self, graph):
        model_b = make_model(graph)
        model_s = sparse_twin(graph)
        model_b.eval(), model_s.eval()
        targets = graph.labeled_nodes()[:5]
        states = sample_states(graph, model_b.config, targets)
        node_state = model_b.initial_node_state(graph)
        batched, _, _ = model_b.forward_batch(targets, states, graph, node_state)
        sparse, _, _ = model_s.forward_batch(targets, states, graph, node_state)
        np.testing.assert_allclose(sparse.data, batched.data, atol=1e-10)

    def test_gradients_match_batched(self, graph):
        model_b = make_model(graph, use_successive=True)
        model_s = sparse_twin(graph, use_successive=True)
        model_b.eval(), model_s.eval()
        targets = graph.labeled_nodes()[:6]
        states = add_relays(sample_states(graph, model_b.config, targets))
        grads = {}
        for key, model in (("batched", model_b), ("sparse", model_s)):
            out, _, _ = model.forward_batch(targets, states, graph)
            (out * out).sum().backward()
            grads[key] = {
                name: p.grad.copy()
                for name, p in model.named_parameters()
                if p.grad is not None
            }
        assert set(grads["sparse"]) == set(grads["batched"])
        for name, grad in grads["batched"].items():
            np.testing.assert_allclose(
                grads["sparse"][name], grad, atol=1e-10,
                err_msg=f"gradient mismatch for {name}",
            )

    def test_training_dropout_is_bit_identical(self, graph):
        targets = graph.labeled_nodes()[:6]
        model_b = make_model(graph, dropout=0.3)
        model_s = sparse_twin(graph, dropout=0.3)
        model_b.train(), model_s.train()
        states = sample_states(graph, model_b.config, targets)
        batched, _, _ = model_b.forward_batch(targets, states, graph)
        sparse, _, _ = model_s.forward_batch(targets, states, graph)
        np.testing.assert_allclose(sparse.data, batched.data, atol=1e-12)

    def test_single_target_batch(self, graph):
        model = sparse_twin(graph)
        model.eval()
        target = int(graph.labeled_nodes()[0])
        states = sample_states(graph, model.config, [target])
        single, _, _ = model.forward(target, states[0], graph, None)
        sparse, _, _ = model.forward_batch([target], states, graph)
        np.testing.assert_allclose(sparse.data[0], single.data, atol=1e-10)


class TestAutoMode:
    def make_auto(self, graph, **overrides):
        model = make_model(graph, **overrides)
        model.config.forward_mode = "auto"
        return model

    def test_auto_dispatches_on_measured_waste(self, graph):
        model = self.make_auto(graph)
        targets = graph.labeled_nodes()[:8]
        states = add_relays(sample_states(graph, model.config, targets))
        waste = padded_waste(states, model.config)
        before = kernels.get_forward_selection()
        try:
            kernels.set_forward_selection(sparse_min_waste=0.0)
            assert model._select_sparse(states)  # any waste >= 0 routes sparse
            kernels.set_forward_selection(sparse_min_waste=1.0)
            assert not model._select_sparse(states)
            assert 0.0 <= waste < 1.0
        finally:
            kernels.set_forward_selection(**before)

    def test_auto_matches_batched_either_way(self, graph):
        model_b = make_model(graph)
        model_a = self.make_auto(graph)
        model_b.eval(), model_a.eval()
        targets = graph.labeled_nodes()[:6]
        states = add_relays(sample_states(graph, model_b.config, targets))
        batched, _, _ = model_b.forward_batch(targets, states, graph)
        before = kernels.get_forward_selection()
        try:
            for threshold in (0.0, 1.0):  # force each branch in turn
                kernels.set_forward_selection(sparse_min_waste=threshold)
                auto, _, _ = model_a.forward_batch(targets, states, graph)
                np.testing.assert_allclose(auto.data, batched.data, atol=1e-10)
        finally:
            kernels.set_forward_selection(**before)


class TestSparseTrainingAndServing:
    def test_trainer_losses_match_across_modes(self, graph):
        losses = {}
        for mode in ("batched", "sparse"):
            config = WidenConfig(
                dim=16, num_wide=6, num_deep=5, num_deep_walks=2,
                forward_mode=mode,
            )
            model = WidenModel(
                graph.features.shape[1],
                graph.num_edge_types_with_loops,
                graph.num_classes,
                config,
                seed=0,
            )
            trainer = WidenTrainer(model, graph, config, seed=1)
            history = trainer.fit(graph.labeled_nodes()[:64], epochs=2)
            losses[mode] = history.losses
        np.testing.assert_allclose(
            losses["sparse"], losses["batched"], atol=1e-8
        )

    def test_serving_batch_matches_batched_mode(self, graph, dataset):
        nodes = graph.labeled_nodes()
        reference = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        reference.fit(dataset.graph, nodes[:40], epochs=1)
        twin = WidenClassifier(
            seed=0, dim=16, num_wide=6, num_deep=5, forward_mode="sparse"
        )
        twin.fit(dataset.graph, nodes[:40], epochs=1)
        targets = nodes[:6]
        rngs = [np.random.default_rng([7, 0, int(n)]) for n in targets]
        batched = reference.embed_for_serving_batch(targets, graph, rngs)
        rngs = [np.random.default_rng([7, 0, int(n)]) for n in targets]
        sparse = twin.embed_for_serving_batch(targets, graph, rngs)
        np.testing.assert_allclose(sparse, batched, atol=1e-10)

    def test_supports_store_accepts_sparse_rejects_auto(self, graph, dataset):
        model = WidenClassifier(
            seed=0, dim=16, num_wide=6, num_deep=5, forward_mode="sparse"
        )
        model.fit(dataset.graph, graph.labeled_nodes()[:40], epochs=1)
        assert model.supports_store() is None
        model.config.forward_mode = "auto"
        assert "auto" in model.supports_store()


class TestSparseStoreAndCluster:
    @pytest.fixture(scope="class")
    def trained(self, dataset):
        model = WidenClassifier(
            seed=0, dim=16, num_wide=6, num_deep=5, forward_mode="sparse"
        )
        model.fit(dataset.graph, dataset.split.train[:40], epochs=2)
        return model

    @pytest.fixture(scope="class")
    def checkpoint(self, trained, tmp_path_factory):
        path = tmp_path_factory.mktemp("sparse-ckpt") / "widen.npz"
        trained.save(path)
        return path

    @pytest.fixture(scope="class")
    def store_path(self, trained, dataset, tmp_path_factory):
        path = tmp_path_factory.mktemp("sparse-store") / "acm-store"
        build_store(trained, dataset.graph, path, seed=7, dataset="acm")
        return path

    def test_store_rows_and_blocks_match_batched_mode(
        self, trained, dataset, store_path
    ):
        store = AggregateStore.open(store_path)
        rng = np.random.default_rng(3)
        nodes = rng.choice(dataset.graph.num_nodes, size=9, replace=False)
        rows = [store.rows_for(int(node)) for node in nodes]
        blocks, lengths = store.blocks_for(nodes)
        sparse_rows = trained.embed_from_store_rows(rows)
        sparse_blocks = trained.embed_from_store_blocks(blocks, lengths)
        # Same gather, same segment ops: the two sparse store paths are
        # bit-identical, not merely close.
        np.testing.assert_array_equal(sparse_blocks, sparse_rows)
        trained.config.forward_mode = "batched"
        try:
            batched_rows = trained.embed_from_store_rows(rows)
        finally:
            trained.config.forward_mode = "sparse"
        np.testing.assert_allclose(sparse_rows, batched_rows, atol=1e-10)

    def test_store_backed_server_matches_recompute_oracle(
        self, checkpoint, store_path, dataset
    ):
        def fresh(store=None):
            graph = make_acm(seed=0, scale=0.5).graph
            classifier = WidenClassifier.load(checkpoint, graph=graph)
            return InferenceServer(classifier, graph, seed=7, store=store)

        stored = fresh(AggregateStore.open(store_path))
        oracle = fresh()
        rng = np.random.default_rng(3)
        nodes = rng.choice(dataset.graph.num_nodes, size=8, replace=False)
        np.testing.assert_array_equal(
            stored.embed(nodes), oracle.embed(nodes)
        )

    def test_socket_cluster_stream_matches_single_server(self, checkpoint):
        """4 socket shard workers, all running the sparse kernels end to end."""
        graph = make_acm(seed=0, scale=0.5).graph
        single = InferenceServer(
            WidenClassifier.load(checkpoint, graph=graph), graph, seed=7
        )
        router = ClusterRouter.from_checkpoint(
            checkpoint, make_acm(seed=0, scale=0.5).graph, 4,
            transport="socket", seed=7,
        )
        meta = WidenClassifier.read_checkpoint_metadata(checkpoint)
        assert meta["config"]["forward_mode"] == "sparse"
        try:
            rng = np.random.default_rng(11)
            nodes = rng.choice(graph.num_nodes, size=10, replace=False)
            np.testing.assert_array_equal(
                router.embed(nodes), single.embed(nodes)
            )
            author = int(graph.nodes_of_type("author")[0])
            for target in (single, router):
                target.add_edges(
                    "paper-author", [int(nodes[0])], [author]
                )
            np.testing.assert_array_equal(
                router.embed(nodes), single.embed(nodes)
            )
        finally:
            router.close()
