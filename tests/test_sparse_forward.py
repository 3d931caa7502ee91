"""CSR kernels vs the padded kernels and the per-node reference.

The CSR kernels multiply exactly the same values the padded grids multiply
(padding contributes exact zeros there; here it simply does not exist), so
agreement is expected to gemm-summation-order noise — the acceptance bar is
1e-10 everywhere: embeddings, attention weights, parameter gradients,
train-mode dropout outputs and trainer losses.

Nothing selects a family by name any more: a trainer minibatch takes the
CSR kernels when its padding waste reaches
``repro.core.packing.SPARSE_MIN_WASTE`` and serving always takes the padded
ones.  The tests force a family by patching that constant (``0.0`` = every
minibatch goes CSR, ``1.0`` = none does; waste is < 1 by construction, the
target's own pack is always valid).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterRouter
from repro.core import WidenClassifier, WidenConfig, WidenModel, packing
from repro.core.packing import pack_batch
from repro.core.relay import prune_deep, shrink_wide
from repro.core.state import NeighborStateStore, stack_states
from repro.core.trainer import WidenTrainer
from repro.datasets import make_acm, make_skewed
from repro.obs.tracing import Tracer, set_tracer
from repro.serve import InferenceServer
from repro.store import AggregateStore, build_store
from tests.helpers import per_node_attentions
from tests.test_batched_forward import add_relays, make_model, sample_states
from tests.test_read_set_invalidation import graphs

SPARSE, PADDED = 0.0, 1.0


@pytest.fixture(scope="module")
def dataset():
    return make_acm(seed=0, scale=0.5)


@pytest.fixture(scope="module")
def graph(dataset):
    return dataset.graph


@pytest.fixture
def force_kernel(monkeypatch):
    """``force_kernel(SPARSE | PADDED | any threshold)``; restored on exit."""

    def force(sparse_min_waste):
        monkeypatch.setattr(packing, "SPARSE_MIN_WASTE", sparse_min_waste)

    return force


def forward_spans(run):
    """``args`` of every ``widen.forward`` span ``run()`` records."""
    tracer = Tracer(enabled=True)
    previous = set_tracer(tracer)
    try:
        run()
    finally:
        set_tracer(previous)
    return [span.args or {} for span in tracer.spans if span.name == "widen.forward"]


class TestSparsePackBatch:
    def test_flat_slots_equal_padded_valid_slots(self, graph):
        model = make_model(graph)
        targets = graph.labeled_nodes()[:6]
        states = add_relays(sample_states(graph, model.config, targets))
        padded = pack_batch(stack_states(states), graph, model.config)
        sparse = pack_batch(
            stack_states(states), graph, model.config, sparse_min_waste=SPARSE
        )
        assert sparse.sparse and not padded.sparse
        assert sparse.waste == padded.waste
        # Wide: segment b holds exactly the valid slots of padded row b.
        for b in range(len(targets)):
            lo, hi = sparse.wide_offsets[b], sparse.wide_offsets[b + 1]
            n = int(padded.wide_valid[b].sum())
            assert hi - lo == n
            np.testing.assert_array_equal(
                sparse.wide_index[lo:hi], padded.wide_index[b, :n]
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
                sparse.deep_index[lo:hi], padded.deep_index[w, :n]
            )
        # Relay rows address the same slots in either flattening.
        assert len(padded.deep_relays) > 0
        np.testing.assert_array_equal(
            sparse.deep_etypes[sparse.deep_relay_rows],
            padded.deep_etypes.ravel()[padded.deep_relay_rows],
        )

    def test_padding_waste_gauge_reaches_metrics(self, graph):
        from repro.obs import MetricsRegistry, set_registry

        model = make_model(graph)
        targets = graph.labeled_nodes()[:6]
        states = add_relays(sample_states(graph, model.config, targets))
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            pack_batch(stack_states(states), graph, model.config)
            pack_batch(
                stack_states(states), graph, model.config, sparse_min_waste=SPARSE
            )
        finally:
            set_registry(previous)
        exposition = registry.render_prometheus()
        assert 'pack_padding_waste{path="wide"}' in exposition
        assert 'pack_padding_waste{path="deep"}' in exposition
        # Both layouts report the would-be waste; only the padded one
        # materializes padding slots.
        assert 'pack_slots_total{kind="padding",path="wide"}' in exposition
        assert registry.counter("pack_batches_total", layout="padded").value == 1
        assert registry.counter("pack_batches_total", layout="sparse").value == 1

    def test_dropout_masks_equal_padded_valid_slots(self, graph):
        model_a = make_model(graph, dropout=0.4)
        model_b = make_model(graph, dropout=0.4)
        model_a.train(), model_b.train()
        targets = graph.labeled_nodes()[:5]
        states = add_relays(sample_states(graph, model_a.config, targets))
        padded = pack_batch(
            stack_states(states), graph, model_a.config,
            pack_dropout=model_a.pack_dropout,
            hidden_dropout=model_a.hidden_dropout,
        )
        sparse = pack_batch(
            stack_states(states), graph, model_b.config,
            pack_dropout=model_b.pack_dropout,
            hidden_dropout=model_b.hidden_dropout,
            sparse_min_waste=SPARSE,
        )
        for b in range(len(targets)):
            lo, hi = sparse.wide_offsets[b], sparse.wide_offsets[b + 1]
            np.testing.assert_array_equal(
                sparse.wide_dropout[lo:hi], padded.wide_dropout[b, : hi - lo]
            )
            # Padding slots of the grid multiply by exactly one.
            assert (padded.wide_dropout[b, hi - lo :] == 1.0).all()
        for w in range(len(targets) * sparse.num_walks):
            lo, hi = sparse.deep_offsets[w], sparse.deep_offsets[w + 1]
            np.testing.assert_array_equal(
                sparse.deep_dropout[lo:hi], padded.deep_dropout[w, : hi - lo]
            )
        np.testing.assert_array_equal(
            sparse.hidden_dropout, padded.hidden_dropout
        )


# Every Table-4 architecture switch, plus the multi-head extension.
VARIANTS = [
    dict(),
    dict(num_heads=2),
    dict(use_successive=False),
    dict(use_successive=False, num_heads=2),
    dict(use_wide=False),
    dict(use_deep=False),
    dict(use_relay=False),
]
RAGGED = dict(dim=8, num_wide=3, num_deep=3, num_deep_walks=2)


@st.composite
def ragged_cases(draw, **model_overrides):
    """A model, a batch of 1-6 targets and their neighbor states on a small
    sparse directed graph: isolated nodes give packs of length 1, dead ends
    give walks shorter than ``num_deep``, ``unique`` sampling gives wide
    sets shorter than ``num_wide`` — and a few walks are pruned so relay
    edges (or, with ``use_relay=False``, plain drops) are in the batch."""
    graph = draw(graphs())
    overrides = {**RAGGED, **draw(st.sampled_from(VARIANTS)), **model_overrides}
    model = make_model(graph, seed=draw(st.integers(0, 3)), **overrides)
    targets = draw(
        st.lists(
            st.integers(0, graph.num_nodes - 1), min_size=1, max_size=6, unique=True
        )
    )
    config = model.config
    store = NeighborStateStore(
        graph, config.num_wide, config.num_deep, config.num_deep_walks,
        wide_sampling="unique", rng=draw(st.integers(0, 2**16)),
    )
    states = [store.get(node) for node in targets]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    for state in states[::2]:
        for phi, deep in enumerate(state.deep):
            if len(deep) >= 2:
                state.deep[phi] = prune_deep(
                    deep, rng.random(len(deep) + 1), use_relay=config.use_relay
                )
        if len(state.wide) >= 2:
            state.wide = shrink_wide(state.wide, rng.random(len(state.wide) + 1))
    return model, graph, np.asarray(targets), states


def run_family(force, threshold, model, graph, targets, states, node_state=None):
    """One ``forward_batch`` under the forced family, with its gradients."""
    force(threshold)
    for parameter in model.parameters():
        parameter.grad = None
    out, wide, deep = model.forward_batch(
        stack_states(states), graph, node_state, select_kernel=True
    )
    wide, deep = per_node_attentions(wide, deep, len(targets))
    (out * out).sum().backward()
    grads = {
        name: parameter.grad.copy()
        for name, parameter in model.named_parameters()
        if parameter.grad is not None
    }
    return out.data, wide, deep, grads


def assert_attentions_close(got_wide, got_deep, want_wide, want_deep):
    for got, want in zip(got_wide, want_wide):
        if want is None:
            assert got is None  # use_wide=False ablation
        else:
            np.testing.assert_allclose(got, want, atol=1e-10)
    for got_walks, want_walks in zip(got_deep, want_deep):
        assert len(got_walks) == len(want_walks)
        for got, want in zip(got_walks, want_walks):
            np.testing.assert_allclose(got, want, atol=1e-10)


PROPERTY = settings(
    max_examples=25,
    deadline=None,
    # force_kernel only restores the threshold afterwards; every example
    # sets the value it needs before it runs anything.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestSparseForwardEquivalence:
    """One property over ragged batches, read from several sides."""

    @PROPERTY
    @given(case=ragged_cases())
    def test_embeddings_and_attentions_match_batched(self, force_kernel, case):
        model, graph, targets, states = case
        model.eval()
        padded, wide_p, deep_p, _ = run_family(force_kernel, PADDED, *case)
        sparse, wide_s, deep_s, _ = run_family(force_kernel, SPARSE, *case)
        np.testing.assert_allclose(sparse, padded, atol=1e-10)
        assert_attentions_close(wide_s, deep_s, wide_p, deep_p)

    @PROPERTY
    @given(case=ragged_cases())
    def test_embeddings_match_per_node_reference(self, force_kernel, case):
        model, graph, targets, states = case
        model.eval()
        reference = [
            model.forward(int(node), state, graph, None)
            for node, state in zip(targets, states)
        ]
        for threshold in (PADDED, SPARSE):
            out, wide, deep, _ = run_family(force_kernel, threshold, *case)
            for b, (single, wide_ref, deep_ref) in enumerate(reference):
                np.testing.assert_allclose(out[b], single.data, atol=1e-10)
                assert_attentions_close(
                    [wide[b]], [deep[b]], [wide_ref], [deep_ref]
                )

    @PROPERTY
    @given(case=ragged_cases())
    def test_gradients_match_batched(self, force_kernel, case):
        model = case[0]
        model.eval()
        grads_p = run_family(force_kernel, PADDED, *case)[3]
        grads_s = run_family(force_kernel, SPARSE, *case)[3]
        assert set(grads_s) == set(grads_p)
        for name, grad in grads_p.items():
            np.testing.assert_allclose(
                grads_s[name], grad, atol=1e-10,
                err_msg=f"gradient mismatch for {name}",
            )

    @PROPERTY
    @given(case=ragged_cases())
    def test_node_state_is_honored(self, force_kernel, case):
        model, graph, targets, states = case
        model.eval()
        node_state = model.initial_node_state(graph)
        padded = run_family(force_kernel, PADDED, *case, node_state=node_state)[0]
        sparse = run_family(force_kernel, SPARSE, *case, node_state=node_state)[0]
        np.testing.assert_allclose(sparse, padded, atol=1e-10)
        if model.config.use_wide and any(len(s.wide) for s in states):
            # The table is read, not ignored: scaling it moves the answer.
            moved = run_family(
                force_kernel, SPARSE, *case, node_state=2.0 * node_state
            )[0]
            assert np.abs(moved - sparse).max() > 0.0

    @PROPERTY
    @given(case=ragged_cases(), seed=st.integers(0, 2**16))
    def test_training_dropout_is_bit_identical(self, force_kernel, case, seed):
        """Train mode: both families consume the same dropout stream."""
        model, graph, targets, states = case
        model.config.dropout = 0.3
        model.pack_dropout.p = model.hidden_dropout.p = 0.3
        model.train()
        outputs = []
        for threshold in (PADDED, SPARSE):
            for dropout in (model.pack_dropout, model.hidden_dropout):
                dropout._rng = np.random.default_rng(seed)
            outputs.append(run_family(force_kernel, threshold, *case)[0])
        np.testing.assert_allclose(outputs[1], outputs[0], atol=1e-12)

    def test_single_target_batch(self, graph, force_kernel):
        model = make_model(graph)
        model.eval()
        target = int(graph.labeled_nodes()[0])
        states = sample_states(graph, model.config, [target])
        single, _, _ = model.forward(target, states[0], graph, None)
        force_kernel(SPARSE)
        assert forward_spans(
            lambda: model.forward_batch(
                stack_states(states), graph, select_kernel=True
            )
        ) == [{"batch": 1, "kernel": "sparse"}]
        sparse, _, _ = model.forward_batch(
            stack_states(states), graph, select_kernel=True
        )
        np.testing.assert_allclose(sparse.data[0], single.data, atol=1e-10)


class TestAutoMode:
    def test_auto_dispatches_on_measured_waste(self, graph):
        model = make_model(graph)
        targets = graph.labeled_nodes()[:8]
        states = add_relays(sample_states(graph, model.config, targets))

        def packed(threshold):
            return pack_batch(
                stack_states(states), graph, model.config,
                sparse_min_waste=threshold,
            )

        waste = packed(None).waste
        assert 0.0 < waste < 1.0  # the pruned sets left padding behind
        assert packed(waste).sparse  # waste >= threshold routes CSR
        assert not packed(np.nextafter(waste, 1.0)).sparse
        assert not packed(None).sparse  # no threshold, no selection

    def test_auto_matches_batched_either_way(self, graph, force_kernel):
        model = make_model(graph)
        model.eval()
        targets = graph.labeled_nodes()[:6]
        states = add_relays(sample_states(graph, model.config, targets))
        batched, _, _ = model.forward_batch(stack_states(states), graph)
        for threshold in (SPARSE, PADDED):  # force each branch in turn
            force_kernel(threshold)
            auto, _, _ = model.forward_batch(
                stack_states(states), graph, select_kernel=True
            )
            np.testing.assert_allclose(auto.data, batched.data, atol=1e-10)


class TestKernelSelection:
    """Who gets to pick, with the default configuration."""

    def test_trainer_picks_by_waste_and_serving_never_does(self):
        threshold = packing.SPARSE_MIN_WASTE
        dataset = make_skewed(seed=0, scale=0.5)
        graph, train = dataset.graph, dataset.split.train
        routed = {}
        # Pareto degrees: a cap of 64 leaves the grids mostly padding, a
        # cap of 2 is reached by nearly every node.
        for num_wide in (64, 2):
            classifier = WidenClassifier(
                seed=0, dim=16, num_wide=num_wide, num_deep=3,
                wide_sampling="unique",
            )
            classifier.fit(graph, train, epochs=0)
            trainer = classifier.trainer
            trainer.epoch_begin(train)
            routed[num_wide] = []
            for start in range(0, train.size, trainer.config.batch_size):
                batch = trainer._schedule[start : start + trainer.config.batch_size]
                waste = pack_batch(
                    trainer.store.batch(batch), graph, classifier.config
                ).waste
                for run in (
                    lambda: trainer.run_microbatch(start),
                    lambda: trainer.embed(batch),
                ):
                    kernels_used = [
                        span.get("kernel", "padded") for span in forward_spans(run)
                    ]
                    assert kernels_used == [
                        "sparse" if waste >= threshold else "padded"
                    ]
                routed[num_wide].append(waste >= threshold)
                for run in (
                    lambda: classifier.embed_for_serving_batch(batch, graph, 7),
                    lambda: classifier.embed_for_serving(batch, graph, seed=7),
                ):
                    spans = forward_spans(run)
                    assert len(spans) == 1 and "kernel" not in spans[0]
        assert all(routed[64]) and not any(routed[2])


class TestSparseTrainingAndServing:
    def test_trainer_losses_match_across_modes(self, graph, force_kernel):
        losses = {}
        for threshold in (PADDED, SPARSE):
            force_kernel(threshold)
            config = WidenConfig(dim=16, num_wide=6, num_deep=5, num_deep_walks=2)
            model = WidenModel(
                graph.features.shape[1],
                graph.num_edge_types_with_loops,
                graph.num_classes,
                config,
                seed=0,
            )
            trainer = WidenTrainer(model, graph, config, seed=1)
            history = trainer.fit(graph.labeled_nodes()[:64], epochs=2)
            losses[threshold] = history.losses
        np.testing.assert_allclose(losses[SPARSE], losses[PADDED], atol=1e-8)

    def test_serving_batch_matches_batched_mode(self, graph, dataset, force_kernel):
        """Serving answers are the padded kernels' whatever the threshold."""
        nodes = graph.labeled_nodes()
        model = WidenClassifier(
            seed=0, dim=16, num_wide=6, num_deep=5, wide_sampling="unique"
        )
        model.fit(dataset.graph, nodes[:40], epochs=1)
        targets = nodes[:6]
        answers = {}
        for threshold in (PADDED, SPARSE):
            force_kernel(threshold)
            answers[threshold] = model.embed_for_serving_batch(targets, graph, 7)
        np.testing.assert_array_equal(answers[SPARSE], answers[PADDED])


class TestSparseStoreAndCluster:
    """Store == recompute == fleet on packs *shorter than capacity*.

    ``wide_sampling="unique"`` makes wide sets track true degrees, so the
    store's build batches and the servers' miss batches differ in width —
    the shapes every default-config exactness test never produces.
    """

    @pytest.fixture(scope="class")
    def trained(self, dataset):
        model = WidenClassifier(
            seed=0, dim=16, num_wide=6, num_deep=5, wide_sampling="unique"
        )
        model.fit(dataset.graph, dataset.split.train[:40], epochs=2)
        return model

    @pytest.fixture(scope="class")
    def checkpoint(self, trained, tmp_path_factory):
        path = tmp_path_factory.mktemp("unique-ckpt") / "widen.npz"
        trained.save(path)
        return path

    @pytest.fixture(scope="class")
    def store_path(self, trained, dataset, tmp_path_factory):
        path = tmp_path_factory.mktemp("unique-store") / "acm-store"
        build_store(trained, dataset.graph, path, seed=7, dataset="acm")
        return path

    def test_store_backed_server_matches_recompute_oracle(
        self, checkpoint, store_path, dataset
    ):
        def fresh(store=None):
            graph = make_acm(seed=0, scale=0.5).graph
            classifier = WidenClassifier.load(checkpoint, graph=graph)
            return InferenceServer(classifier, graph, seed=7, store=store)

        store = AggregateStore.open(store_path)
        rng = np.random.default_rng(3)
        nodes = rng.choice(dataset.graph.num_nodes, size=8, replace=False)
        # Some wide pack is below capacity: "unique" sets track true degree.
        assert dataset.graph.extents(nodes)[1].min() < 6
        stored = fresh(store)
        oracle = fresh()
        np.testing.assert_array_equal(
            stored.embed(nodes), oracle.embed(nodes)
        )

    def test_socket_cluster_stream_matches_single_server(self, checkpoint):
        """4 socket shard workers == one server, through a mutation."""
        graph = make_acm(seed=0, scale=0.5).graph
        single = InferenceServer(
            WidenClassifier.load(checkpoint, graph=graph), graph, seed=7
        )
        router = ClusterRouter.from_checkpoint(
            checkpoint, make_acm(seed=0, scale=0.5).graph, 4,
            transport="socket", seed=7,
        )
        meta = WidenClassifier.read_checkpoint_metadata(checkpoint)
        assert meta["config"]["wide_sampling"] == "unique"
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
