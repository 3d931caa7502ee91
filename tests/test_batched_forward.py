"""Batched forward path vs the per-node reference implementation.

The vectorized hot path (``WidenModel.forward_batch`` + the padded batch
assembly in ``repro.core.packing``) must be *numerically equivalent* to the
per-node path: padding gathers exact zeros and masked softmax gives padded
slots exactly zero weight, so any disagreement beyond gemm-blocking noise is
a bug, not a tolerance question.  :class:`TestRaggedBatches` holds that
over hypothesis-drawn batches whose packs are far from uniform.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WidenConfig, WidenModel
from repro.core.classifier import WidenClassifier
from repro.core.packing import flat_slot_indices, pack_batch
from repro.core.relay import prune_deep, shrink_wide
from repro.core.state import NeighborStateStore, stack_states
from repro.core.trainer import WidenTrainer
from repro.datasets import make_acm
from repro.nn import QueryAttention, SelfAttention, causal_mask
from repro.tensor import Tensor
from tests.helpers import check_gradients, per_node_attentions, use_per_node_forward
from tests.test_read_set_invalidation import graphs

NEG_INF = float("-inf")


@pytest.fixture(scope="module")
def dataset():
    return make_acm(seed=0, scale=0.5)


@pytest.fixture(scope="module")
def graph(dataset):
    return dataset.graph


def make_model(graph, seed=0, **overrides):
    params = dict(dim=16, num_wide=6, num_deep=5, num_deep_walks=2, dropout=0.0)
    params.update(overrides)
    config = WidenConfig(**params)
    return WidenModel(
        graph.features.shape[1],
        graph.num_edge_types_with_loops,
        graph.num_classes,
        config,
        seed=seed,
    )


def sample_states(graph, config, targets, rng=3):
    store = NeighborStateStore(
        graph, config.num_wide, config.num_deep, config.num_deep_walks, rng=rng
    )
    return [store.get(int(node)) for node in targets]


def add_relays(states, seed=0):
    """Prune some walks/wide sets so relay recipes appear in the batch."""
    rng = np.random.default_rng(seed)
    for state in states[::2]:
        for phi, deep in enumerate(state.deep):
            pruned = prune_deep(deep, rng.random(len(deep) + 1))
            state.deep[phi] = prune_deep(pruned, rng.random(len(pruned) + 1))
        state.wide = shrink_wide(state.wide, rng.random(len(state.wide) + 1))
    return states


class TestBatchedAttentionUnits:
    def test_query_attention_batched_equals_per_row(self, rng):
        att = QueryAttention(8, rng=0)
        keys = Tensor(rng.normal(size=(4, 5, 8)))
        query = Tensor(rng.normal(size=(4, 8)))
        out, weights = att(query, keys)
        for b in range(4):
            row_out, row_w = att(Tensor(query.data[b]), Tensor(keys.data[b]))
            np.testing.assert_allclose(out.data[b], row_out.data, atol=1e-12)
            np.testing.assert_allclose(weights.data[b], row_w.data, atol=1e-12)

    def test_query_attention_padded_slots_get_zero_weight(self, rng):
        att = QueryAttention(8, rng=0)
        keys = rng.normal(size=(2, 4, 8))
        keys[0, 2:] = 0.0  # padded rows gather as zeros
        mask = np.array(
            [[0.0, 0.0, NEG_INF, NEG_INF], [0.0, 0.0, 0.0, 0.0]]
        )
        query = Tensor(rng.normal(size=(2, 8)))
        out, weights = att(query, Tensor(keys), mask=mask)
        np.testing.assert_allclose(weights.data[0, 2:], 0.0)
        assert weights.data[0, :2].sum() == pytest.approx(1.0)
        # Masked slots renormalize to the unpadded attention exactly.
        trimmed_out, trimmed_w = att(
            Tensor(query.data[0]), Tensor(keys[0, :2])
        )
        np.testing.assert_allclose(weights.data[0, :2], trimmed_w.data, atol=1e-12)
        np.testing.assert_allclose(out.data[0], trimmed_out.data, atol=1e-12)

    def test_self_attention_batched_equals_per_matrix(self, rng):
        att = SelfAttention(8, rng=0)
        packs = Tensor(rng.normal(size=(3, 5, 8)))
        mask = np.broadcast_to(causal_mask(5), (3, 5, 5)).copy()
        out, _ = att(packs, mask=mask)
        for b in range(3):
            row_out, _ = att(Tensor(packs.data[b]), mask=causal_mask(5))
            np.testing.assert_allclose(out.data[b], row_out.data, atol=1e-12)

    def test_batched_attention_gradients_match_finite_differences(self, rng):
        att = QueryAttention(4, rng=0)
        mask = np.array([[0.0, 0.0, NEG_INF], [0.0, 0.0, 0.0]])

        def fn(q, k):
            out, _ = att(q, k, mask=mask)
            return (out * out).sum()

        check_gradients(
            fn, [rng.normal(size=(2, 4)), rng.normal(size=(2, 3, 4))]
        )


class TestPackBatch:
    def test_grid_shapes_and_masks(self, graph):
        model = make_model(graph)
        targets = graph.labeled_nodes()[:6]
        states = sample_states(graph, model.config, targets)
        pack = pack_batch(stack_states(states), graph, model.config)
        batch = len(targets)
        assert pack.wide_index.shape == pack.wide_etypes.shape
        assert pack.wide_index.shape[0] == batch
        # Slot 0 is the target's own (fresh-projection) row.
        np.testing.assert_array_equal(pack.wide_index[:, 0], np.arange(batch))
        np.testing.assert_array_equal(
            pack.wide_etypes[:, 0], graph.self_loop_types(np.asarray(targets))
        )
        # Valid slots and -inf mask agree everywhere.
        assert ((pack.wide_valid > 0) == (pack.wide_attn_mask == 0.0)).all()
        total = batch * pack.num_walks
        assert pack.deep_index.shape[0] == total
        assert pack.deep_causal_mask.shape == (
            total, pack.deep_index.shape[1], pack.deep_index.shape[1]
        )
        # Every causal-mask row keeps at least one finite entry (no NaN rows).
        assert np.isfinite(pack.deep_causal_mask).any(axis=-1).all()

    def test_neighbor_rows_resolve_to_the_right_nodes(self, graph):
        model = make_model(graph)
        targets = graph.labeled_nodes()[:4]
        states = sample_states(graph, model.config, targets)
        pack = pack_batch(stack_states(states), graph, model.config)
        batch = len(targets)
        for b, state in enumerate(states):
            n = len(state.wide)
            rows = pack.wide_index[b, 1 : n + 1] - batch
            np.testing.assert_array_equal(
                pack.neighbor_nodes[rows], state.wide.nodes
            )

    def test_dropout_draws_follow_per_node_order(self, graph):
        model_a = make_model(graph, dropout=0.4)
        model_b = make_model(graph, dropout=0.4)
        model_a.train(), model_b.train()
        targets = graph.labeled_nodes()[:5]
        states = sample_states(graph, model_a.config, targets)
        pack = pack_batch(
            stack_states(states), graph, model_a.config,
            pack_dropout=model_a.pack_dropout,
            hidden_dropout=model_a.hidden_dropout,
        )
        # Reference: draw per node in forward order from an identical rng.
        for b, state in enumerate(states):
            wide_mask = model_b.pack_dropout.draw_mask(
                (len(state.wide) + 1, model_b.config.dim)
            )
            np.testing.assert_array_equal(
                pack.wide_dropout[b, : len(state.wide) + 1], wide_mask
            )
            for phi, deep in enumerate(state.deep):
                w = b * pack.num_walks + phi
                deep_mask = model_b.pack_dropout.draw_mask(
                    (len(deep) + 1, model_b.config.dim)
                )
                np.testing.assert_array_equal(
                    pack.deep_dropout[w, : len(deep) + 1], deep_mask
                )
            hidden_mask = model_b.hidden_dropout.draw_mask((model_b.config.dim,))
            np.testing.assert_array_equal(pack.hidden_dropout[b], hidden_mask)

    def test_flat_slot_indices_pick_valid_block_slots(self):
        lengths = np.array([2, 3])
        starts = np.array([0, 4])  # capacity-4 blocks
        indices, offsets = flat_slot_indices(lengths, starts)
        np.testing.assert_array_equal(indices, [0, 1, 4, 5, 6])
        np.testing.assert_array_equal(offsets, [0, 2, 5])

    def test_padding_waste_gauge_reaches_metrics(self, graph):
        from repro.obs import MetricsRegistry, set_registry

        model = make_model(graph)
        targets = graph.labeled_nodes()[:6]
        states = add_relays(sample_states(graph, model.config, targets))
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            pack = pack_batch(stack_states(states), graph, model.config)
        finally:
            set_registry(previous)
        exposition = registry.render_prometheus()
        assert 'pack_padding_waste{path="wide"}' in exposition
        assert 'pack_padding_waste{path="deep"}' in exposition
        # The pruned sets left padding behind, and the counters add it up.
        for path, valid in (("wide", pack.wide_valid), ("deep", pack.deep_valid)):
            slots = {
                kind: registry.counter("pack_slots_total", path=path, kind=kind).value
                for kind in ("valid", "padding")
            }
            assert slots == {"valid": valid.sum(), "padding": valid.size - valid.sum()}
        assert pack.wide_valid.sum() < pack.wide_valid.size


class TestForwardBatchEquivalence:
    @pytest.mark.parametrize("use_node_state", [True, False])
    def test_embeddings_and_attentions_match(self, graph, use_node_state):
        model = make_model(graph)
        model.eval()
        targets = graph.labeled_nodes()[:8]
        states = add_relays(sample_states(graph, model.config, targets))
        node_state = model.initial_node_state(graph) if use_node_state else None
        reference, ref_wide, ref_deep = [], [], []
        for node, state in zip(targets, states):
            embedding, wide_att, deep_atts = model.forward(
                int(node), state, graph, node_state
            )
            reference.append(embedding.data.copy())
            ref_wide.append(wide_att)
            ref_deep.append(deep_atts)
        batched, wide_grid, deep_grid = model.forward_batch(
            stack_states(states), graph, node_state
        )
        wide_atts, deep_atts = per_node_attentions(wide_grid, deep_grid, len(targets))
        np.testing.assert_allclose(batched.data, np.stack(reference), atol=1e-10)
        for b in range(len(targets)):
            np.testing.assert_allclose(wide_atts[b], ref_wide[b], atol=1e-10)
            assert len(deep_atts[b]) == len(ref_deep[b])
            for got, want in zip(deep_atts[b], ref_deep[b]):
                np.testing.assert_allclose(got, want, atol=1e-10)

    def test_gradients_match_per_node_sum(self, graph):
        model = make_model(graph)
        model.eval()
        targets = graph.labeled_nodes()[:6]
        states = add_relays(sample_states(graph, model.config, targets))
        batched, _, _ = model.forward_batch(stack_states(states), graph, None)
        (batched * batched).sum().backward()
        batched_grads = {
            name: p.grad.copy()
            for name, p in model.named_parameters()
            if p.grad is not None
        }
        model.zero_grad()
        total = None
        for node, state in zip(targets, states):
            embedding, _, _ = model.forward(int(node), state, graph, None)
            term = (embedding * embedding).sum()
            total = term if total is None else total + term
        total.backward()
        per_node_grads = {
            name: p.grad.copy()
            for name, p in model.named_parameters()
            if p.grad is not None
        }
        assert set(batched_grads) == set(per_node_grads)
        for name, grad in batched_grads.items():
            np.testing.assert_allclose(
                grad, per_node_grads[name], atol=1e-8,
                err_msg=f"gradient mismatch for {name}",
            )

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(use_wide=False),
            dict(use_deep=False),
            dict(use_successive=False),
        ],
    )
    def test_ablations_match(self, graph, overrides):
        model = make_model(graph, **overrides)
        model.eval()
        targets = graph.labeled_nodes()[:5]
        states = sample_states(graph, model.config, targets)
        reference = []
        for node, state in zip(targets, states):
            embedding, _, _ = model.forward(int(node), state, graph, None)
            reference.append(embedding.data.copy())
        batched, _, _ = model.forward_batch(stack_states(states), graph, None)
        np.testing.assert_allclose(batched.data, np.stack(reference), atol=1e-10)

    def test_training_dropout_is_bit_identical(self, graph):
        targets = graph.labeled_nodes()[:6]
        model_a = make_model(graph, dropout=0.3)
        model_a.train()
        states = sample_states(graph, model_a.config, targets)
        reference = []
        for node, state in zip(targets, states):
            embedding, _, _ = model_a.forward(int(node), state, graph, None)
            reference.append(embedding.data.copy())
        model_b = make_model(graph, dropout=0.3)
        model_b.train()
        batched, _, _ = model_b.forward_batch(stack_states(states), graph, None)
        np.testing.assert_allclose(batched.data, np.stack(reference), atol=1e-12)

    def test_single_target_batch(self, graph):
        model = make_model(graph)
        model.eval()
        target = int(graph.labeled_nodes()[0])
        states = sample_states(graph, model.config, [target])
        single, _, _ = model.forward(target, states[0], graph, None)
        batched, _, _ = model.forward_batch(stack_states(states), graph, None)
        np.testing.assert_allclose(batched.data[0], single.data, atol=1e-12)


# Every Table-4 architecture switch.
VARIANTS = [
    dict(),
    dict(use_successive=False),
    dict(use_wide=False),
    dict(use_deep=False),
    dict(use_relay=False),
]
RAGGED = dict(dim=8, num_wide=3, num_deep=3, num_deep_walks=2)


@st.composite
def ragged_cases(draw, max_targets=6):
    """A model, a batch of targets and their neighbor states on a small
    sparse directed graph: isolated nodes give packs of length 1, dead ends
    give walks shorter than ``num_deep``, and a few wide sets are shrunk
    and walks pruned, so sets below the cap and relay edges (or, with
    ``use_relay=False``, plain drops) share the batch with full ones."""
    graph = draw(graphs())
    overrides = {**RAGGED, **draw(st.sampled_from(VARIANTS))}
    model = make_model(graph, seed=draw(st.integers(0, 3)), **overrides)
    targets = draw(
        st.lists(
            st.integers(0, graph.num_nodes - 1),
            min_size=1, max_size=max_targets, unique=True,
        )
    )
    config = model.config
    states = sample_states(
        graph, config, targets, rng=draw(st.integers(0, 2**16))
    )
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


def per_node(model, graph, targets, states, node_state=None):
    """The reference: ``WidenModel.forward`` one target at a time."""
    outputs = [
        model.forward(int(node), state, graph, node_state)
        for node, state in zip(targets, states)
    ]
    embeddings, wide, deep = zip(*outputs)
    return np.stack([e.data for e in embeddings]), list(wide), list(deep)


def batched(model, graph, targets, states, node_state=None):
    out, wide, deep = model.forward_batch(stack_states(states), graph, node_state)
    return (out.data,) + per_node_attentions(wide, deep, len(targets))


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


PROPERTY = settings(max_examples=25, deadline=None)


class TestRaggedBatches:
    """Padded batch == per-node reference over ragged batches, every variant."""

    @PROPERTY
    @given(case=ragged_cases())
    def test_embeddings_and_attentions_match_per_node(self, case):
        model = case[0]
        model.eval()
        out, wide, deep = batched(*case)
        want, want_wide, want_deep = per_node(*case)
        np.testing.assert_allclose(out, want, atol=1e-10)
        assert_attentions_close(wide, deep, want_wide, want_deep)

    @PROPERTY
    @given(case=ragged_cases())
    def test_node_state_is_honored(self, case):
        model, graph, targets, states = case
        model.eval()
        node_state = model.initial_node_state(graph)
        out = batched(*case, node_state=node_state)[0]
        want = per_node(*case, node_state=node_state)[0]
        np.testing.assert_allclose(out, want, atol=1e-10)
        if model.config.use_wide and any(len(s.wide) for s in states):
            # The table is read, not ignored: scaling it moves the answer.
            moved = batched(*case, node_state=2.0 * node_state)[0]
            assert np.abs(moved - out).max() > 0.0

    @PROPERTY
    @given(case=ragged_cases(), seed=st.integers(0, 2**16))
    def test_training_dropout_is_bit_identical(self, case, seed):
        """Train mode: the batch and the per-node loop consume one stream."""
        model = case[0]
        model.config.dropout = 0.3
        model.pack_dropout.p = model.hidden_dropout.p = 0.3
        model.train()
        outputs = []
        for run in (batched, per_node):
            for dropout in (model.pack_dropout, model.hidden_dropout):
                dropout._rng = np.random.default_rng(seed)
            outputs.append(run(*case)[0])
        np.testing.assert_allclose(outputs[0], outputs[1], atol=1e-12)

    @PROPERTY
    @given(case=ragged_cases(max_targets=1))
    def test_single_target_batch(self, case):
        model = case[0]
        model.eval()
        out, wide, deep = batched(*case)
        want, want_wide, want_deep = per_node(*case)
        np.testing.assert_allclose(out, want, atol=1e-10)
        assert_attentions_close(wide, deep, want_wide, want_deep)


class TestSelfLoopCache:
    def test_pack_wide_with_cache_matches_reference(self, graph):
        model = make_model(graph)
        target = int(graph.labeled_nodes()[0])
        states = sample_states(graph, model.config, [target])
        cache = {}
        with_cache = model.pack_wide(
            target, states[0].wide, graph, loop_cache=cache
        )
        without = model.pack_wide(target, states[0].wide, graph)
        np.testing.assert_allclose(with_cache.data, without.data, atol=1e-15)
        assert graph.self_loop_type(target) in cache

    def test_cache_is_shared_across_packs(self, graph):
        model = make_model(graph)
        target = int(graph.labeled_nodes()[0])
        states = sample_states(graph, model.config, [target])
        cache = {}
        model.pack_wide(target, states[0].wide, graph, loop_cache=cache)
        first = cache[graph.self_loop_type(target)]
        model.pack_deep(
            target, states[0].deep[0], graph, loop_cache=cache
        )
        assert cache[graph.self_loop_type(target)] is first  # one lookup total


class TestTrainerForwardModes:
    def test_fit_matches_per_node_reference_loop(self, graph, monkeypatch):
        """Two epochs of ``WidenTrainer.fit`` — dropout, KL trigger and
        downsampling on — against the same trainer driven over a test-side
        loop of ``WidenModel.forward``."""
        losses = {}
        for path in ("batched", "per_node"):
            config = WidenConfig(dim=16, num_wide=6, num_deep=5, num_deep_walks=2)
            model = WidenModel(
                graph.features.shape[1],
                graph.num_edge_types_with_loops,
                graph.num_classes,
                config,
                seed=0,
            )
            if path == "per_node":
                use_per_node_forward(monkeypatch, model)
            trainer = WidenTrainer(model, graph, config, seed=1)
            history = trainer.fit(graph.labeled_nodes()[:64], epochs=2)
            losses[path] = history.losses
        np.testing.assert_allclose(
            losses["batched"], losses["per_node"], atol=1e-6
        )


class TestServingBatch:
    def test_batch_rows_equal_single_node_serving(self, graph, dataset):
        classifier = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
        nodes = graph.labeled_nodes()
        classifier.fit(dataset.graph, nodes[:40], epochs=1)
        targets = nodes[:6]
        batched, _ = classifier.embed_for_serving_batch(targets, graph, 7)
        singles = np.stack(
            [
                classifier.trainer.embed_inductive(graph, np.array([node]), rng=7)[0]
                for node in targets
            ]
        )
        np.testing.assert_allclose(batched, singles, atol=1e-9)
