"""Tests for the Module system, layers, attention blocks and initializers."""

import numpy as np
import pytest

from repro.nn import (
    Dropout,
    Embedding,
    Linear,
    Module,
    Parameter,
    QueryAttention,
    SelfAttention,
    causal_mask,
    init,
)
from repro.tensor import Tensor
from repro.tensor import functional as F
from tests.helpers import check_gradients


class Stack(Module):
    """A list of child modules, registered under ``layers``."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = self.register_modules("layers", list(modules))


class TestModuleSystem:
    def test_named_parameters_discovers_nested(self):
        class Inner(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones((2, 2)))

        class Outer(Module):
            def __init__(self):
                super().__init__()
                self.inner = Inner()
                self.bias = Parameter(np.zeros(2))

        names = dict(Outer().named_parameters())
        assert set(names) == {"inner.w", "bias"}

    def test_register_modules_list(self):
        stack = Stack(Linear(3, 4, rng=0), Linear(4, 2, rng=1))
        names = [name for name, _ in stack.named_parameters()]
        assert "layers.0.weight" in names and "layers.1.weight" in names
        assert len(stack.layers) == 2
        assert isinstance(stack.layers[0], Linear)

    def test_zero_grad_clears_all(self, rng):
        lin = Linear(3, 2, rng=0)
        out = lin(Tensor(rng.normal(size=(4, 3))))
        out.sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None and lin.bias.grad is None

    def test_train_eval_propagates(self):
        stack = Stack(Dropout(0.5), Linear(2, 2, rng=0))
        stack.eval()
        assert not any(layer.training for layer in stack.layers)
        stack.train()
        assert all(layer.training for layer in stack.layers)

    def test_state_dict_roundtrip(self, rng):
        a = Linear(3, 2, rng=0)
        b = Linear(3, 2, rng=99)
        b.load_state_dict(a.state_dict())
        x = Tensor(rng.normal(size=(2, 3)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_state_dict_mismatch_raises(self):
        a = Linear(3, 2, rng=0)
        state = a.state_dict()
        state["extra"] = np.zeros(1)
        with pytest.raises(KeyError):
            a.load_state_dict(state)

    def test_state_dict_shape_mismatch_raises(self):
        a = Linear(3, 2, rng=0)
        state = a.state_dict()
        state["weight"] = np.zeros((5, 5))
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_num_parameters(self):
        lin = Linear(3, 2, rng=0)
        assert lin.num_parameters() == 3 * 2 + 2


class TestLinear:
    def test_forward_matches_manual(self, rng):
        lin = Linear(4, 3, rng=0)
        x = rng.normal(size=(5, 4))
        expected = x @ lin.weight.data + lin.bias.data
        np.testing.assert_allclose(lin(Tensor(x)).data, expected)

    def test_no_bias(self, rng):
        lin = Linear(4, 3, bias=False, rng=0)
        assert lin.bias is None
        assert len(lin.parameters()) == 1

    def test_gradients_flow_to_weights(self, rng):
        x = rng.normal(size=(5, 4))

        def fn(w, b):
            return ((Tensor(x) @ w + b) ** 2).sum()

        lin = Linear(4, 3, rng=0)
        check_gradients(fn, [lin.weight.data, lin.bias.data])

    def test_deterministic_with_seed(self):
        a, b = Linear(4, 3, rng=7), Linear(4, 3, rng=7)
        np.testing.assert_allclose(a.weight.data, b.weight.data)


class TestEmbedding:
    def test_lookup_returns_rows(self):
        emb = Embedding(5, 3, rng=0)
        out = emb(np.array([1, 3]))
        np.testing.assert_allclose(out.data, emb.weight.data[[1, 3]])

    def test_out_of_range_raises(self):
        emb = Embedding(5, 3, rng=0)
        with pytest.raises(IndexError):
            emb(np.array([5]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_repeated_lookup_accumulates_grad(self):
        emb = Embedding(4, 2, rng=0)
        out = emb(np.array([2, 2, 2]))
        out.sum().backward()
        np.testing.assert_allclose(emb.weight.grad[2], [3.0, 3.0])
        np.testing.assert_allclose(emb.weight.grad[0], [0.0, 0.0])


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        drop = Dropout(0.5, rng=0)
        drop.eval()
        x = Tensor(rng.normal(size=(10, 10)))
        np.testing.assert_allclose(drop(x).data, x.data)

    def test_train_mode_zeroes_and_scales(self):
        drop = Dropout(0.5, rng=0)
        x = Tensor(np.ones((100, 100)))
        out = drop(x).data
        zero_fraction = (out == 0).mean()
        assert 0.4 < zero_fraction < 0.6
        # Kept entries are scaled by 1/keep.
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0)

    def test_p_zero_is_identity(self, rng):
        drop = Dropout(0.0)
        x = Tensor(rng.normal(size=(3, 3)))
        np.testing.assert_allclose(drop(x).data, x.data)

    def test_invalid_p_raises(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)


class TestAttentionBlocks:
    def test_query_attention_shapes_and_simplex(self, rng):
        att = QueryAttention(8, rng=0)
        packs = Tensor(rng.normal(size=(6, 8)))
        out, weights = att(packs[0], packs)
        assert out.shape == (8,)
        assert weights.shape == (6,)
        assert weights.data.sum() == pytest.approx(1.0)

    def test_self_attention_causal_mask(self, rng):
        att = SelfAttention(8, rng=0)
        packs = Tensor(rng.normal(size=(5, 8)))
        out, weights = att(packs, mask=causal_mask(5))
        assert out.shape == (5, 8)
        np.testing.assert_allclose(
            np.tril(weights.data, k=-1), np.zeros((5, 5)), atol=1e-12
        )
        np.testing.assert_allclose(weights.data.sum(axis=1), np.ones(5), atol=1e-12)

    def test_last_row_attends_only_to_itself(self, rng):
        att = SelfAttention(4, rng=0)
        packs = Tensor(rng.normal(size=(4, 4)))
        _, weights = att(packs, mask=causal_mask(4))
        assert weights.data[-1, -1] == pytest.approx(1.0)

    def test_gradients_reach_all_projections(self, rng):
        att = QueryAttention(6, rng=0)
        packs = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        out, _ = att(packs[0], packs)
        out.sum().backward()
        assert att.w_query.grad is not None
        assert att.w_key.grad is not None
        assert att.w_value.grad is not None
        assert packs.grad is not None

    def test_end_to_end_attention_gradcheck(self, rng):
        packs_data = rng.normal(size=(4, 5))

        def fn(wq, wk, wv):
            packs = Tensor(packs_data)
            q = packs[0] @ wq
            k = packs @ wk
            v = packs @ wv
            return (F.attention(q, k, v) ** 2).sum()

        check_gradients(
            fn,
            [rng.normal(size=(5, 5)) for _ in range(3)],
            atol=1e-5,
        )


class TestCausalMask:
    def test_structure(self):
        mask = causal_mask(4)
        for row in range(4):
            for col in range(4):
                if row <= col:
                    assert mask[row, col] == 0.0
                else:
                    assert mask[row, col] == -np.inf

    def test_length_one(self):
        np.testing.assert_allclose(causal_mask(1), [[0.0]])


class TestAttentionLayouts:
    """One algebra in three layouts: the padded blocks are single autograd
    nodes, the 2-D reference and the CSR rows are composed from ops."""

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_padded_query_attention_is_one_node_equal_to_reference(self, rng, heads):
        att = QueryAttention(8, num_heads=heads, rng=0)
        packs = Tensor(rng.normal(size=(3, 4, 8)), requires_grad=True)
        out, weights = att(packs, packs)
        assert out.name == "query_attend" and packs in out._parents
        assert not weights.requires_grad
        (out * out).sum().backward()
        batched = [p.grad.copy() for p in att.parameters()] + [packs.grad.copy()]
        att.zero_grad()
        rows = Tensor(packs.data.copy(), requires_grad=True)
        total = None
        for b in range(3):
            row_out, row_w = att(rows[b][0], rows[b])
            np.testing.assert_allclose(out.data[b], row_out.data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(weights.data[b], row_w.data, rtol=0, atol=1e-12)
            term = (row_out * row_out).sum()
            total = term if total is None else total + term
        total.backward()
        reference = [p.grad for p in att.parameters()] + [rows.grad]
        for got, want in zip(batched, reference):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_padded_self_attention_is_one_node(self, rng):
        att = SelfAttention(8, rng=0)
        packs = Tensor(rng.normal(size=(2, 4, 8)), requires_grad=True)
        mask = np.broadcast_to(causal_mask(4), (2, 4, 4))
        out, weights = att(packs, mask=mask)
        assert out.name == "self_attend" and out._parents[0] is packs
        assert not weights.requires_grad

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_forward_batch_matches_per_node_forward(self, heads):
        from repro.core import WidenConfig, WidenModel
        from repro.core.state import NeighborStateStore, stack_states
        from repro.datasets import make_acm

        graph = make_acm(seed=0, scale=0.3).graph
        config = WidenConfig(
            dim=16, num_wide=6, num_deep=5, num_deep_walks=2, dropout=0.0,
            num_heads=heads,
        )
        model = WidenModel(
            graph.features.shape[1], graph.num_edge_types_with_loops,
            graph.num_classes, config, seed=0,
        )
        model.eval()
        targets = graph.labeled_nodes()[:6]
        store = NeighborStateStore(
            graph, config.num_wide, config.num_deep, config.num_deep_walks, rng=3
        )
        states = [store.get(int(node)) for node in targets]
        batched, wide, deep = model.forward_batch(stack_states(states), graph)
        (batched * batched).sum().backward()
        batched_grads = {
            name: param.grad.copy()
            for name, param in model.named_parameters()
            if param.grad is not None  # the class head is not in the forward
        }
        model.zero_grad()
        total = None
        deep_rows = deep.rows()
        for b, (node, state) in enumerate(zip(targets, states)):
            embedding, wide_att, deep_atts = model.forward(int(node), state, graph)
            np.testing.assert_allclose(
                batched.data[b], embedding.data, rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(wide.rows()[b], wide_att, rtol=0, atol=1e-12)
            for phi, want in enumerate(deep_atts):
                np.testing.assert_allclose(
                    deep_rows[b * config.num_deep_walks + phi], want,
                    rtol=0, atol=1e-12,
                )
            term = (embedding * embedding).sum()
            total = term if total is None else total + term
        total.backward()
        reference = dict(model.named_parameters())
        assert {n for n, p in reference.items() if p.grad is not None} == set(
            batched_grads
        )
        for name, grad in batched_grads.items():
            np.testing.assert_allclose(
                grad, reference[name].grad, rtol=0, atol=1e-10,
                err_msg=f"gradient mismatch for {name}",
            )


class TestInit:
    def test_xavier_uniform_bounds(self):
        w = init.xavier_uniform((100, 50), rng=0)
        bound = np.sqrt(6.0 / 150)
        assert np.abs(w).max() <= bound

    def test_zeros(self):
        np.testing.assert_allclose(init.zeros((3, 3)), np.zeros((3, 3)))

    def test_deterministic(self):
        np.testing.assert_allclose(
            init.xavier_uniform((4, 4), rng=3), init.xavier_uniform((4, 4), rng=3)
        )

    def test_1d_shape(self):
        w = init.xavier_uniform((10,), rng=0)
        assert w.shape == (10,)

    def test_invalid_shape_raises(self):
        with pytest.raises(ValueError):
            init.xavier_uniform((), rng=0)
