"""Tests for composite functions (softmax, cross-entropy, attention, KL)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.packing import deep_causal_mask, pad_block_masks
from repro.tensor import Tensor, no_grad, ops
from repro.tensor import functional as F
from tests.helpers import check_gradients

finite_floats = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = rng.normal(size=(4, 6))
        out = F.softmax(Tensor(x))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4), atol=1e-12)

    def test_matches_naive(self, rng):
        x = rng.normal(size=(3, 5))
        expected = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(F.softmax(Tensor(x)).data, expected, atol=1e-12)

    def test_stable_for_large_logits(self):
        x = np.array([[1000.0, 1000.0, -1000.0]])
        out = F.softmax(Tensor(x))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [[0.5, 0.5, 0.0]], atol=1e-12)

    def test_grad(self, rng):
        x = rng.normal(size=(3, 4))
        check_gradients(lambda t: (F.softmax(t) ** 2).sum(), [x])

    @settings(max_examples=25, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                   min_side=1, max_side=6),
                      elements=finite_floats))
    def test_property_simplex(self, x):
        out = F.softmax(Tensor(x)).data
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(2, 5))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 123.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestLogSoftmax:
    def test_matches_log_of_softmax(self, rng):
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(
            F.log_softmax(Tensor(x)).data, np.log(F.softmax(Tensor(x)).data), atol=1e-12
        )

    def test_grad(self, rng):
        x = rng.normal(size=(3, 4))
        check_gradients(lambda t: (F.log_softmax(t) * 0.3).sum(), [x])


class TestMaskedSoftmax:
    def test_masked_positions_get_zero_weight(self, rng):
        x = rng.normal(size=(3, 3))
        mask = np.zeros((3, 3))
        mask[2, 0] = -np.inf
        out = F.masked_softmax(Tensor(x), mask).data
        assert out[2, 0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(3), atol=1e-12)

    def test_grad_with_mask(self, rng):
        x = rng.normal(size=(3, 3))
        mask = np.zeros((3, 3))
        mask[np.tril_indices(3, k=-1)] = -np.inf
        check_gradients(lambda t: (F.masked_softmax(t, mask) ** 2).sum(), [x])

    def test_fully_unmasked_equals_softmax(self, rng):
        x = rng.normal(size=(2, 4))
        np.testing.assert_allclose(
            F.masked_softmax(Tensor(x), np.zeros((2, 4))).data,
            F.softmax(Tensor(x)).data,
            atol=1e-12,
        )


class TestCrossEntropy:
    def test_matches_manual(self, rng):
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])
        log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(4), labels].mean()
        loss = F.cross_entropy(Tensor(logits), labels)
        assert loss.item() == pytest.approx(expected)

    def test_grad(self, rng):
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])
        check_gradients(lambda t: F.cross_entropy(t, labels), [logits])

    def test_sum_reduction_grad(self, rng):
        logits = rng.normal(size=(3, 5))
        labels = np.array([4, 0, 2])
        check_gradients(lambda t: F.cross_entropy(t, labels, reduction="sum"), [logits])

    def test_none_reduction_shape(self, rng):
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 1, 2, 0])
        loss = F.cross_entropy(Tensor(logits), labels, reduction="none")
        assert loss.shape == (4,)

    def test_perfect_prediction_loss_near_zero(self):
        logits = np.full((2, 3), -100.0)
        logits[0, 1] = 100.0
        logits[1, 2] = 100.0
        loss = F.cross_entropy(Tensor(logits), np.array([1, 2]))
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(rng.normal(size=(4,))), np.array([0]))
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(rng.normal(size=(4, 3))), np.array([0, 1]))
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(rng.normal(size=(2, 3))), np.array([0, 1]),
                            reduction="bogus")

    def test_uniform_logits_loss_is_log_c(self):
        loss = F.cross_entropy(Tensor(np.zeros((5, 7))), np.zeros(5, dtype=int))
        assert loss.item() == pytest.approx(np.log(7))


class TestL2Normalize:
    def test_unit_norm_rows(self, rng):
        x = rng.normal(size=(4, 6))
        out = F.l2_normalize(Tensor(x))
        np.testing.assert_allclose(
            np.linalg.norm(out.data, axis=1), np.ones(4), atol=1e-9
        )

    def test_grad(self, rng):
        x = rng.normal(size=(3, 4)) + 0.5
        check_gradients(lambda t: (F.l2_normalize(t) * 0.7).sum(), [x], atol=1e-5)

    def test_zero_vector_does_not_nan(self):
        out = F.l2_normalize(Tensor(np.zeros((1, 3))))
        assert np.isfinite(out.data).all()


class TestAttention:
    def test_single_query_weights_sum_to_one(self, rng):
        q = Tensor(rng.normal(size=(5,)))
        kv = Tensor(rng.normal(size=(7, 5)))
        out, weights = F.attention(q, kv, kv, return_weights=True)
        assert out.shape == (5,)
        assert weights.data.sum() == pytest.approx(1.0)

    def test_self_attention_shapes(self, rng):
        x = Tensor(rng.normal(size=(6, 4)))
        out, weights = F.attention(x, x, x, return_weights=True)
        assert out.shape == (6, 4)
        assert weights.shape == (6, 6)

    def test_causal_masked_attention_is_triangular(self, rng):
        from repro.nn import causal_mask

        x = Tensor(rng.normal(size=(5, 4)))
        _, weights = F.attention(x, x, x, mask=causal_mask(5), return_weights=True)
        lower = np.tril(weights.data, k=-1)
        np.testing.assert_allclose(lower, np.zeros_like(lower), atol=1e-12)

    def test_attention_grad(self, rng):
        q = rng.normal(size=(4,))
        kv = rng.normal(size=(5, 4))

        def fn(qt, kvt):
            return (F.attention(qt, kvt, kvt) ** 2).sum()

        check_gradients(fn, [q, kv], atol=1e-5)

    def test_uniform_keys_give_uniform_weights(self):
        q = Tensor(np.ones(3))
        keys = Tensor(np.ones((4, 3)))
        _, weights = F.attention(q, keys, keys, return_weights=True)
        np.testing.assert_allclose(weights.data, np.full(4, 0.25), atol=1e-12)


NEG_INF = float("-inf")


def composed_query_attend(query, keys, values, w_q, w_k, w_v, mask):
    """Eq. 3 / Eq. 5 as written: project every key and value row, then one
    ``F.attention`` over the projected grids."""
    d = keys.shape[-1]
    q = (query @ w_q).reshape(keys.shape[0], 1, d)
    attended, weights = F.attention(
        q, keys @ w_k, values @ w_v,
        mask=None if mask is None else mask[:, np.newaxis, :],
        return_weights=True,
    )
    return attended.reshape(keys.shape[0], d), weights.reshape(*keys.shape[:2])


def composed_self_attend(packs, w_q, w_k, w_v, mask):
    return F.attention(
        packs @ w_q, packs @ w_k, packs @ w_v, mask=mask, return_weights=True
    )


def padded_grid(rng, lengths, width, d):
    """``(S, width, d)`` rows that are exactly zero past each length, with
    the masks :func:`repro.core.packing.pack_batch` would hand the kernels."""
    valid, attn_mask = pad_block_masks(lengths, width)
    grid = rng.normal(size=(len(lengths), width, d)) * valid[:, :, np.newaxis]
    return grid, valid, attn_mask


def grads_of(fn, arrays):
    """Value(s) and input gradients of ``sum(out * out)`` for ``fn(*tensors)``
    returning ``(out, weights)``."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out, weights = fn(*tensors)
    (out * out).sum().backward()
    return out.data, weights.data, [t.grad for t in tensors]


class TestFusedAttentionNodes:
    """``query_attend`` / ``self_attend`` against the composed chains."""

    @pytest.mark.parametrize("from_packs", [False, True])
    def test_query_attend_grad_check(self, rng, from_packs):
        d = 4
        keys, _, mask = padded_grid(rng, np.array([3, 1, 2]), 3, d)
        values, _, _ = padded_grid(rng, np.array([3, 1, 2]), 3, d)
        query = keys if from_packs else rng.normal(size=(3, d))
        weights = [0.5 * rng.normal(size=(d, d)) for _ in range(3)]

        def fn(q, k, v, wq, wk, wv):
            out, _ = F.query_attend(q, k, v, wq, wk, wv, mask=mask)
            return (out * out).sum()

        check_gradients(fn, [query, keys, values] + weights, atol=1e-5)

    def test_query_attend_grad_check_shared_grid(self, rng):
        """PASS°'s call: one tensor is query source, keys and values."""
        d = 4
        packs, _, mask = padded_grid(rng, np.array([2, 3]), 3, d)
        weights = [0.5 * rng.normal(size=(d, d)) for _ in range(3)]

        def fn(p, wq, wk, wv):
            out, _ = F.query_attend(p, p, p, wq, wk, wv, mask=mask)
            return (out * out).sum()

        check_gradients(fn, [packs] + weights, atol=1e-5)

    def test_self_attend_grad_check(self, rng):
        d = 3
        lengths = np.array([3, 1, 0])
        packs, valid, attn_mask = padded_grid(rng, lengths, 3, d)
        mask = deep_causal_mask(valid, attn_mask)
        weights = [0.5 * rng.normal(size=(d, d)) for _ in range(3)]

        def fn(p, wq, wk, wv):
            out, _ = F.self_attend(p, wq, wk, wv, mask=mask)
            return (out * out).sum()

        check_gradients(fn, [packs] + weights, atol=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        segments=st.integers(1, 4),
        width=st.integers(1, 5),
        d=st.integers(1, 6),
        shared_values=st.booleans(),
        from_packs=st.booleans(),
        data=st.data(),
    )
    def test_query_attend_equals_composed_chain(
        self, seed, segments, width, d, shared_values, from_packs, data
    ):
        rng = np.random.default_rng(seed)
        lengths = np.array(
            data.draw(st.lists(st.integers(1, width), min_size=segments,
                               max_size=segments))
        )
        lengths[0] = 1  # a walk that dead-ended at its target
        keys, valid, mask = padded_grid(rng, lengths, width, d)
        values = keys if shared_values else padded_grid(rng, lengths, width, d)[0]
        query = rng.normal(size=(segments, d))
        weights = [rng.normal(size=(d, d)) / np.sqrt(d) for _ in range(3)]

        def fused(q, k, v, wq, wk, wv):
            if shared_values:
                v = k
            source = q
            if from_packs:
                source = v
            return F.query_attend(source, k, v, wq, wk, wv, mask=mask)

        def composed(q, k, v, wq, wk, wv):
            if shared_values:
                v = k
            if from_packs:
                q = ops.slice(v, 0, 1, axis=1).reshape(segments, d)
            return composed_query_attend(q, k, v, wq, wk, wv, mask)

        arrays = [query, keys, values] + weights
        out, att, grads = grads_of(fused, arrays)
        ref_out, ref_att, ref_grads = grads_of(composed, arrays)
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(att, ref_att, rtol=0, atol=1e-12)
        for got, want in zip(grads, ref_grads):
            if want is None:  # the (S, d) query when row 0 queries instead
                assert got is None
                continue
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        padded = valid == 0.0
        assert (att[padded] == 0.0).all()
        np.testing.assert_allclose(att.sum(axis=1), 1.0, atol=1e-12)
        assert (grads[1][padded] == 0.0).all()
        if not shared_values and not from_packs:
            assert (grads[2][padded] == 0.0).all()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.integers(1, 5),
        d=st.integers(1, 6),
        lengths=st.lists(st.integers(1, 5), min_size=0, max_size=3),
    )
    def test_self_attend_equals_composed_chain(self, seed, width, d, lengths):
        rng = np.random.default_rng(seed)
        # Always a length-1 walk, and a trailing walk that is all padding.
        lengths = np.minimum(np.array([1] + lengths + [0]), width)
        packs, valid, attn_mask = padded_grid(rng, lengths, width, d)
        mask = deep_causal_mask(valid, attn_mask)
        weights = [rng.normal(size=(d, d)) / np.sqrt(d) for _ in range(3)]

        arrays = [packs] + weights
        out, att, grads = grads_of(
            lambda p, *w: F.self_attend(p, *w, mask=mask), arrays
        )
        ref_out, ref_att, ref_grads = grads_of(
            lambda p, *w: composed_self_attend(p, *w, mask), arrays
        )
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(att, ref_att, rtol=0, atol=1e-12)
        for got, want in zip(grads, ref_grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        padded = valid == 0.0
        # A real row gives padded keys exactly zero weight; padded rows are
        # exactly zero, refine to zero and pass no gradient back.
        real_row_padded_key = (valid[:, :, np.newaxis] > 0.0) & padded[:, np.newaxis, :]
        assert (att[real_row_padded_key] == 0.0).all()
        assert (out[padded] == 0.0).all()
        assert (grads[0][padded] == 0.0).all()

    def test_a_row_does_not_depend_on_its_batch(self, rng):
        """Store, cache and recompute answer the same node from different
        batches: a segment's result is the same bits alone, in a pair and
        among 40 (a lone row must not fall onto the gemv path)."""
        d, width = 8, 5
        lengths = rng.integers(1, width + 1, size=40)
        packs, valid, attn_mask = padded_grid(rng, lengths, width, d)
        causal = deep_causal_mask(valid, attn_mask)
        weights = [rng.normal(size=(d, d)) for _ in range(3)]

        def both(rows):
            attended, att = F.query_attend(
                packs[rows], packs[rows], packs[rows], *weights, mask=attn_mask[rows]
            )
            refined, _ = F.self_attend(packs[rows], *weights, mask=causal[rows])
            return attended.data, att.data, refined.data

        whole = both(slice(None))
        for rows in (slice(0, 1), slice(7, 8), slice(3, 5), slice(10, 27)):
            for got, want in zip(both(rows), whole):
                np.testing.assert_array_equal(got, want[rows])

    def test_no_grad_call_records_no_closure(self, rng):
        d = 4
        packs, valid, attn_mask = padded_grid(rng, np.array([3, 2]), 3, d)
        tensors = [Tensor(packs, requires_grad=True)] + [
            Tensor(rng.normal(size=(d, d)), requires_grad=True) for _ in range(3)
        ]
        with no_grad():
            attended, weights = F.query_attend(
                tensors[0], tensors[0], tensors[0], *tensors[1:], mask=attn_mask
            )
            refined, grid = F.self_attend(
                *tensors, mask=deep_causal_mask(valid, attn_mask)
            )
        for out in (attended, weights, refined, grid):
            assert out._backward is None and out._parents == ()
            assert not out.requires_grad

    def test_weights_are_detached_with_grad_on(self, rng):
        d = 4
        packs, valid, attn_mask = padded_grid(rng, np.array([3, 2]), 3, d)
        tensors = [Tensor(packs, requires_grad=True)] + [
            Tensor(rng.normal(size=(d, d)), requires_grad=True) for _ in range(3)
        ]
        attended, weights = F.query_attend(
            tensors[0], tensors[0], tensors[0], *tensors[1:], mask=attn_mask
        )
        assert attended.requires_grad and attended._backward is not None
        assert not weights.requires_grad and weights._backward is None

    def test_all_masked_row_is_loud(self, rng):
        """A segment with no valid slot must not turn into silent NaNs."""
        d = 2
        keys = Tensor(rng.normal(size=(1, 2, d)))
        weights = [Tensor(rng.normal(size=(d, d))) for _ in range(3)]
        with pytest.warns(RuntimeWarning):
            F.query_attend(keys, keys, keys, *weights, mask=np.full((1, 2), NEG_INF))


class TestBCEWithLogits:
    def test_matches_manual(self, rng):
        logits = rng.normal(size=(6,))
        targets = (rng.random(6) > 0.5).astype(float)
        probs = 1.0 / (1.0 + np.exp(-logits))
        expected = -(targets * np.log(probs) + (1 - targets) * np.log(1 - probs)).mean()
        loss = F.binary_cross_entropy_with_logits(Tensor(logits), targets)
        assert loss.item() == pytest.approx(expected)

    def test_grad(self, rng):
        logits = rng.normal(size=(6,))
        targets = (rng.random(6) > 0.5).astype(float)
        check_gradients(
            lambda t: F.binary_cross_entropy_with_logits(t, targets), [logits]
        )

    def test_stable_for_extreme_logits(self):
        loss = F.binary_cross_entropy_with_logits(
            Tensor(np.array([1000.0, -1000.0])), np.array([1.0, 0.0])
        )
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(0.0, abs=1e-9)


class TestKLDivergence:
    def test_zero_for_identical(self):
        p = np.array([0.2, 0.3, 0.5])
        assert F.kl_divergence(p, p) == pytest.approx(0.0, abs=1e-9)

    def test_nonnegative(self, rng):
        for _ in range(20):
            p = rng.dirichlet(np.ones(5))
            q = rng.dirichlet(np.ones(5))
            assert F.kl_divergence(p, q) >= -1e-12

    def test_asymmetric(self):
        p = np.array([0.9, 0.1])
        q = np.array([0.5, 0.5])
        assert F.kl_divergence(p, q) != pytest.approx(F.kl_divergence(q, p))

    def test_known_value(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        expected = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
        assert F.kl_divergence(p, q) == pytest.approx(expected)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.kl_divergence(np.ones(3) / 3, np.ones(4) / 4)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2**31 - 1))
    def test_property_gibbs_inequality(self, k, seed):
        gen = np.random.default_rng(seed)
        p = gen.dirichlet(np.ones(k))
        q = gen.dirichlet(np.ones(k))
        assert F.kl_divergence(p, q) >= -1e-12
