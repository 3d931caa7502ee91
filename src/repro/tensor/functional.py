"""Composite differentiable functions used across all models.

These are built either as fused primitives (softmax, cross-entropy — for
numerical stability and a compact backward) or as compositions of
:mod:`repro.tensor.ops`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.tensor import ops
from repro.tensor.tensor import Tensor, as_tensor


def _softmax_forward(data: np.ndarray, axis: int, scale, mask=None) -> np.ndarray:
    """``softmax(data / scale + mask)`` along ``axis``; ``data`` is not written."""
    if scale is not None:
        data = data / scale
    if mask is not None:
        data = data + mask
    out = data - data.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def _softmax_backward(out: np.ndarray, grad: np.ndarray, axis: int, scale) -> np.ndarray:
    """Gradient w.r.t. the unscaled logits: ``s * (grad - sum(grad * s))``."""
    inner = (grad * out).sum(axis=axis, keepdims=True)
    grad_logits = out * (grad - inner)
    return grad_logits if scale is None else grad_logits / scale


def softmax(a, axis: int = -1, scale: Optional[float] = None) -> Tensor:
    """Numerically stable softmax along ``axis`` (fused forward/backward).

    ``scale`` divides the logits first — ``softmax(a / scale)`` as one op,
    absorbing the attention temperature ``sqrt(d)`` that would otherwise be
    a separate elementwise division on the hot path.
    """
    a = as_tensor(a)
    out_data = _softmax_forward(a.data, axis, scale)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(_softmax_backward(out_data, grad, axis, scale))

    return Tensor.from_op(out_data, (a,), backward, name="softmax")


def log_softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_norm
    soft = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor.from_op(out_data, (a,), backward, name="log_softmax")


def masked_softmax(a, mask: np.ndarray, axis: int = -1,
                   scale: Optional[float] = None) -> Tensor:
    """Softmax with an additive mask (``-inf`` entries get ~zero weight).

    ``mask`` is a plain ndarray broadcastable to ``a`` containing 0 for kept
    positions and ``-inf`` (or very negative values) for suppressed ones —
    exactly the attention mask Θ from Eq. (6) of the paper.  ``scale``
    divides the logits first (the fused attention temperature), as in
    :func:`softmax`.
    """
    a = as_tensor(a)
    out_data = _softmax_forward(a.data, axis, scale, mask)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(_softmax_backward(out_data, grad, axis, scale))

    return Tensor.from_op(out_data, (a,), backward, name="masked_softmax")


def cross_entropy(logits, labels: np.ndarray, reduction: str = "mean") -> Tensor:
    """Cross-entropy between row logits and integer class labels (Eq. 10).

    Parameters
    ----------
    logits:
        Tensor of shape ``(n, c)``.
    labels:
        Integer ndarray of shape ``(n,)``.
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"``.
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.data.shape}")
    if labels.shape != (logits.data.shape[0],):
        raise ValueError(
            f"labels shape {labels.shape} incompatible with logits {logits.data.shape}"
        )
    n = logits.data.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    losses = -log_probs[np.arange(n), labels]
    probs = np.exp(log_probs)

    if reduction == "mean":
        out_data = np.asarray(losses.mean())
        scale = 1.0 / n
    elif reduction == "sum":
        out_data = np.asarray(losses.sum())
        scale = 1.0
    elif reduction == "none":
        out_data = losses
        scale = None
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    def backward(grad: np.ndarray) -> None:
        grad_logits = probs.copy()
        grad_logits[np.arange(n), labels] -= 1.0
        if scale is None:
            grad_logits *= grad[:, None]
        else:
            grad_logits *= float(grad) * scale
        logits.accumulate_grad(grad_logits)

    return Tensor.from_op(out_data, (logits,), backward, name="cross_entropy")


def l2_normalize(a, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Row-wise L2 normalization, ``v / ||v||`` (second line of Eq. 7).

    One fused op instead of the mul → sum → add → sqrt → div chain; the
    forward reproduces that chain's arithmetic exactly.
    """
    a = as_tensor(a)
    sq_sum = (a.data * a.data).sum(axis=axis, keepdims=True)
    norm = np.sqrt(sq_sum + eps)
    out_data = a.data / norm

    def backward(grad: np.ndarray) -> None:
        # d(a/||a||) = grad/||a|| - a * <grad, a> / ||a||^3
        inner = (grad * a.data).sum(axis=axis, keepdims=True)
        a.accumulate_grad(grad / norm - a.data * (inner / (norm * norm * norm)))

    return Tensor.from_op(out_data, (a,), backward, name="l2_normalize")


def attention(
    query,
    keys,
    values,
    mask: Optional[np.ndarray] = None,
    return_weights: bool = False,
):
    """Scaled dot-product attention, ``softmax(q k^T / sqrt(d)) v``.

    ``query`` may be ``(d,)`` (single query, as in PASS° / PASS▷ where only
    the target node's pack queries) or ``(m, d)`` (full self-attention, as in
    the successive self-attention of Eq. 4).  ``mask`` is an additive mask.

    Batched inputs are supported with one leading batch dimension: ``query``
    ``(B, q, d)``, ``keys``/``values`` ``(B, m, d)`` and a mask
    broadcastable to ``(B, q, m)`` run as single batched ops — the
    vectorized hot path packs B targets' pack matrices this way.

    Returns the attended values, plus the attention weights when
    ``return_weights`` is set (WIDEN's downsampling consumes the weights).
    """
    query, keys, values = as_tensor(query), as_tensor(keys), as_tensor(values)
    d = keys.data.shape[-1]
    # transpose_b folds k^T into the gemm itself (no separate transpose op
    # on the hot path; BLAS consumes the strided view directly), and the
    # 1/sqrt(d) temperature rides inside the softmax kernel.
    scores = ops.matmul(query, keys, transpose_b=True)
    if mask is not None:
        weights = masked_softmax(scores, mask, axis=-1, scale=np.sqrt(d))
    else:
        weights = softmax(scores, axis=-1, scale=np.sqrt(d))
    attended = ops.matmul(weights, values)
    if return_weights:
        return attended, weights
    return attended


def _project_rows(rows: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``rows @ weight`` with each row's result independent of the row count.

    The serving ladder compares an answer computed in one batch with the
    same node computed in another.  A plain gemm over a contiguous weight
    gives a row the same bits whatever the other rows are — measured for 2
    to 256 rows — except alone: one row takes the gemv path, which sums in
    another order.  So a lone row is computed as a pair.  (A transposed
    *view* as ``weight`` is not row-count independent at any size; callers
    pass ``ascontiguousarray(W.T)``.)
    """
    if rows.shape[0] == 1:
        return (np.concatenate([rows, rows]) @ weight)[:1]
    return rows @ weight


def query_attend(
    packs_or_query,
    keys,
    values,
    w_query,
    w_key,
    w_value,
    mask: Optional[np.ndarray] = None,
):
    """One padded single-query attention block (Eq. 3 / Eq. 5) as one node.

    Only one row per segment queries, so the projections move off the
    ``(S, L, d)`` grids onto ``(S, d)`` rows: ``u = (q W_Q) W_Kᵀ``,
    ``w = softmax(⟨u, K_l⟩ / √d + mask)``, ``out = (Σ_l w_l V_l) W_V`` — the
    chain :class:`~repro.nn.QueryAttention` composes from
    :func:`attention`, which is the reference this node is checked against.

    ``packs_or_query`` is the ``(S, d)`` query, or an ``(S, L, d)`` pack grid
    whose row 0 queries (no slice node, and the gradient lands in row 0 of
    a buffer the backward owns anyway).  ``keys`` / ``values`` are
    ``(S, L, d)`` and may be that same tensor; ``mask`` is additive
    ``(S, L)``.

    Returns ``(attended (S, d), weights (S, L))``; the weights are detached
    — the trigger and the downsampler read them as data, nothing
    differentiates through them.
    """
    source, keys, values = as_tensor(packs_or_query), as_tensor(keys), as_tensor(values)
    w_query, w_key, w_value = as_tensor(w_query), as_tensor(w_key), as_tensor(w_value)
    segments, _, d = keys.data.shape
    from_packs = source.data.ndim == 3
    query = source.data[:, 0, :] if from_packs else source.data
    scale = np.sqrt(d)
    # One query row per segment: ``u`` and the pooled values are (S, 1, d)
    # for the batched products and (S, d) for the projections.
    row, flat = (segments, 1, d), (segments, d)

    q = _project_rows(query, w_query.data)
    u = _project_rows(q, np.ascontiguousarray(w_key.data.T)).reshape(row)
    weights = _softmax_forward(
        np.matmul(u, keys.data.swapaxes(1, 2)),
        -1,
        scale,
        None if mask is None else mask[:, np.newaxis, :],
    )
    pooled = np.matmul(weights, values.data).reshape(flat)
    out_data = _project_rows(pooled, w_value.data)

    def backward(grad: np.ndarray) -> None:
        w_value.accumulate_grad(pooled.T @ grad)
        grad_pooled = (grad @ w_value.data.T).reshape(row)
        grad_scores = _softmax_backward(
            weights, np.matmul(grad_pooled, values.data.swapaxes(1, 2)), -1, scale
        )
        grad_values = weights.swapaxes(1, 2) * grad_pooled
        grad_keys = grad_scores.swapaxes(1, 2) * u
        grad_u = np.matmul(grad_scores, keys.data).reshape(flat)
        w_key.accumulate_grad(grad_u.T @ q)
        grad_q = grad_u @ w_key.data
        w_query.accumulate_grad(query.T @ grad_q)
        grad_query = grad_q @ w_query.data.T
        if not from_packs:
            source.accumulate_grad(grad_query)
        elif source is values:
            grad_values[:, 0, :] += grad_query
        elif source is keys:
            grad_keys[:, 0, :] += grad_query
        elif source.requires_grad:
            grad_source = np.zeros_like(source.data)
            grad_source[:, 0, :] = grad_query
            source.accumulate_grad(grad_source)
        keys.accumulate_grad(grad_keys)
        values.accumulate_grad(grad_values)

    attended = Tensor.from_op(
        out_data,
        (source, keys, values, w_query, w_key, w_value),
        backward,
        name="query_attend",
    )
    return attended, Tensor(weights.reshape(segments, -1))


def self_attend(packs, w_query, w_key, w_value, mask: Optional[np.ndarray] = None):
    """One padded self-attention block (Eq. 4 with Θ of Eq. 6) as one node.

    ``packs`` is ``(S, L, d)``, ``mask`` additive and broadcastable to
    ``(S, L, L)``.  Same arithmetic as ``attention(p W_Q, p W_K, p W_V,
    mask)``, the composed reference: six autograd nodes and their five
    intermediate gradients become one closure.  The projections stay three
    ``(S·L, d) @ (d, d)`` gemms: one ``(d, 3d)`` gemm measures slower at
    these sizes and trips the BLAS thread pool where none is pinned
    (DESIGN.md, "The block is the engine's unit").  Returns ``(refined
    (S, L, d), weights (S, L, L))`` with the weights detached.
    """
    packs = as_tensor(packs)
    weights_in = (as_tensor(w_query), as_tensor(w_key), as_tensor(w_value))
    grid = packs.data.shape
    d = grid[-1]
    scale = np.sqrt(d)
    flat_packs = packs.data.reshape(-1, d)
    q, k, v = [_project_rows(flat_packs, w.data).reshape(grid) for w in weights_in]
    weights = _softmax_forward(np.matmul(q, k.swapaxes(1, 2)), -1, scale, mask)
    out_data = np.matmul(weights, v)

    def backward(grad: np.ndarray) -> None:
        grad_scores = _softmax_backward(
            weights, np.matmul(grad, v.swapaxes(1, 2)), -1, scale
        )
        grad_packs = None
        for w, grad_projected in zip(
            weights_in,
            (
                np.matmul(grad_scores, k),
                np.matmul(grad_scores.swapaxes(1, 2), q),
                np.matmul(weights.swapaxes(1, 2), grad),
            ),
        ):
            grad_projected = grad_projected.reshape(-1, d)
            w.accumulate_grad(flat_packs.T @ grad_projected)
            # A contiguous W^T keeps this (S·L, d) product on the gemm path
            # the forward takes; the transposed-view spelling wakes the BLAS
            # thread pool at these row counts (ms stalls where it is unpinned).
            term = grad_projected @ np.ascontiguousarray(w.data.T)
            grad_packs = term if grad_packs is None else grad_packs + term
        packs.accumulate_grad(grad_packs.reshape(grid))

    refined = Tensor.from_op(
        out_data, (packs,) + weights_in, backward, name="self_attend"
    )
    return refined, Tensor(weights)


def binary_cross_entropy_with_logits(logits, targets: np.ndarray) -> Tensor:
    """Stable BCE on logits (used by the Node2Vec SGNS objective tests)."""
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.float64)
    x = logits.data
    # log(1 + exp(-|x|)) + max(x, 0) - x*t
    losses = np.maximum(x, 0) - x * targets + np.log1p(np.exp(-np.abs(x)))
    out_data = np.asarray(losses.mean())
    sig = np.where(
        x >= 0,
        1.0 / (1.0 + np.exp(-np.clip(x, 0, None))),
        np.exp(np.clip(x, None, 0)) / (1.0 + np.exp(np.clip(x, None, 0))),
    )

    def backward(grad: np.ndarray) -> None:
        logits.accumulate_grad(float(grad) * (sig - targets) / x.size)

    return Tensor.from_op(out_data, (logits,), backward, name="bce_with_logits")


def kl_divergence(p: np.ndarray, q: np.ndarray, eps: float = 1e-12) -> float:
    """KL(p ‖ q) between two discrete distributions (Eq. 9's building block).

    This is pure data-side math (no gradients flow through the downsampling
    trigger), so it takes and returns plain numpy values.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"distribution shapes differ: {p.shape} vs {q.shape}")
    p = np.clip(p, eps, None)
    q = np.clip(q, eps, None)
    return float(np.sum(p * np.log(p / q)))
