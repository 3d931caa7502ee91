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


def softmax(a, axis: int = -1, scale: Optional[float] = None) -> Tensor:
    """Numerically stable softmax along ``axis`` (fused forward/backward).

    ``scale`` divides the logits first — ``softmax(a / scale)`` as one op,
    absorbing the attention temperature ``sqrt(d)`` that would otherwise be
    a separate elementwise division on the hot path.
    """
    a = as_tensor(a)
    data = a.data if scale is None else a.data / scale
    shifted = data - data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        # d softmax = s * (grad - sum(grad * s))
        inner = (grad * out_data).sum(axis=axis, keepdims=True)
        grad_a = out_data * (grad - inner)
        a.accumulate_grad(grad_a if scale is None else grad_a / scale)

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
    data = a.data if scale is None else a.data / scale
    masked = data + mask
    shifted = masked - masked.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        inner = (grad * out_data).sum(axis=axis, keepdims=True)
        grad_a = out_data * (grad - inner)
        a.accumulate_grad(grad_a if scale is None else grad_a / scale)

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
    pairs: Optional[tuple] = None,
):
    """Scaled dot-product attention, ``softmax(q k^T / sqrt(d)) v``.

    ``query`` may be ``(d,)`` (single query, as in PASS° / PASS▷ where only
    the target node's pack queries) or ``(m, d)`` (full self-attention, as in
    the successive self-attention of Eq. 4).  ``mask`` is an additive mask.

    Batched inputs are supported with one leading batch dimension: ``query``
    ``(B, q, d)``, ``keys``/``values`` ``(B, m, d)`` and a mask
    broadcastable to ``(B, q, m)`` run as single batched ops — the
    vectorized hot path packs B targets' pack matrices this way.

    ``pairs = (rows, cols, offsets)`` selects the CSR kernels instead: the
    operands are flat row matrices, a score exists only for each listed
    ``(query row, key row)`` pair (:func:`~repro.tensor.ops.sddmm`;
    ``cols=None`` pairs key ``p`` with entry ``p``), and ``offsets`` groups
    the pairs into the segments the softmax and the weighted sum run over —
    work proportional to real pairs, no padded grid and no mask.  The
    weights then come back flat, one per pair.

    Returns the attended values, plus the attention weights when
    ``return_weights`` is set (WIDEN's downsampling consumes the weights).
    """
    query, keys, values = as_tensor(query), as_tensor(keys), as_tensor(values)
    d = keys.data.shape[-1]
    if pairs is not None:
        rows, cols, offsets = pairs
        scores = ops.sddmm(query, keys, rows, cols)
        weights = ops.segment_softmax(scores, offsets, scale=np.sqrt(d))
        attended = ops.segment_matmul(weights, values, cols, offsets)
    else:
        # transpose_b folds k^T into the gemm itself (no separate transpose
        # op on the hot path; BLAS consumes the strided view directly), and
        # the 1/sqrt(d) temperature rides inside the softmax kernel.
        scores = ops.matmul(query, keys, transpose_b=True)
        if mask is not None:
            weights = masked_softmax(scores, mask, axis=-1, scale=np.sqrt(d))
        else:
            weights = softmax(scores, axis=-1, scale=np.sqrt(d))
        attended = ops.matmul(weights, values)
    if return_weights:
        return attended, weights
    return attended


def mse(prediction, target) -> Tensor:
    """Mean squared error."""
    prediction, target = as_tensor(prediction), as_tensor(target)
    diff = prediction - target
    return ops.mean(diff * diff)


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
