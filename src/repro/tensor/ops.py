"""Primitive differentiable operations on :class:`~repro.tensor.Tensor`.

Every function here takes tensors (or values coercible to tensors), computes
the forward result with numpy, and registers a backward closure via
``Tensor.from_op``.  Broadcasting in elementwise ops is handled by
:func:`_unbroadcast`, which sums a gradient back down to a parent's shape.
"""

from __future__ import annotations

import builtins
from typing import Optional, Sequence

import numpy as np

from repro.tensor.tensor import Tensor, as_tensor

# Backend crossovers for the scatter-add backward of the batched gather
# kernels (:func:`_scatter_add_rows`).  Constants, not host settings: which
# backend runs is a function of the scatter's shape, so a number measured
# here reproduces from a fresh checkout.  EXPERIMENTS.md, "Kernel thresholds
# are constants", holds the measurement that retired the per-host table: a
# sweep of either crossover does not repeat on one host, and a swept table
# moves ``train_yelp`` by a fifth of its own run-to-run spread.

# Below this many gathered rows ``np.add.at`` and the vectorized backends
# are within a few microseconds of each other (a sweep reads the crossover
# as 8, 16 or 64 on consecutive runs); above it ``np.add.at`` falls behind
# linearly -- 2x by 256 rows, an order of magnitude at hot-path sizes.
SCATTER_SPARSE_MIN_ROWS = 64

# Up to this many one-hot cells (``num_rows * m``) the scatter runs as a
# dense ``onehot^T @ grad`` gemm, 2-3x faster than bincount for a small
# destination such as the edge-type table; past it the selector's
# allocation dominates and the flat bincount pass takes over.  A 2-core
# host's sweep puts the handoff at 8,192 cells; moving it would reorder
# float sums under every pinned loss for no end-to-end difference (the
# table-on runs in EXPERIMENTS.md ran with 8,192).
SCATTER_DENSE_MAX_CELLS = 65536


def _scatter_add_rows(
    num_rows: int,
    index: np.ndarray,
    grad: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sum rows of ``grad`` into a zeroed ``(num_rows, d)`` matrix.

    ``index`` may have any shape; ``grad`` must be ``index.shape + (d,)``.
    Duplicate indices accumulate.  ``weights`` (same shape as ``index``)
    scales each scattered row.  ``np.ufunc.at`` is an order of magnitude
    slower than either vectorized formulation for the backward of the
    batched gather kernels, so large scatters run as ``onehot^T @ grad``
    when the one-hot selector is small (embedding-table backward) and as a
    flat element-level ``np.bincount`` otherwise — bincount's single C pass
    beats building a CSR selector by ~25% at the hot-path shapes.
    """
    flat_index = np.ascontiguousarray(index).ravel()
    flat_grad = grad.reshape(flat_index.size, -1)
    m = flat_index.size
    flat_weights = (
        np.ones(m) if weights is None
        else np.ascontiguousarray(weights, dtype=np.float64).ravel()
    )
    if m >= SCATTER_SPARSE_MIN_ROWS:
        if num_rows * m <= SCATTER_DENSE_MAX_CELLS:
            onehot = np.zeros((m, num_rows))
            onehot[np.arange(m), flat_index] = flat_weights
            return onehot.T @ flat_grad
        d = flat_grad.shape[1]
        weighted = (
            flat_grad if weights is None
            else flat_grad * flat_weights[:, np.newaxis]
        )
        element_index = (flat_index[:, np.newaxis] * d + np.arange(d)).ravel()
        return np.bincount(
            element_index, weights=weighted.ravel(), minlength=num_rows * d
        ).reshape(num_rows, d)
    if weights is not None:
        flat_grad = flat_grad * flat_weights[:, np.newaxis]
    out = np.zeros((num_rows, flat_grad.shape[1]), dtype=flat_grad.dtype)
    np.add.at(out, flat_index, flat_grad)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Remove leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ----------------------------------------------------------------------
# Elementwise arithmetic
# ----------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(_unbroadcast(grad, a.data.shape))
        b.accumulate_grad(_unbroadcast(grad, b.data.shape))

    return Tensor.from_op(out_data, (a, b), backward, name="add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(_unbroadcast(grad, a.data.shape))
        b.accumulate_grad(_unbroadcast(-grad, b.data.shape))

    return Tensor.from_op(out_data, (a, b), backward, name="sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(_unbroadcast(grad * b.data, a.data.shape))
        b.accumulate_grad(_unbroadcast(grad * a.data, b.data.shape))

    return Tensor.from_op(out_data, (a, b), backward, name="mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(_unbroadcast(grad / b.data, a.data.shape))
        b.accumulate_grad(_unbroadcast(-grad * a.data / (b.data**2), b.data.shape))

    return Tensor.from_op(out_data, (a, b), backward, name="div")


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(-grad)

    return Tensor.from_op(-a.data, (a,), backward, name="neg")


def power(a, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a constant scalar exponent."""
    a = as_tensor(a)
    exponent = float(exponent)
    out_data = a.data**exponent

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad * exponent * a.data ** (exponent - 1.0))

    return Tensor.from_op(out_data, (a,), backward, name="power")


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad * out_data)

    return Tensor.from_op(out_data, (a,), backward, name="exp")


def log(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.log(a.data)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad / a.data)

    return Tensor.from_op(out_data, (a,), backward, name="log")


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad * 0.5 / out_data)

    return Tensor.from_op(out_data, (a,), backward, name="sqrt")


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad * (1.0 - out_data**2))

    return Tensor.from_op(out_data, (a,), backward, name="tanh")


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    # Numerically stable split on the sign of the input.
    out_data = np.where(
        a.data >= 0,
        1.0 / (1.0 + np.exp(-np.clip(a.data, 0, None))),
        np.exp(np.clip(a.data, None, 0)) / (1.0 + np.exp(np.clip(a.data, None, 0))),
    )

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad * out_data * (1.0 - out_data))

    return Tensor.from_op(out_data, (a,), backward, name="sigmoid")


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    out_data = a.data * mask

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad * mask)

    return Tensor.from_op(out_data, (a,), backward, name="relu")


def leaky_relu(a, negative_slope: float = 0.2) -> Tensor:
    """Leaky ReLU, used by the GAT baseline's attention logits."""
    a = as_tensor(a)
    mask = a.data > 0
    slope = float(negative_slope)
    out_data = np.where(mask, a.data, slope * a.data)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad * np.where(mask, 1.0, slope))

    return Tensor.from_op(out_data, (a,), backward, name="leaky_relu")


def maximum(a, b) -> Tensor:
    """Elementwise max of two tensors (relay-edge maxpool, Eq. 8 in paper).

    Ties route the gradient to the first argument, matching numpy's
    ``np.maximum`` forward tie-breaking being irrelevant for values but
    needing a deterministic choice for gradients.
    """
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data >= b.data
    out_data = np.where(take_a, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(_unbroadcast(grad * take_a, a.data.shape))
        b.accumulate_grad(_unbroadcast(grad * ~take_a, b.data.shape))

    return Tensor.from_op(out_data, (a, b), backward, name="maximum")


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------


def _expand_reduced(grad: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    """Broadcast a reduced gradient back to the pre-reduction shape."""
    if axis is None:
        return np.broadcast_to(grad, shape).copy() if keepdims or grad.shape != shape else grad
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(ax % len(shape) for ax in axes)
        for ax in sorted(axes):
            grad = np.expand_dims(grad, ax)
    return np.broadcast_to(grad, shape).copy()


def sum(a, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001 - mirrors numpy
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(_expand_reduced(grad, a.data.shape, axis, keepdims))

    return Tensor.from_op(out_data, (a,), backward, name="sum")


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(_expand_reduced(grad, a.data.shape, axis, keepdims) / count)

    return Tensor.from_op(out_data, (a,), backward, name="mean")


def max(a, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001 - mirrors numpy
    a = as_tensor(a)
    out_data = a.data.max(axis=axis, keepdims=keepdims)
    expanded = a.data.max(axis=axis, keepdims=True)
    mask = a.data == expanded
    # Split ties evenly so the gradient check stays exact.
    counts = mask.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        grad_full = _expand_reduced(grad, a.data.shape, axis, keepdims)
        a.accumulate_grad(grad_full * mask / counts)

    return Tensor.from_op(out_data, (a,), backward, name="max")


# ----------------------------------------------------------------------
# Linear algebra & shape manipulation
# ----------------------------------------------------------------------


def matmul(a, b, transpose_b: bool = False) -> Tensor:
    """Matrix product with numpy's ``@`` semantics, including batching.

    Leading dimensions broadcast exactly as ``np.matmul``: ``(B, m, k) @
    (k, n)`` and ``(B, m, k) @ (B, k, n)`` both work, and the backward
    reduces broadcast gradients down to each operand's shape — one batched
    kernel instead of B small ones on the vectorized forward path.

    ``transpose_b=True`` computes ``a @ swapaxes(b, -1, -2)`` without
    materializing the transpose as a separate op — the gemm consumes the
    strided view directly (the attention-score pattern ``Q @ K^T``).
    """
    a, b = as_tensor(a), as_tensor(b)
    if transpose_b:
        if b.data.ndim < 2:
            raise ValueError("transpose_b requires b with at least 2 dims")
        b_data = np.swapaxes(b.data, -1, -2)
    else:
        b_data = b.data
    # Batched activations against one 2-D weight collapse to a single flat
    # gemm — one big BLAS call instead of a gufunc loop over the batch, and
    # the weight gradient below needs no broadcast-reduction temp.
    flatten = a.data.ndim > 2 and b_data.ndim == 2
    if flatten:
        k = a.data.shape[-1]
        out_data = (a.data.reshape(-1, k) @ b_data).reshape(
            a.data.shape[:-1] + (b_data.shape[-1],)
        )
    else:
        out_data = a.data @ b_data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            if b_data.ndim == 1:
                # out = a @ b with vector b: grad_a[..., i, j] = grad[..., i] * b[j]
                grad_a = (
                    grad * b_data
                    if a.data.ndim == 1
                    else np.expand_dims(grad, -1) * b_data
                )
            elif flatten:
                n = b_data.shape[-1]
                grad_a = (grad.reshape(-1, n) @ b_data.T).reshape(a.data.shape)
            else:
                grad_a = grad @ np.swapaxes(b_data, -1, -2)
            if a.data.ndim == 1 and grad_a.ndim > 1:
                grad_a = grad_a.sum(axis=tuple(range(grad_a.ndim - 1)))
            a.accumulate_grad(_unbroadcast(grad_a, a.data.shape))
        if b.requires_grad:
            if a.data.ndim == 1:
                grad_b = np.outer(a.data, grad) if b_data.ndim == 2 else a.data * grad
            elif b_data.ndim == 1:
                # grad_b[j] = sum over leading dims of a[..., j] * grad[...]
                grad_b = (a.data * np.expand_dims(grad, -1)).reshape(-1, b_data.shape[0]).sum(axis=0)
            elif flatten:
                grad_b = a.data.reshape(-1, a.data.shape[-1]).T @ grad.reshape(
                    -1, b_data.shape[-1]
                )
            else:
                grad_b = np.swapaxes(a.data, -1, -2) @ grad
            if transpose_b:
                grad_b = np.swapaxes(grad_b, -1, -2)
            b.accumulate_grad(_unbroadcast(grad_b, b.data.shape))

    return Tensor.from_op(out_data, (a, b), backward, name="matmul")


def transpose(a, axes: Optional[Sequence[int]] = None) -> Tensor:
    a = as_tensor(a)
    out_data = np.transpose(a.data, axes)
    if axes is None:
        inverse = None
    else:
        inverse = np.argsort(axes)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(np.transpose(grad, inverse))

    return Tensor.from_op(out_data, (a,), backward, name="transpose")


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad.reshape(a.data.shape))

    return Tensor.from_op(out_data, (a,), backward, name="reshape")


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (the paper's ``[·;·]`` and ``∥``)."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [builtins.slice(None)] * grad.ndim
            index[axis] = builtins.slice(start, stop)
            tensor.accumulate_grad(grad[tuple(index)])

    return Tensor.from_op(out_data, tuple(tensors), backward, name="concat")


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slabs = np.moveaxis(grad, axis, 0)
        for tensor, slab in zip(tensors, slabs):
            # np.ascontiguousarray promotes 0-d slabs to 1-d; reshape instead.
            tensor.accumulate_grad(np.array(slab).reshape(tensor.data.shape))

    return Tensor.from_op(out_data, tuple(tensors), backward, name="stack")


def take(a, index) -> Tensor:
    """Differentiable indexing/slicing (``a[index]``).

    Supports anything numpy's basic and integer-array indexing supports; the
    backward pass scatter-adds the gradient into the indexed positions, which
    correctly handles repeated indices (embedding lookups).
    """
    a = as_tensor(a)
    out_data = a.data[index]

    def backward(grad: np.ndarray) -> None:
        grad_full = np.zeros_like(a.data)
        np.add.at(grad_full, index, grad)
        a.accumulate_grad(grad_full)

    return Tensor.from_op(out_data, (a,), backward, name="take")


def embedding_lookup(weight, indices: np.ndarray) -> Tensor:
    """Gather rows ``weight[indices]`` with scatter-add backward.

    ``indices`` is a plain integer ndarray (it is data, never differentiated).
    """
    weight = as_tensor(weight)
    indices = np.asarray(indices)
    out_data = weight.data[indices]

    def backward(grad: np.ndarray) -> None:
        weight.accumulate_grad(
            _scatter_add_rows(weight.data.shape[0], indices, grad)
        )

    return Tensor.from_op(out_data, (weight,), backward, name="embedding_lookup")


def pad_gather(a, index: np.ndarray, mask: np.ndarray) -> Tensor:
    """Gather rows of ``a`` into a padded batch and zero the padding — fused.

    ``a`` is a flat ``(n, d)`` row matrix; ``index`` an integer ndarray of
    shape ``(..., L)`` selecting one row per slot (padding slots may point
    anywhere, conventionally 0); ``mask`` a ``(..., L)`` array of 1.0 for
    valid slots and 0.0 for padding.  The output has shape ``(..., L, d)``
    with padded rows exactly zero, which is what keeps padded packs inert
    through attention (zero values, masked scores).

    One fused kernel replaces a ``take`` + broadcast ``mul`` pair on the
    batched hot path; the backward scatter-adds ``grad * mask`` so repeated
    row indices (shared neighbors across targets) accumulate correctly.
    """
    a = as_tensor(a)
    index = np.asarray(index)
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != index.shape:
        raise ValueError(f"mask shape {mask.shape} != index shape {index.shape}")
    expanded = mask[..., np.newaxis]
    out_data = a.data[index] * expanded

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(
            _scatter_add_rows(a.data.shape[0], index, grad, weights=mask)
        )

    return Tensor.from_op(out_data, (a,), backward, name="pad_gather")


def pad_gather_mul(a, index: np.ndarray, mask: np.ndarray, edges,
                   dropout_mask: Optional[np.ndarray] = None) -> Tensor:
    """Fused message packaging: ``(a[index] * mask) ⊙ edges [⊙ dropout]``.

    The batched pack assembly of Eqs. 1-2 in one kernel: gather node rows
    into the padded grid, zero the padding, multiply by the edge-embedding
    grid and (in training) the precomputed inverted-dropout mask.  Operand
    shapes match :func:`pad_gather` plus ``edges`` broadcastable to the
    ``(..., L, d)`` output; ``dropout_mask`` is data, never differentiated.

    Keeps the same multiplication order as the unfused chain
    (``pad_gather`` → ``mul`` → ``dropout_mask``), so results are
    bit-identical while three op dispatches and two intermediates collapse
    into one.
    """
    a, edges = as_tensor(a), as_tensor(edges)
    index = np.asarray(index)
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != index.shape:
        raise ValueError(f"mask shape {mask.shape} != index shape {index.shape}")
    expanded = mask[..., np.newaxis]
    gathered = a.data[index] * expanded
    product = gathered * edges.data
    out_data = product if dropout_mask is None else product * dropout_mask

    def backward(grad: np.ndarray) -> None:
        grad_eff = grad if dropout_mask is None else grad * dropout_mask
        if a.requires_grad:
            a.accumulate_grad(
                _scatter_add_rows(
                    a.data.shape[0], index, grad_eff * edges.data, weights=mask
                )
            )
        if edges.requires_grad:
            edges.accumulate_grad(
                _unbroadcast(grad_eff * gathered, edges.data.shape)
            )

    return Tensor.from_op(out_data, (a, edges), backward, name="pad_gather_mul")


def scatter_rows(base, index: np.ndarray, rows) -> Tensor:
    """Replace rows ``base[index]`` with the rows of ``rows`` (out-of-place).

    ``base`` is ``(n, d)``, ``index`` a 1-D integer array of **unique** row
    positions, ``rows`` a ``(len(index), d)`` tensor.  Gradients route to
    ``rows`` at the replaced positions and to ``base`` everywhere else —
    the splice used to overwrite relay-edge rows in a bulk-looked-up edge
    matrix without per-row slice/concat chains.
    """
    base, rows = as_tensor(base), as_tensor(rows)
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1:
        raise ValueError(f"index must be 1-D, got shape {index.shape}")
    if rows.data.shape != (index.shape[0],) + base.data.shape[1:]:
        raise ValueError(
            f"rows shape {rows.data.shape} incompatible with "
            f"{index.shape[0]} rows of base {base.data.shape}"
        )
    out_data = base.data.copy()
    out_data[index] = rows.data

    def backward(grad: np.ndarray) -> None:
        if base.requires_grad:
            grad_base = grad.copy()
            grad_base[index] = 0.0
            base.accumulate_grad(grad_base)
        if rows.requires_grad:
            rows.accumulate_grad(grad[index])

    return Tensor.from_op(out_data, (base, rows), backward, name="scatter_rows")


def slice(a, start: int, stop: int, axis: int = 0) -> Tensor:  # noqa: A001
    """Contiguous slice along one axis (cheaper backward than :func:`take`)."""
    a = as_tensor(a)
    index = [builtins.slice(None)] * a.data.ndim
    index[axis] = builtins.slice(start, stop)
    index = tuple(index)
    out_data = a.data[index]

    def backward(grad: np.ndarray) -> None:
        grad_full = np.zeros_like(a.data)
        grad_full[index] = grad
        a.accumulate_grad(grad_full)

    return Tensor.from_op(out_data, (a,), backward, name="slice")


def spmm(matrix, dense) -> Tensor:
    """Sparse-constant @ dense-tensor product (GCN-style propagation).

    ``matrix`` is a scipy sparse matrix treated as a constant (adjacency
    structure is data, not a parameter); gradients flow only to ``dense``.
    """
    dense = as_tensor(dense)
    out_data = np.asarray(matrix @ dense.data)
    transposed = matrix.T.tocsr()

    def backward(grad: np.ndarray) -> None:
        dense.accumulate_grad(np.asarray(transposed @ grad))

    return Tensor.from_op(out_data, (dense,), backward, name="spmm")


def dropout_mask(a, mask: np.ndarray) -> Tensor:
    """Apply a precomputed (already scaled) dropout mask."""
    a = as_tensor(a)
    out_data = a.data * mask

    def backward(grad: np.ndarray) -> None:
        a.accumulate_grad(grad * mask)

    return Tensor.from_op(out_data, (a,), backward, name="dropout")
