"""Shared test utilities: numerical gradient checking and the per-node
forward reference."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.tensor import ops
from repro.tensor.tensor import Tensor


def numeric_grad(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    wrt: int,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of scalar ``fn(*inputs)`` w.r.t. input ``wrt``."""
    base = [np.array(x, dtype=np.float64) for x in inputs]
    grad = np.zeros_like(base[wrt])
    flat = base[wrt].reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        high = fn(*[Tensor(b) for b in base]).item()
        flat[i] = original - eps
        low = fn(*[Tensor(b) for b in base]).item()
        flat[i] = original
        grad_flat[i] = (high - low) / (2.0 * eps)
    return grad


def check_gradients(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    atol: float = 1e-6,
    rtol: float = 1e-5,
) -> None:
    """Assert autograd gradients of scalar ``fn`` match central differences."""
    tensors = [Tensor(np.array(x, dtype=np.float64), requires_grad=True) for x in inputs]
    out = fn(*tensors)
    assert out.data.size == 1, "gradient check requires a scalar output"
    out.backward()
    for index, tensor in enumerate(tensors):
        expected = numeric_grad(fn, inputs, wrt=index)
        actual = tensor.grad if tensor.grad is not None else np.zeros_like(expected)
        np.testing.assert_allclose(
            actual, expected, atol=atol, rtol=rtol,
            err_msg=f"gradient mismatch for input {index}",
        )


def use_per_node_forward(monkeypatch, model) -> None:
    """Make ``model.forward_batch`` a loop over ``WidenModel.forward``.

    Nothing under ``src/`` calls the per-node ``forward`` (the paper's
    literal one-target-at-a-time Algorithm 3); it is the reference.  With
    this patch a trainer built on ``model`` runs its whole loop —
    sampling, downsampling, loss, optimizer — over that reference, so the
    same trainer on an unpatched twin model must agree with it.  Every
    target reads the ``node_state`` its caller passed, i.e. the synchronous
    per-minibatch table semantics DESIGN.md keeps.
    """

    def forward_batch(targets, states, graph, node_state=None, select_kernel=False):
        outputs = [
            model.forward(int(target), state, graph, node_state)
            for target, state in zip(targets, states)
        ]
        embeddings, wide_attentions, deep_attentions = zip(*outputs)
        return ops.stack(list(embeddings)), list(wide_attentions), list(deep_attentions)

    monkeypatch.setattr(model, "forward_batch", forward_batch)
