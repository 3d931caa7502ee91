"""A from-scratch reverse-mode automatic differentiation engine on numpy.

This package is the computational substrate for every model in the
reproduction (WIDEN and all baselines).  It provides:

- :class:`~repro.tensor.tensor.Tensor` — an ndarray wrapper that records the
  operations applied to it and can backpropagate gradients through them.
- :mod:`~repro.tensor.ops` — broadcasting-aware primitive operations.
- :mod:`~repro.tensor.functional` — composite neural-network functions
  (softmax, attention, cross-entropy, ...).

The design mirrors the core of PyTorch's autograd at a much smaller scale:
each operation returns a new ``Tensor`` holding a closure that knows how to
push its output gradient back to the operation's inputs, and
``Tensor.backward()`` runs those closures in reverse topological order.
"""

from repro.tensor.tensor import Tensor, no_grad, is_grad_enabled
from repro.tensor import ops
from repro.tensor import functional

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "ops",
    "functional",
]
