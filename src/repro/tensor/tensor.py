"""The :class:`Tensor` class: an ndarray with reverse-mode autodiff.

A ``Tensor`` wraps a ``numpy.ndarray`` and, when ``requires_grad`` is set,
records the parent tensors and a backward closure for every operation applied
to it.  Calling :meth:`Tensor.backward` on a scalar result walks the recorded
graph in reverse topological order and accumulates gradients into the
``grad`` attribute of every tensor that requires them.

Gradients are plain ``numpy.ndarray`` objects (not tensors), so higher-order
differentiation is intentionally out of scope — none of the reproduced models
need it.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

Number = Union[int, float, np.floating, np.integer]
TensorLike = Union["Tensor", Number, np.ndarray, Sequence]
_FLOAT64 = np.dtype(np.float64)


class _GradMode(threading.local):
    """Per-thread grad-recording flag.

    Thread-local because concurrent serving (``repro.cluster`` shard workers)
    runs ``no_grad`` inference on worker threads while the main thread may
    keep training: a process-global flag would let one thread's ``no_grad``
    exit re-enable (or permanently disable) recording under another's feet.
    """

    enabled = True


_GRAD_MODE = _GradMode()

# Op-level profiler hook (see repro.obs.profiler.OpProfiler).  ``from_op`` is
# the one funnel every forward operation passes through, and ``backward``
# invokes every recorded closure, so these two sites see the whole engine.
# When no profiler is installed the cost is one ``is not None`` check.
_PROFILER = None


def set_profiler(profiler) -> None:
    """Install (or, with ``None``, remove) the op-level profiler hook."""
    global _PROFILER
    _PROFILER = profiler


def get_profiler():
    """The currently installed op-level profiler, or ``None``."""
    return _PROFILER


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_MODE.enabled


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph recording (for inference/eval).

    The flag is per-thread, so concurrent shard workers can run inference
    without toggling grad recording for each other (or for a training loop
    on the main thread)."""
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


class Tensor:
    """An n-dimensional array supporting reverse-mode differentiation.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts.  Stored as ``float64`` unless an
        integer/bool array is given explicitly (those never require grad).
    requires_grad:
        Whether gradients should be accumulated into this tensor during
        :meth:`backward`.
    name:
        Optional label used in ``repr`` and error messages.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "name")

    def __init__(
        self,
        data: TensorLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        array = np.asarray(data)
        if array.dtype.kind == "f":
            array = array.astype(np.float64, copy=False)
        elif requires_grad:
            raise TypeError(
                f"only floating-point tensors can require grad, got {array.dtype}"
            )
        self.data: np.ndarray = array
        self.requires_grad = bool(requires_grad) and _GRAD_MODE.enabled
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self.name = name

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def from_op(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
        name: Optional[str] = None,
    ) -> "Tensor":
        """Create the result tensor of an operation.

        ``backward`` receives the gradient of the loss w.r.t. this result and
        must accumulate into each parent via :meth:`accumulate_grad`.  The
        graph edge is only recorded when grad mode is on and at least one
        parent requires grad; under ``no_grad`` without a profiler the
        parents are not looked at.  A float64 ndarray (nearly every op's
        result) is adopted without ``__init__``'s ``asarray``/``astype``.
        """
        if _GRAD_MODE.enabled or _PROFILER is not None:
            parents = tuple(parents)
        needs_grad = _GRAD_MODE.enabled and any(p.requires_grad for p in parents)
        if type(data) is np.ndarray and data.dtype is _FLOAT64:
            out = Tensor.__new__(Tensor)
            out.data, out.requires_grad, out.grad, out.name = data, needs_grad, None, name
            out._parents, out._backward = (), None
        else:
            out = Tensor(data, requires_grad=needs_grad, name=name)
        if needs_grad:
            out._parents = parents
            out._backward = backward
        if _PROFILER is not None:
            _PROFILER.record_op(name, out.data, parents)
        return out

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's ``.grad`` (no-op if not required)."""
        if not self.requires_grad:
            return
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match tensor shape "
                f"{self.data.shape} for {self!r}"
            )
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to 1 for scalar tensors; non-scalar roots must pass
        an explicit output gradient.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a scalar tensor"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"seed gradient shape {grad.shape} != tensor shape {self.data.shape}"
                )

        order = self._topological_order()
        self.accumulate_grad(grad)
        profiler = _PROFILER
        if profiler is None:
            for node in reversed(order):
                if node._backward is not None and node.grad is not None:
                    node._backward(node.grad)
        else:
            # Backward closures only touch numpy (they never create tensors),
            # so per-closure wall time is pure self-time for the op.
            for node in reversed(order):
                if node._backward is not None and node.grad is not None:
                    start = time.perf_counter()
                    node._backward(node.grad)
                    profiler.record_backward(
                        node.name, time.perf_counter() - start
                    )

    def _topological_order(self) -> list:
        """Return nodes reachable from ``self`` in topological order (iterative)."""
        order: list = []
        visited: set = set()
        # Iterative DFS with an explicit stack; graphs from long training
        # loops can exceed Python's recursion limit otherwise.
        stack: list = [(self, iter(self._parents))]
        visited.add(id(self))
        while stack:
            node, parents = stack[-1]
            advanced = False
            for parent in parents:
                if id(parent) not in visited:
                    visited.add(id(parent))
                    stack.append((parent, iter(parent._parents)))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
        return order

    def zero_grad(self) -> None:
        """Reset accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # ndarray-ish conveniences
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        from repro.tensor import ops

        return ops.transpose(self)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (a view; do not mutate)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_error()

    @staticmethod
    def _item_error() -> float:
        raise ValueError("item() requires a single-element tensor")

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{grad}{label})"

    # ------------------------------------------------------------------
    # Operator overloads (implemented in ops.py to avoid circular logic)
    # ------------------------------------------------------------------

    def __add__(self, other: TensorLike) -> "Tensor":
        from repro.tensor import ops

        return ops.add(self, other)

    __radd__ = __add__

    def __sub__(self, other: TensorLike) -> "Tensor":
        from repro.tensor import ops

        return ops.sub(self, other)

    def __rsub__(self, other: TensorLike) -> "Tensor":
        from repro.tensor import ops

        return ops.sub(other, self)

    def __mul__(self, other: TensorLike) -> "Tensor":
        from repro.tensor import ops

        return ops.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other: TensorLike) -> "Tensor":
        from repro.tensor import ops

        return ops.div(self, other)

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        from repro.tensor import ops

        return ops.div(other, self)

    def __neg__(self) -> "Tensor":
        from repro.tensor import ops

        return ops.neg(self)

    def __pow__(self, exponent: Number) -> "Tensor":
        from repro.tensor import ops

        return ops.power(self, exponent)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        from repro.tensor import ops

        return ops.matmul(self, other)

    def __getitem__(self, index) -> "Tensor":
        from repro.tensor import ops

        return ops.take(self, index)

    # Reductions / shapes as methods for fluency.

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import ops

        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import ops

        return ops.max(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape: int) -> "Tensor":
        from repro.tensor import ops

        return ops.reshape(self, shape)

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        from repro.tensor import ops

        return ops.transpose(self, axes)


def as_tensor(value: TensorLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)
