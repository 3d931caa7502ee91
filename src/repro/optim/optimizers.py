"""The Adam optimizer, plus global-norm gradient clipping.

The paper trains WIDEN with a fixed learning rate (τ = 1e-4) and L2
regularization; Adam's ``weight_decay`` implements the L2 term so models do
not need to add it to their losses.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.nn.module import Parameter


class Adam:
    """Adam (Kingma & Ba, 2015) with bias correction and weight decay, over
    a fixed list of parameters."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.001,
        weight_decay: float = 0.0,
    ) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.weight_decay = weight_decay
        self._step_count = 0
        self._moment1 = [np.zeros_like(p.data) for p in self.parameters]
        self._moment2 = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m1, m2 in zip(self.parameters, self._moment1, self._moment2):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m1 *= self.beta1
            m1 += (1.0 - self.beta1) * grad
            m2 *= self.beta2
            m2 += (1.0 - self.beta2) * grad**2
            param.data -= self.lr * (m1 / bias1) / (np.sqrt(m2 / bias2) + self.eps)

    # -- persistence -----------------------------------------------------
    #
    # Slot arrays are keyed by *position* in the parameter list, which is
    # deterministic (module registration order); the loader checks shapes
    # so a checkpoint from a different architecture fails loudly.

    def state_dict(self) -> dict:
        """Moments and step count — what exact training resume needs.

        The step count drives the bias-correction terms, so restoring the
        moments without it would silently change every post-resume update.
        """
        return {
            "kind": "adam",
            "step_count": int(self._step_count),
            "slots": {
                "moment1": [m.copy() for m in self._moment1],
                "moment2": [m.copy() for m in self._moment2],
            },
        }

    def load_state_dict(self, state: dict) -> None:
        slots = state.get("slots", {})
        for name, current in (("moment1", self._moment1), ("moment2", self._moment2)):
            arrays = slots.get(name)
            if arrays is None:
                continue
            if len(arrays) != len(current):
                raise ValueError(
                    f"optimizer state has {len(arrays)} {name} slots for "
                    f"{len(current)} parameters"
                )
            for target, incoming in zip(current, arrays):
                incoming = np.asarray(incoming, dtype=target.dtype)
                if incoming.shape != target.shape:
                    raise ValueError(
                        f"optimizer {name} slot shape {incoming.shape} does "
                        f"not match parameter shape {target.shape}"
                    )
                np.copyto(target, incoming)
        self._step_count = int(state.get("step_count", 0))


def global_grad_norm(grads: Iterable[Optional[np.ndarray]]) -> float:
    """Global L2 norm over a list of gradient arrays (``None`` entries skip).

    This is the exact summation :func:`clip_grad_norm` performs internally —
    same per-array ``(g**2).sum()``, same Python-float accumulation order —
    so a norm computed here over gathered (and reduced) per-shard gradients
    and passed back as ``clip_grad_norm(..., norm=...)`` clips every replica
    bit-identically to a single process clipping the same gradients itself.
    """
    return float(
        np.sqrt(sum(float((g**2).sum()) for g in grads if g is not None))
    )


def clip_grad_norm(
    parameters: Iterable[Parameter],
    max_norm: float,
    *,
    norm: Optional[float] = None,
) -> float:
    """Scale gradients in place so their global L2 norm is <= ``max_norm``.

    Returns the pre-clipping norm (useful for logging divergence).

    ``norm`` supplies a precomputed global norm instead of measuring the
    local gradients — the distributed-training hook: each shard holds the
    same reduced gradients, but the *clip decision and scale* must come from
    one globally agreed number, or replicas would drift whenever their local
    float summation order differed.
    """
    parameters = [p for p in parameters if p.grad is not None]
    if norm is None:
        total = global_grad_norm(p.grad for p in parameters)
    else:
        total = float(norm)
    if total > max_norm and total > 0:
        scale = max_norm / total
        for param in parameters:
            param.grad *= scale
    return total
