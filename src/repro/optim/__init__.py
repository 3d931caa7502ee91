"""The Adam optimizer and gradient clipping."""

from repro.optim.optimizers import Adam, clip_grad_norm, global_grad_norm

__all__ = [
    "Adam",
    "clip_grad_norm",
    "global_grad_norm",
]
