"""Gradient-descent optimizers and gradient clipping."""

from repro.optim.optimizers import (
    Adam,
    Optimizer,
    clip_grad_norm,
    global_grad_norm,
)

__all__ = [
    "Optimizer",
    "Adam",
    "clip_grad_norm",
    "global_grad_norm",
]
