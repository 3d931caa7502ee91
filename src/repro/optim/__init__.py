"""Gradient-descent optimizers and gradient clipping."""

from repro.optim.optimizers import (
    SGD,
    Adam,
    Optimizer,
    clip_grad_norm,
    global_grad_norm,
)

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "global_grad_norm",
]
