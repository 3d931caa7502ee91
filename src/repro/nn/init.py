"""Weight initialization schemes."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, new_rng


def xavier_uniform(shape: tuple, rng: SeedLike = None, gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform init for ``(fan_in, fan_out)``-shaped weights."""
    rng = new_rng(rng)
    fan_in, fan_out = _fans(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def normal(shape: tuple, rng: SeedLike = None, std: float = 0.02) -> np.ndarray:
    """Small-variance Gaussian init (embedding tables)."""
    rng = new_rng(rng)
    return rng.normal(0.0, std, size=shape)


def zeros(shape: tuple) -> np.ndarray:
    return np.zeros(shape)


def _fans(shape: tuple) -> tuple:
    if len(shape) < 1:
        raise ValueError("init requires at least a 1-D shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = int(np.prod(shape[:-1]))
    fan_out = shape[-1]
    return fan_in, fan_out
