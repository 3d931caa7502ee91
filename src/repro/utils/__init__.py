"""Shared utilities: deterministic RNG handling, adopting received arrays."""

from repro.utils.arrays import owned
from repro.utils.rng import new_rng, spawn_rngs

__all__ = ["new_rng", "owned", "spawn_rngs"]
