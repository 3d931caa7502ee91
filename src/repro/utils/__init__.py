"""Shared utilities: deterministic RNG handling."""

from repro.utils.rng import new_rng, spawn_rngs

__all__ = ["new_rng", "spawn_rngs"]
