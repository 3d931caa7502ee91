"""Shared utilities: deterministic RNG handling."""

from repro.utils.rng import RngMixin, new_rng, spawn_rngs

__all__ = ["RngMixin", "new_rng", "spawn_rngs"]
