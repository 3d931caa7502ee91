"""Tests for RNG management."""

import numpy as np

from repro.utils import new_rng, spawn_rngs


class TestRng:
    def test_new_rng_passthrough(self):
        generator = np.random.default_rng(0)
        assert new_rng(generator) is generator

    def test_new_rng_from_seed_deterministic(self):
        a = new_rng(42).integers(0, 1000, 5)
        b = new_rng(42).integers(0, 1000, 5)
        np.testing.assert_array_equal(a, b)

    def test_spawn_rngs_independent_and_deterministic(self):
        first = spawn_rngs(7, 3)
        second = spawn_rngs(7, 3)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.integers(0, 100, 4), b.integers(0, 100, 4))
        # Streams differ from each other.
        draws = [rng.integers(0, 2**31, 8).tolist() for rng in spawn_rngs(7, 3)]
        assert draws[0] != draws[1] != draws[2]

    def test_spawn_count(self):
        assert len(spawn_rngs(0, 5)) == 5
