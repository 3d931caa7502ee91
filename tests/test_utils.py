"""Tests for RNG management and timing utilities."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.obs import Timer, time_call
from repro.utils import RngMixin, new_rng, spawn_rngs


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

    def test_rng_mixin_lazy_and_reseedable(self):
        class Thing(RngMixin):
            pass

        thing = Thing()
        first = thing.rng.integers(0, 100)
        thing.seed(3)
        a = thing.rng.integers(0, 1000, 3)
        thing.seed(3)
        b = thing.rng.integers(0, 1000, 3)
        np.testing.assert_array_equal(a, b)


class TestTimer:
    def test_accumulates_laps(self, monkeypatch):
        from repro.obs import timing

        # The clock the timer reads, scripted: laps of 1, 2 and 4 ms.
        reads = iter([10.0, 10.001, 20.0, 20.002, 30.0, 30.004])
        monkeypatch.setattr(
            timing, "time", SimpleNamespace(perf_counter=lambda: next(reads))
        )
        timer = Timer()
        for _ in range(3):
            with timer:
                pass
        assert timer.laps == pytest.approx([0.001, 0.002, 0.004])
        assert timer.total == pytest.approx(0.007)
        assert timer.mean == pytest.approx(timer.total / 3)

    def test_mean_of_empty_timer(self):
        assert Timer().mean == 0.0

    def test_exit_without_enter_raises(self):
        timer = Timer()
        with pytest.raises(RuntimeError):
            timer.__exit__(None, None, None)

    def test_time_call_returns_result(self):
        elapsed, result = time_call(lambda x: x * 2, 21)
        assert result == 42
        assert elapsed >= 0.0
