"""Wall-clock timing helpers for the efficiency experiments (Figs. 4-5)."""

from __future__ import annotations

import time
from typing import Callable, List, Tuple


class Timer:
    """Accumulating stopwatch.

    Usage::

        timer = Timer()
        with timer:
            train_one_epoch()
        print(timer.total, timer.laps)
    """

    def __init__(self) -> None:
        self.laps: List[float] = []
        self._start: float | None = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._start is None:
            raise RuntimeError("Timer exited without entering")
        self.laps.append(time.perf_counter() - self._start)
        self._start = None

    @property
    def total(self) -> float:
        return sum(self.laps)

    @property
    def mean(self) -> float:
        return self.total / len(self.laps) if self.laps else 0.0


def time_call(fn: Callable, *args, **kwargs) -> Tuple[float, object]:
    """Run ``fn(*args, **kwargs)`` returning ``(elapsed_seconds, result)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result
