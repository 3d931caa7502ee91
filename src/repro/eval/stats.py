"""Statistical significance testing (Table 2/3's paired t-tests)."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def paired_t_test(a: np.ndarray, b: np.ndarray) -> Tuple[float, float]:
    """Two-sided paired t-test between per-run scores of two methods.

    Returns ``(t_statistic, p_value)``.  The paper marks WIDEN's wins with
    p < 0.05 (single underline) and p < 0.01 (double underline) over the best
    baseline, from 5 repeated executions.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"need equal-length 1-D score arrays, got {a.shape}, {b.shape}")
    if a.size < 2:
        raise ValueError("paired t-test needs at least 2 paired scores")
    if np.allclose(a, b):
        return 0.0, 1.0
    from scipy import stats as scipy_stats

    result = scipy_stats.ttest_rel(a, b)
    return float(result.statistic), float(result.pvalue)


def significance_marker(p_value: float) -> str:
    """The paper's marks: ``**`` for p<0.01, ``*`` for p<0.05, else ``''``."""
    if p_value < 0.01:
        return "**"
    if p_value < 0.05:
        return "*"
    return ""
