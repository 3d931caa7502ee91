"""Classification metrics.

The paper evaluates with **micro-averaged F1** (Section 4.3), which for
single-label multi-class prediction equals accuracy; macro-F1 is provided for
the class-imbalance analyses in the extension benches.
"""

from __future__ import annotations

import numpy as np


def _validate(y_true: np.ndarray, y_pred: np.ndarray):
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ValueError(
            f"label arrays must be 1-D and equal-length, got {y_true.shape} "
            f"and {y_pred.shape}"
        )
    if y_true.size == 0:
        raise ValueError("empty label arrays")
    return y_true, y_pred


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true, y_pred = _validate(y_true, y_pred)
    return float((y_true == y_pred).mean())


def confusion_matrix(
    y_true: np.ndarray, y_pred: np.ndarray, num_classes: int | None = None
) -> np.ndarray:
    """``C[i, j]`` = count of class-``i`` nodes predicted as class ``j``."""
    y_true, y_pred = _validate(y_true, y_pred)
    if num_classes is None:
        num_classes = int(max(y_true.max(), y_pred.max())) + 1
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (y_true, y_pred), 1)
    return matrix


def micro_f1(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Micro-averaged F1: pool TP/FP/FN over classes.

    For exhaustive single-label classification, micro-F1 == accuracy; this
    computes it from the pooled counts anyway so the identity is *tested*
    rather than assumed.
    """
    matrix = confusion_matrix(y_true, y_pred)
    tp = np.diag(matrix).sum()
    fp = matrix.sum() - tp  # every off-diagonal entry is one FP and one FN
    fn = fp
    precision = tp / max(tp + fp, 1)
    recall = tp / max(tp + fn, 1)
    if precision + recall == 0:
        return 0.0
    return float(2 * precision * recall / (precision + recall))


def roc_auc(y_true: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve for binary labels vs real-valued scores.

    Computed via the rank-statistic (Mann-Whitney U) formulation, with tie
    handling through midranks.  Used by the link-prediction extension.
    """
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=np.float64)
    if y_true.shape != scores.shape or y_true.ndim != 1:
        raise ValueError("y_true and scores must be equal-length 1-D arrays")
    positives = int((y_true == 1).sum())
    negatives = int((y_true == 0).sum())
    if positives == 0 or negatives == 0:
        raise ValueError("roc_auc needs both positive and negative samples")
    order = np.argsort(scores, kind="stable")
    ranks = np.empty_like(order, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0  # midrank, 1-based
        i = j + 1
    positive_rank_sum = ranks[y_true == 1].sum()
    u_statistic = positive_rank_sum - positives * (positives + 1) / 2.0
    return float(u_statistic / (positives * negatives))


def macro_f1(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Unweighted mean of per-class F1 scores (absent classes score 0)."""
    matrix = confusion_matrix(y_true, y_pred)
    scores = []
    for cls in range(matrix.shape[0]):
        tp = matrix[cls, cls]
        fp = matrix[:, cls].sum() - tp
        fn = matrix[cls, :].sum() - tp
        if matrix[cls, :].sum() == 0 and fp == 0:
            continue  # class absent from both truth and predictions
        denominator = 2 * tp + fp + fn
        scores.append(0.0 if denominator == 0 else 2 * tp / denominator)
    return float(np.mean(scores)) if scores else 0.0
