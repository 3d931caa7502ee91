"""Evaluation tooling: metrics, statistics, t-SNE, and protocol runners."""

from repro.eval.metrics import accuracy, confusion_matrix, macro_f1, micro_f1
from repro.eval.stats import paired_t_test
from repro.eval.tsne import tsne
from repro.eval.clustering import silhouette_score
from repro.eval.protocol import (
    evaluate_inductive,
    evaluate_transductive,
    fit_on_partitions,
)

__all__ = [
    "micro_f1",
    "macro_f1",
    "accuracy",
    "confusion_matrix",
    "paired_t_test",
    "tsne",
    "silhouette_score",
    "evaluate_transductive",
    "evaluate_inductive",
    "fit_on_partitions",
]
