"""Micro-sweeps behind ``tune-kernels``: scatter-add backend crossovers and
the padded-vs-sparse forward crossover.

The backward of the batched gather kernels picks between three scatter-add
backends (:func:`repro.tensor.ops._scatter_add_rows`): ``np.add.at`` for
tiny scatters, a dense one-hot gemm when the selector fits in
``dense_max_cells``, and a flat element-level ``np.bincount`` otherwise.
The shipped crossover points were measured on one reference machine; this
module re-measures them on *this* machine; ``tune-kernels`` persists the
result and prints the ``REPRO_SCATTER_*`` environment settings that make
the defaults match.

The sweep times each backend directly (not through the dispatcher), so the
currently-active thresholds never bias the measurement.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.tensor.ops import (
    _SCATTER_DEFAULTS,
    get_scatter_thresholds,
    set_scatter_thresholds,
)

ENV_VARS = {
    "sparse_min_rows": "REPRO_SCATTER_SPARSE_MIN_ROWS",
    "dense_max_cells": "REPRO_SCATTER_DENSE_MAX_CELLS",
}

# Gathered-row counts around the expected ufunc/vectorized crossover (a few
# dozen rows) and destination sizes bracketing the gemm/bincount handoff.
SPARSE_SWEEP_M = (4, 8, 16, 32, 64, 128, 256)
DENSE_SWEEP_ROWS = (8, 32, 128, 512, 2048)


def _scatter_ufunc(num_rows: int, index: np.ndarray, grad: np.ndarray) -> np.ndarray:
    out = np.zeros((num_rows, grad.shape[1]), dtype=grad.dtype)
    np.add.at(out, index, grad)
    return out


def _scatter_dense(num_rows: int, index: np.ndarray, grad: np.ndarray) -> np.ndarray:
    onehot = np.zeros((index.size, num_rows))
    onehot[np.arange(index.size), index] = 1.0
    return onehot.T @ grad


def _scatter_bincount(num_rows: int, index: np.ndarray, grad: np.ndarray) -> np.ndarray:
    d = grad.shape[1]
    element_index = (index[:, np.newaxis] * d + np.arange(d)).ravel()
    return np.bincount(
        element_index, weights=grad.ravel(), minlength=num_rows * d
    ).reshape(num_rows, d)


_BACKENDS = {
    "ufunc": _scatter_ufunc,
    "dense": _scatter_dense,
    "bincount": _scatter_bincount,
}


def _time_backend(
    backend: str, num_rows: int, m: int, dim: int, repeats: int, rng: np.random.Generator
) -> float:
    """Median wall time of one backend at one shape (seconds)."""
    fn = _BACKENDS[backend]
    index = rng.integers(0, num_rows, size=m)
    grad = rng.standard_normal((m, dim))
    fn(num_rows, index, grad)  # warm up (allocator, BLAS thread pool)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(num_rows, index, grad)
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def sweep_sparse_min_rows(
    dim: int = 64, num_rows: int = 4096, repeats: int = 30, rng: Optional[np.random.Generator] = None
) -> List[Dict[str, float]]:
    """Time ufunc vs. the best vectorized backend across gathered-row counts.

    ``num_rows`` is large enough that the dense path is out of budget at
    every swept ``m``, matching the hot gather shapes (node-feature rows),
    so "vectorized" here means bincount.
    """
    rng = rng or np.random.default_rng(0)
    rows = []
    for m in SPARSE_SWEEP_M:
        ufunc = _time_backend("ufunc", num_rows, m, dim, repeats, rng)
        bincount = _time_backend("bincount", num_rows, m, dim, repeats, rng)
        rows.append(
            {
                "m": m,
                "ufunc_s": ufunc,
                "bincount_s": bincount,
                "winner": "bincount" if bincount < ufunc else "ufunc",
            }
        )
    return rows


def sweep_dense_max_cells(
    dim: int = 64, m: int = 256, repeats: int = 30, rng: Optional[np.random.Generator] = None
) -> List[Dict[str, float]]:
    """Time dense gemm vs. bincount across destination sizes.

    Small destinations are the edge-type-table backward; large ones are the
    node-feature backward where the one-hot selector stops paying for
    itself.
    """
    rng = rng or np.random.default_rng(1)
    rows = []
    for num_rows in DENSE_SWEEP_ROWS:
        dense = _time_backend("dense", num_rows, m, dim, repeats, rng)
        bincount = _time_backend("bincount", num_rows, m, dim, repeats, rng)
        rows.append(
            {
                "num_rows": num_rows,
                "m": m,
                "cells": num_rows * m,
                "dense_s": dense,
                "bincount_s": bincount,
                "winner": "dense" if dense < bincount else "bincount",
            }
        )
    return rows


def recommend(sparse_rows: List[dict], dense_rows: List[dict]) -> Dict[str, int]:
    """Crossover thresholds implied by the sweep, defaults as fallback.

    ``sparse_min_rows`` is the smallest swept ``m`` from which bincount
    wins at every larger size (a single noisy win below the real crossover
    must not drag the threshold down).  ``dense_max_cells`` is the largest
    one-hot size at which the gemm still won.
    """
    sparse_min_rows = _SCATTER_DEFAULTS["sparse_min_rows"]
    for i, row in enumerate(sparse_rows):
        if all(r["winner"] == "bincount" for r in sparse_rows[i:]):
            sparse_min_rows = int(row["m"])
            break
    else:
        # ufunc never loses its lead at the swept sizes: disable the
        # vectorized paths for everything below the largest swept size.
        sparse_min_rows = int(sparse_rows[-1]["m"]) * 2
    dense_wins = [r["cells"] for r in dense_rows if r["winner"] == "dense"]
    dense_max_cells = int(max(dense_wins)) if dense_wins else 0
    return {"sparse_min_rows": sparse_min_rows, "dense_max_cells": dense_max_cells}


def run_tuning(
    dim: int = 64, repeats: int = 30, apply: bool = False
) -> Dict[str, object]:
    """Full sweep + recommendation; optionally applies it to this process."""
    sparse_rows = sweep_sparse_min_rows(dim=dim, repeats=repeats)
    dense_rows = sweep_dense_max_cells(dim=dim, repeats=repeats)
    recommended = recommend(sparse_rows, dense_rows)
    report = {
        "dim": dim,
        "repeats": repeats,
        "defaults": dict(_SCATTER_DEFAULTS),
        "active_before": get_scatter_thresholds(),
        "sparse_sweep": sparse_rows,
        "dense_sweep": dense_rows,
        "recommended": recommended,
    }
    if apply:
        report["active_after"] = set_scatter_thresholds(**recommended)
    return report


# ----------------------------------------------------------------------
# Padded vs sparse forward crossover
# ----------------------------------------------------------------------
#
# The minibatch path's kernel choice needs one number per host: the
# padding-waste fraction at which the CSR segment kernels overtake the
# padded-grid attention.  The sweep times a representative attention stage
# (key/value projection, scoring, softmax, weighted aggregation) both ways
# over the same segment geometry at several waste levels.

WASTE_SWEEP = (0.0, 0.2, 0.35, 0.5, 0.65, 0.8)
_FORWARD_BATCH = 64
_FORWARD_WIDTH = 24


def _waste_lengths(
    batch: int, width: int, waste: float, rng: np.random.Generator
) -> np.ndarray:
    """Segment lengths whose padded grid wastes ~``waste`` of its slots."""
    target_mean = max(1.0, (1.0 - waste) * width)
    lengths = np.clip(
        rng.poisson(target_mean, batch), 1, width
    ).astype(np.int64)
    # Pin one segment to the full width so the padded grid is `width` wide
    # regardless of the draw — that is what skew does on real graphs.
    lengths[int(rng.integers(batch))] = width
    return lengths


def _time_forward(run, repeats: int) -> float:
    run()  # warm up (allocator, BLAS thread pool)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def sweep_forward_crossover(
    dim: int = 64,
    batch: int = _FORWARD_BATCH,
    width: int = _FORWARD_WIDTH,
    repeats: int = 30,
    rng: Optional[np.random.Generator] = None,
) -> List[Dict[str, float]]:
    """Time the padded vs sparse attention stage across waste levels."""
    from repro.tensor import functional as functional_mod
    from repro.tensor import ops as ops_mod
    from repro.tensor.tensor import Tensor, no_grad

    rng = rng or np.random.default_rng(2)
    w_key = rng.standard_normal((dim, dim))
    w_value = rng.standard_normal((dim, dim))
    rows = []
    for waste in WASTE_SWEEP:
        lengths = _waste_lengths(batch, width, waste, rng)
        offsets = np.zeros(batch + 1, np.int64)
        np.cumsum(lengths, out=offsets[1:])
        total = int(offsets[-1])
        flat = rng.standard_normal((total, dim))
        query = rng.standard_normal((batch, dim))
        seg_ids = np.repeat(np.arange(batch, dtype=np.int64), lengths)
        # Padded operands, identical convention to pack_batch: zero rows
        # beyond each segment's length, additive -inf mask.
        padded = np.zeros((batch, width, dim))
        valid = np.arange(width) < lengths[:, np.newaxis]
        padded[valid] = flat
        mask = np.where(valid, 0.0, -np.inf)[:, np.newaxis, :]
        scale = np.sqrt(dim)

        def run_padded():
            with no_grad():
                packs = Tensor(padded)
                k = ops_mod.matmul(packs, Tensor(w_key))
                v = ops_mod.matmul(packs, Tensor(w_value))
                q = Tensor(query[:, np.newaxis, :])
                scores = ops_mod.matmul(q, k, transpose_b=True)
                weights = functional_mod.masked_softmax(
                    scores, mask, scale=scale
                )
                ops_mod.matmul(weights, v)

        def run_sparse():
            with no_grad():
                packs = Tensor(flat)
                k = ops_mod.matmul(packs, Tensor(w_key))
                v = ops_mod.matmul(packs, Tensor(w_value))
                scores = ops_mod.sddmm(Tensor(query), k, seg_ids)
                weights = ops_mod.segment_softmax(scores, offsets, scale=scale)
                ops_mod.segment_matmul(weights, v, None, offsets)

        achieved = 1.0 - total / (batch * width)
        rows.append(
            {
                "waste": float(achieved),
                "target_waste": float(waste),
                "padded_s": _time_forward(run_padded, repeats),
                "sparse_s": _time_forward(run_sparse, repeats),
            }
        )
    rows.sort(key=lambda row: row["waste"])
    return rows


def recommend_forward(rows: List[dict]) -> float:
    """``sparse_min_waste`` implied by the sweep.

    The smallest swept waste from which sparse wins at every higher level
    — one noisy win below the real crossover must not route near-uniform
    batches off the gemm path.  1.0 (never) when sparse never sustains a
    win; 0.0 (always) when it wins everywhere.
    """
    for i, row in enumerate(rows):
        if all(r["sparse_s"] < r["padded_s"] for r in rows[i:]):
            return float(row["waste"])
    return 1.0
