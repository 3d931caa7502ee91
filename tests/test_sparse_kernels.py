"""CSR segment kernels (``gather_mul``/``sddmm``/``segment_softmax``/
``segment_matmul``), the flat-layout helpers in ``repro.core.packing``, and
the guarantee that which kernels run is decided by the batch alone.

The kernels' contract is twofold: analytic backwards must match central
differences (every op, every pairing mode), and the segment formulation
must reproduce the padded ``masked_softmax`` grids bit-for-bit on the
valid slots — the sparse forward path's 1e-10 equivalence guarantee
(:mod:`tests.test_sparse_forward`) rests on these unit facts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.packing import (
    causal_pairs,
    flat_slot_indices,
    segment_ids,
    segment_offsets,
)
from repro.tensor import functional as F
from repro.tensor import ops
from repro.tensor.tensor import Tensor
from tests.helpers import check_gradients

OFFSETS = np.array([0, 3, 4, 7])  # three segments: lengths 3, 1, 3


# ----------------------------------------------------------------------
# Gradient checks: analytic backward vs central differences
# ----------------------------------------------------------------------


class TestKernelGradients:
    def test_gather_mul(self, rng):
        index = np.array([0, 2, 1, 2, 0])

        def fn(a, edges):
            out = ops.gather_mul(a, index, edges)
            return (out * out).sum()

        check_gradients(
            fn, [rng.normal(size=(3, 4)), rng.normal(size=(5, 4))]
        )

    def test_gather_mul_with_dropout_mask(self, rng):
        index = np.array([1, 1, 0])
        mask = rng.integers(0, 2, size=(3, 4)).astype(float) * 2.0

        def fn(a, edges):
            out = ops.gather_mul(a, index, edges, dropout_mask=mask)
            return (out * out).sum()

        check_gradients(
            fn, [rng.normal(size=(2, 4)), rng.normal(size=(3, 4))]
        )

    def test_sddmm_identity_pairing(self, rng):
        rows = np.array([0, 2, 1, 0, 2])

        def fn(a, b):
            return (ops.sddmm(a, b, rows) ** 2).sum()

        check_gradients(
            fn, [rng.normal(size=(3, 4)), rng.normal(size=(5, 4))]
        )

    def test_sddmm_explicit_cols(self, rng):
        rows = np.array([0, 0, 1, 2, 2, 2])
        cols = np.array([1, 3, 0, 2, 3, 1])

        def fn(a, b):
            return (ops.sddmm(a, b, rows, cols) ** 2).sum()

        check_gradients(
            fn, [rng.normal(size=(3, 4)), rng.normal(size=(4, 4))]
        )

    def test_segment_softmax(self, rng):
        def fn(a):
            out = ops.segment_softmax(a, OFFSETS)
            return (out * out).sum()

        check_gradients(fn, [rng.normal(size=7)])

    def test_segment_softmax_with_scale(self, rng):
        def fn(a):
            out = ops.segment_softmax(a, OFFSETS, scale=2.0)
            return (out * out).sum()

        check_gradients(fn, [rng.normal(size=7)])

    def test_segment_matmul_identity_pairing(self, rng):
        def fn(weights, values):
            out = ops.segment_matmul(weights, values, None, OFFSETS)
            return (out * out).sum()

        check_gradients(
            fn, [rng.normal(size=7), rng.normal(size=(7, 4))]
        )

    def test_segment_matmul_explicit_cols(self, rng):
        cols = np.array([0, 1, 2, 2, 0, 1, 2])

        def fn(weights, values):
            out = ops.segment_matmul(weights, values, cols, OFFSETS)
            return (out * out).sum()

        check_gradients(
            fn, [rng.normal(size=7), rng.normal(size=(3, 4))]
        )


# ----------------------------------------------------------------------
# Forward semantics vs the padded reference
# ----------------------------------------------------------------------


class TestKernelForward:
    def test_segment_softmax_sums_to_one_per_segment(self, rng):
        out = ops.segment_softmax(Tensor(rng.normal(size=7)), OFFSETS)
        starts = OFFSETS[:-1]
        sums = np.add.reduceat(out.data, starts)
        np.testing.assert_allclose(sums, np.ones(3), atol=1e-12)

    def test_segment_softmax_matches_masked_softmax(self, rng):
        lengths = np.diff(OFFSETS)
        width = int(lengths.max())
        flat = rng.normal(size=7)
        padded = np.zeros((3, width))
        mask = np.full((3, width), float("-inf"))
        for s in range(3):
            padded[s, : lengths[s]] = flat[OFFSETS[s] : OFFSETS[s + 1]]
            mask[s, : lengths[s]] = 0.0
        sparse = ops.segment_softmax(Tensor(flat), OFFSETS, scale=1.7)
        dense = F.masked_softmax(Tensor(padded), mask, scale=1.7)
        for s in range(3):
            np.testing.assert_array_equal(
                sparse.data[OFFSETS[s] : OFFSETS[s + 1]],
                dense.data[s, : lengths[s]],
            )
            np.testing.assert_array_equal(dense.data[s, lengths[s] :], 0.0)

    def test_sddmm_matches_dense_rowwise_dots(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(5, 4))
        rows = np.array([2, 0, 1, 2, 0])
        out = ops.sddmm(Tensor(a), Tensor(b), rows)
        np.testing.assert_allclose(
            out.data, np.einsum("pd,pd->p", a[rows], b), atol=1e-15
        )

    def test_segment_matmul_matches_per_segment_weighted_sum(self, rng):
        weights = rng.normal(size=7)
        values = rng.normal(size=(7, 4))
        out = ops.segment_matmul(Tensor(weights), Tensor(values), None, OFFSETS)
        for s in range(3):
            lo, hi = OFFSETS[s], OFFSETS[s + 1]
            np.testing.assert_allclose(
                out.data[s], weights[lo:hi] @ values[lo:hi], atol=1e-14
            )

    def test_empty_segments_rejected(self, rng):
        bad = np.array([0, 3, 3, 7])  # middle segment empty: reduceat breaks
        with pytest.raises(ValueError):
            ops.segment_softmax(Tensor(rng.normal(size=7)), bad)

    def test_gather_mul_is_gather_times_edges(self, rng):
        a = rng.normal(size=(3, 4))
        edges = rng.normal(size=(5, 4))
        index = np.array([0, 2, 2, 1, 0])
        out = ops.gather_mul(Tensor(a), index, Tensor(edges))
        np.testing.assert_array_equal(out.data, a[index] * edges)


class TestKernelProfiling:
    def test_profiler_counts_and_flops_for_segment_ops(self, rng):
        from repro.obs import OpProfiler

        a = Tensor(rng.normal(size=(3, 4)))
        edges = Tensor(rng.normal(size=(7, 4)))
        index = np.array([0, 1, 2, 0, 1, 2, 0])
        with OpProfiler() as prof:
            packs = ops.gather_mul(a, index, edges)
            scores = ops.sddmm(packs, packs, np.arange(7))
            weights = ops.segment_softmax(scores, OFFSETS, scale=2.0)
            ops.segment_matmul(weights, packs, None, OFFSETS)
        for name in ("gather_mul", "sddmm", "segment_softmax",
                     "segment_matmul"):
            stat = prof.stats[name]
            assert stat.calls == 1
            assert stat.flops > 0, f"{name} has no FLOP estimate"
        # sddmm: one length-d dot per pair; segment_matmul: scale+add of a
        # length-d row per pair.
        assert prof.stats["sddmm"].flops == 2.0 * 7 * 4
        assert prof.stats["segment_matmul"].flops == 2.0 * 7 * 4


# ----------------------------------------------------------------------
# Flat-layout helpers in repro.core.packing
# ----------------------------------------------------------------------


class TestPackingHelpers:
    def test_segment_offsets_and_ids_roundtrip(self):
        lengths = np.array([3, 1, 3])
        offsets = segment_offsets(lengths)
        np.testing.assert_array_equal(offsets, OFFSETS)
        np.testing.assert_array_equal(
            segment_ids(offsets), np.array([0, 0, 0, 1, 2, 2, 2])
        )

    def test_causal_pairs_match_tril_grid(self):
        # Padded reference: row i of a segment [lo, hi) attends cols i..hi-1
        # (Θ masks tril(k=-1); information flows from the walk's end back).
        rows, cols, pair_offsets = causal_pairs(np.array([0, 2, 5]))
        want = []  # (row, col) in flat coordinates, row-major
        for lo, hi in ((0, 2), (2, 5)):
            for i in range(lo, hi):
                for j in range(i, hi):
                    want.append((i, j))
        np.testing.assert_array_equal(rows, [p[0] for p in want])
        np.testing.assert_array_equal(cols, [p[1] for p in want])
        # One softmax segment per flat row, each of length (hi - i).
        np.testing.assert_array_equal(np.diff(pair_offsets), [2, 1, 3, 2, 1])

    def test_flat_slot_indices_pick_valid_block_slots(self):
        lengths = np.array([2, 3])
        starts = np.array([0, 4])  # capacity-4 blocks
        indices, offsets = flat_slot_indices(lengths, starts)
        np.testing.assert_array_equal(indices, [0, 1, 4, 5, 6])
        np.testing.assert_array_equal(offsets, [0, 2, 5])


# ----------------------------------------------------------------------
# Kernel choice reads the batch, never the host
# ----------------------------------------------------------------------

_HERMETIC_CHECK = """
import repro.tensor
from repro.core import WidenClassifier, packing
from repro.datasets import make_acm
from repro.obs import MetricsRegistry, set_registry
from repro.tensor import ops

assert ops.SCATTER_SPARSE_MIN_ROWS == 64, ops.SCATTER_SPARSE_MIN_ROWS
assert ops.SCATTER_DENSE_MAX_CELLS == 65536, ops.SCATTER_DENSE_MAX_CELLS
assert packing.SPARSE_MIN_WASTE == 0.5, packing.SPARSE_MIN_WASTE
dataset = make_acm(seed=0, scale=0.3)
registry = MetricsRegistry()
set_registry(registry)
WidenClassifier(seed=0).fit(dataset.graph, dataset.split.train[:32], epochs=1)
routed = {
    layout: registry.counter("pack_batches_total", layout=layout).value
    for layout in ("padded", "sparse")
}
assert routed["padded"] > 0 and routed["sparse"] == 0, routed
"""


def test_import_reads_no_host_state(tmp_path):
    """A table in every place one used to be looked up, and garbage in the
    three variables that used to be parsed, change nothing: the thresholds
    are the shipped constants and a default-config minibatch packs padded
    (the table's ``sparse_min_waste`` of 0.0 would send every one to CSR)."""
    table = json.dumps({
        "version": 1,
        "scatter": {"sparse_min_rows": 123, "dense_max_cells": 456},
        "forward": {"sparse_min_waste": 0.0},
    })
    home, cache = tmp_path / "home", tmp_path / "xdg"
    places = (
        home / ".cache" / "repro" / "kernel_table.json",
        cache / "repro" / "kernel_table.json",
        tmp_path / "explicit.json",
    )
    for place in places:
        place.parent.mkdir(parents=True, exist_ok=True)
        place.write_text(table)
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
        HOME=str(home),
        XDG_CACHE_HOME=str(cache),
        REPRO_KERNEL_TABLE=str(places[2]),
        REPRO_SPARSE_MIN_WASTE="garbage",
        REPRO_SCATTER_SPARSE_MIN_ROWS="garbage",
        REPRO_SCATTER_DENSE_MAX_CELLS="garbage",
    )
    done = subprocess.run(
        [sys.executable, "-c", _HERMETIC_CHECK],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
