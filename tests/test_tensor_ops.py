"""Unit tests for the autograd engine's primitive operations.

Every op gets (a) a forward-value check against numpy and (b) a gradient
check against central differences via ``tests.helpers.check_gradients``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.tensor import Tensor, no_grad
from repro.tensor import ops
from tests.helpers import check_gradients


class TestElementwise:
    def test_add_forward(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        out = ops.add(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, a + b)

    def test_add_grad(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        check_gradients(lambda x, y: (x + y).sum(), [a, b])

    def test_add_broadcast_grad(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4,))
        check_gradients(lambda x, y: (x + y).sum(), [a, b])

    def test_add_scalar_broadcast_grad(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(1, 1))
        check_gradients(lambda x, y: (x + y).sum(), [a, b])

    def test_sub_grad(self, rng):
        a, b = rng.normal(size=(2, 5)), rng.normal(size=(2, 5))
        check_gradients(lambda x, y: (x - y).sum(), [a, b])

    def test_mul_grad(self, rng):
        a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        check_gradients(lambda x, y: (x * y).sum(), [a, b])

    def test_mul_broadcast_row(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(1, 4))
        check_gradients(lambda x, y: (x * y).sum(), [a, b])

    def test_div_grad(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.uniform(1.0, 2.0, size=(3, 4))
        check_gradients(lambda x, y: (x / y).sum(), [a, b])

    def test_neg_grad(self, rng):
        a = rng.normal(size=(4,))
        check_gradients(lambda x: (-x).sum(), [a])

    def test_power_grad(self, rng):
        a = rng.uniform(0.5, 2.0, size=(3, 3))
        check_gradients(lambda x: (x**3).sum(), [a])

    def test_exp_grad(self, rng):
        a = rng.normal(size=(3, 3))
        check_gradients(lambda x: ops.exp(x).sum(), [a])

    def test_log_grad(self, rng):
        a = rng.uniform(0.5, 3.0, size=(3, 3))
        check_gradients(lambda x: ops.log(x).sum(), [a])

    def test_sqrt_grad(self, rng):
        a = rng.uniform(0.5, 3.0, size=(4,))
        check_gradients(lambda x: ops.sqrt(x).sum(), [a])

    def test_tanh_grad(self, rng):
        a = rng.normal(size=(3, 3))
        check_gradients(lambda x: ops.tanh(x).sum(), [a])

    def test_sigmoid_forward_extremes(self):
        out = ops.sigmoid(Tensor(np.array([-1000.0, 0.0, 1000.0])))
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)

    def test_sigmoid_grad(self, rng):
        a = rng.normal(size=(3, 3))
        check_gradients(lambda x: ops.sigmoid(x).sum(), [a])

    def test_relu_forward(self):
        out = ops.relu(Tensor(np.array([-2.0, 0.0, 3.0])))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 3.0])

    def test_relu_grad(self, rng):
        # Keep values away from the kink so central differences are valid.
        a = rng.normal(size=(4, 4))
        a[np.abs(a) < 0.1] = 0.5
        check_gradients(lambda x: ops.relu(x).sum(), [a])

    def test_leaky_relu_grad(self, rng):
        a = rng.normal(size=(4, 4))
        a[np.abs(a) < 0.1] = 0.5
        check_gradients(lambda x: ops.leaky_relu(x, 0.2).sum(), [a])

    def test_maximum_forward(self):
        a = Tensor(np.array([1.0, 5.0, 2.0]))
        b = Tensor(np.array([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(ops.maximum(a, b).data, [3.0, 5.0, 2.0])

    def test_maximum_grad_routing(self, rng):
        a = rng.normal(size=(5,))
        b = rng.normal(size=(5,))
        # Avoid exact ties, where the subgradient is ambiguous.
        b = b + 0.321
        check_gradients(lambda x, y: ops.maximum(x, y).sum(), [a, b])


class TestReductions:
    def test_sum_all(self, rng):
        a = rng.normal(size=(3, 4))
        check_gradients(lambda x: x.sum(), [a])

    def test_sum_axis0(self, rng):
        a = rng.normal(size=(3, 4))
        check_gradients(lambda x: x.sum(axis=0).sum(), [a])

    def test_sum_axis_keepdims(self, rng):
        a = rng.normal(size=(3, 4))
        check_gradients(lambda x: x.sum(axis=1, keepdims=True).sum(), [a])

    def test_mean_all(self, rng):
        a = rng.normal(size=(3, 4))
        check_gradients(lambda x: x.mean(), [a])

    def test_mean_axis(self, rng):
        a = rng.normal(size=(3, 4))
        check_gradients(lambda x: x.mean(axis=1).sum(), [a])

    def test_max_forward(self, rng):
        a = rng.normal(size=(3, 4))
        out = ops.max(Tensor(a), axis=1)
        np.testing.assert_allclose(out.data, a.max(axis=1))

    def test_max_grad(self, rng):
        a = rng.normal(size=(3, 4))  # distinct values almost surely
        check_gradients(lambda x: ops.max(x, axis=1).sum(), [a])

    def test_max_grad_ties_split(self):
        a = Tensor(np.array([[2.0, 2.0, 1.0]]), requires_grad=True)
        ops.max(a, axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.5, 0.5, 0.0]])


class TestLinearAlgebra:
    def test_matmul_forward(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        out = ops.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, a @ b)

    def test_matmul_grad(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        check_gradients(lambda x, y: (x @ y).sum(), [a, b])

    def test_matmul_vector_matrix(self, rng):
        a, b = rng.normal(size=(4,)), rng.normal(size=(4, 5))
        check_gradients(lambda x, y: (x @ y).sum(), [a, b])

    def test_matmul_matrix_vector(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4,))
        check_gradients(lambda x, y: (x @ y).sum(), [a, b])

    def test_transpose_grad(self, rng):
        a = rng.normal(size=(3, 4))
        check_gradients(lambda x: (x.T * 2.0).sum(), [a])

    def test_transpose_axes(self, rng):
        a = rng.normal(size=(2, 3, 4))
        out = ops.transpose(Tensor(a), (2, 0, 1))
        assert out.shape == (4, 2, 3)
        check_gradients(lambda x: ops.transpose(x, (2, 0, 1)).sum(), [a])

    def test_reshape_grad(self, rng):
        a = rng.normal(size=(3, 4))
        check_gradients(lambda x: (x.reshape(2, 6) * 3.0).sum(), [a])


class TestShapeOps:
    def test_concat_forward(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
        out = ops.concat([Tensor(a), Tensor(b)], axis=0)
        np.testing.assert_allclose(out.data, np.concatenate([a, b]))

    def test_concat_grad(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
        check_gradients(lambda x, y: (ops.concat([x, y], axis=0) ** 2).sum(), [a, b])

    def test_concat_axis1_grad(self, rng):
        a, b = rng.normal(size=(3, 2)), rng.normal(size=(3, 5))
        check_gradients(lambda x, y: (ops.concat([x, y], axis=1) ** 2).sum(), [a, b])

    def test_stack_grad(self, rng):
        a, b = rng.normal(size=(3,)), rng.normal(size=(3,))
        check_gradients(lambda x, y: (ops.stack([x, y]) ** 2).sum(), [a, b])

    def test_take_row_grad(self, rng):
        a = rng.normal(size=(5, 3))
        check_gradients(lambda x: (x[2] ** 2).sum(), [a])

    def test_take_repeated_indices_accumulates(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        out = ops.take(a, np.array([0, 0, 1]))
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [[2.0, 2.0], [1.0, 1.0], [0.0, 0.0]])

    def test_embedding_lookup_grad(self, rng):
        weight = rng.normal(size=(6, 4))
        indices = np.array([1, 1, 3, 5])

        def fn(w):
            return (ops.embedding_lookup(w, indices) ** 2).sum()

        check_gradients(fn, [weight])

    def test_slice_grad(self, rng):
        a = rng.normal(size=(5, 3))
        check_gradients(lambda x: (ops.slice(x, 1, 4, axis=0) ** 2).sum(), [a])

    def test_slice_axis1(self, rng):
        a = rng.normal(size=(3, 6))
        out = ops.slice(Tensor(a), 2, 5, axis=1)
        np.testing.assert_allclose(out.data, a[:, 2:5])


class TestFusedGatherScatter:
    """The batched forward path's fused kernels (pad_gather / scatter_rows)."""

    def test_pad_gather_forward(self, rng):
        a = rng.normal(size=(5, 3))
        index = np.array([[0, 2, 0], [4, 1, 0]])
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        out = ops.pad_gather(Tensor(a), index, mask)
        assert out.shape == (2, 3, 3)
        np.testing.assert_allclose(out.data[0, 0], a[0])
        np.testing.assert_allclose(out.data[0, 2], 0.0)  # padded slot is zero
        np.testing.assert_allclose(out.data[1, 1], 0.0)

    def test_pad_gather_grad(self, rng):
        a = rng.normal(size=(6, 4))
        # Repeated indices must accumulate; padded slots must contribute 0.
        index = np.array([[0, 3, 3], [5, 0, 1]])
        mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        check_gradients(
            lambda x: (ops.pad_gather(x, index, mask) ** 2).sum(), [a]
        )

    def test_pad_gather_padded_rows_get_no_grad(self, rng):
        a = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        index = np.array([[1, 2]])
        mask = np.array([[1.0, 0.0]])
        ops.pad_gather(a, index, mask).sum().backward()
        np.testing.assert_allclose(a.grad[2], 0.0)  # masked-out gather
        np.testing.assert_allclose(a.grad[1], 1.0)

    def test_scatter_rows_forward(self, rng):
        base = rng.normal(size=(5, 3))
        rows = rng.normal(size=(2, 3))
        index = np.array([1, 4])
        out = ops.scatter_rows(Tensor(base), index, Tensor(rows))
        np.testing.assert_allclose(out.data[1], rows[0])
        np.testing.assert_allclose(out.data[4], rows[1])
        np.testing.assert_allclose(out.data[0], base[0])
        np.testing.assert_allclose(base[1], base[1])  # base untouched

    def test_scatter_rows_grad(self, rng):
        base = rng.normal(size=(5, 3))
        rows = rng.normal(size=(2, 3))
        index = np.array([0, 3])
        check_gradients(
            lambda b, r: (ops.scatter_rows(b, index, r) ** 2).sum(),
            [base, rows],
        )

    def test_scatter_rows_replaced_base_rows_get_no_grad(self, rng):
        base = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        rows = Tensor(rng.normal(size=(1, 2)), requires_grad=True)
        ops.scatter_rows(base, np.array([2]), rows).sum().backward()
        np.testing.assert_allclose(base.grad[2], 0.0)  # overwritten row
        np.testing.assert_allclose(base.grad[0], 1.0)
        np.testing.assert_allclose(rows.grad, 1.0)

    def test_scatter_rows_shape_mismatch_rejected(self, rng):
        base = Tensor(rng.normal(size=(4, 3)))
        rows = Tensor(rng.normal(size=(2, 2)))
        with pytest.raises(ValueError):
            ops.scatter_rows(base, np.array([0, 1]), rows)


class TestGraphMechanics:
    def test_grad_accumulates_across_uses(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        out = a * 3.0 + a * 4.0
        out.backward(np.array([1.0]))
        np.testing.assert_allclose(a.grad, [7.0])

    def test_diamond_graph(self):
        a = Tensor(np.array([3.0]), requires_grad=True)
        b = a * 2.0
        c = a + 1.0
        (b * c).backward(np.array([1.0]))
        # d/da (2a * (a+1)) = 4a + 2
        np.testing.assert_allclose(a.grad, [14.0])

    def test_no_grad_blocks_recording(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad
        with pytest.raises(RuntimeError):
            out.backward()

    def test_backward_on_non_scalar_needs_seed(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        out = a * 2.0
        with pytest.raises(RuntimeError):
            out.backward()
        out.backward(np.ones((2, 2)))
        np.testing.assert_allclose(a.grad, 2 * np.ones((2, 2)))

    def test_int_tensor_cannot_require_grad(self):
        with pytest.raises(TypeError):
            Tensor(np.array([1, 2, 3]), requires_grad=True)

    def test_deep_chain_no_recursion_error(self):
        # Topological sort is iterative; 5000-op chains must not blow the stack.
        a = Tensor(np.array([1.0]), requires_grad=True)
        out = a
        for _ in range(5000):
            out = out + 0.001
        out.backward(np.array([1.0]))
        np.testing.assert_allclose(a.grad, [1.0])

    def test_zero_grad(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        (a * 2.0).backward(np.array([1.0]))
        assert a.grad is not None
        a.zero_grad()
        assert a.grad is None

    def test_item_and_shape_properties(self, rng):
        a = Tensor(rng.normal(size=(2, 3)))
        assert a.shape == (2, 3)
        assert a.ndim == 2
        assert a.size == 6
        assert len(a) == 2
        scalar = Tensor(np.array(4.5))
        assert scalar.item() == pytest.approx(4.5)
        with pytest.raises(ValueError):
            a.item()

    def test_accumulate_grad_shape_mismatch_raises(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            a.accumulate_grad(np.ones((3, 3)))


class TestScatterThresholds:
    """The scatter-add backward's three backends, reached by shape."""

    @pytest.mark.parametrize(
        "thresholds",
        [
            # (num_rows, index shape, m >= SCATTER_SPARSE_MIN_ROWS,
            #  num_rows * m <= SCATTER_DENSE_MAX_CELLS)
            (6, (5, 4), False, True),  # np.add.at, the reference backend
            (6, (16, 4), True, True),  # the dense one-hot gemm
            (2048, (16, 4), True, False),  # the flat bincount
        ],
    )
    def test_backends_agree_with_reference(self, rng, thresholds):
        num_rows, shape, clears_min_rows, fits_max_cells = thresholds
        m = int(np.prod(shape))
        # Through the shipped dispatcher: the shape itself picks the backend.
        assert (m >= ops.SCATTER_SPARSE_MIN_ROWS) == clears_min_rows
        assert (num_rows * m <= ops.SCATTER_DENSE_MAX_CELLS) == fits_max_cells
        index = rng.integers(0, num_rows, size=shape)
        grad = rng.normal(size=shape + (3,))
        weights = rng.normal(size=shape)
        want = np.zeros((num_rows, 3))
        np.add.at(
            want, index.ravel(),
            grad.reshape(-1, 3) * weights.ravel()[:, None],
        )
        got = ops._scatter_add_rows(num_rows, index, grad, weights=weights)
        np.testing.assert_allclose(got, want, atol=1e-12)


_HERMETIC_CHECK = """
from repro.core import WidenClassifier
from repro.core.packing import pack_batch
from repro.datasets import make_acm
from repro.tensor import ops

assert ops.SCATTER_SPARSE_MIN_ROWS == 64, ops.SCATTER_SPARSE_MIN_ROWS
assert ops.SCATTER_DENSE_MAX_CELLS == 65536, ops.SCATTER_DENSE_MAX_CELLS
dataset = make_acm(seed=0, scale=0.3)
nodes = dataset.split.train[:32]
classifier = WidenClassifier(seed=0).fit(dataset.graph, nodes, epochs=1)
pack = pack_batch(
    classifier.trainer.store.batch(nodes), dataset.graph, classifier.config
)
assert pack.wide_valid.shape == pack.wide_index.shape == (32, 11), pack.wide_index.shape
assert pack.deep_valid.shape == pack.deep_index.shape, pack.deep_index.shape
"""


def test_import_reads_no_host_state(tmp_path):
    """A table in every place one used to be looked up, and garbage in the
    variables that used to be parsed, change nothing: the scatter
    thresholds are the shipped constants and a default-config minibatch
    trains and packs as padded grids."""
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


class TestGradModeThreadLocal:
    """no_grad() scoping is per-thread (shard workers vs training loop)."""

    def test_no_grad_in_main_does_not_leak_to_worker(self):
        import threading

        from repro.tensor.tensor import is_grad_enabled

        seen = {}

        def worker():
            seen["enabled"] = is_grad_enabled()

        with no_grad():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["enabled"] is True

    def test_no_grad_in_worker_does_not_leak_to_main(self):
        import threading

        from repro.tensor.tensor import is_grad_enabled

        entered = threading.Event()
        release = threading.Event()

        def worker():
            with no_grad():
                entered.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=worker)
        thread.start()
        assert entered.wait(timeout=5)
        try:
            assert is_grad_enabled() is True
            a = Tensor(np.ones(3), requires_grad=True)
            assert (a * 2).requires_grad  # main thread still records
        finally:
            release.set()
            thread.join()

    def test_no_grad_restores_on_exit(self):
        from repro.tensor.tensor import is_grad_enabled

        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()
