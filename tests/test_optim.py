"""Tests for optimizers and gradient clipping."""

import numpy as np
import pytest

from repro.nn import Linear, Parameter
from repro.optim import Adam, clip_grad_norm, global_grad_norm
from repro.tensor import Tensor
from repro.tensor import functional as F


def quadratic_loss(param: Parameter) -> Tensor:
    """(p - 3)^2 summed; minimum at p == 3."""
    diff = param - 3.0
    return (diff * diff).sum()


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.array([-4.0]))
        opt = Adam([p], lr=0.2)
        for _ in range(200):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        np.testing.assert_allclose(p.data, [3.0], atol=1e-4)

    def test_first_step_size_is_about_lr(self):
        # With bias correction, the first Adam step magnitude ~= lr.
        p = Parameter(np.array([10.0]))
        opt = Adam([p], lr=0.5)
        p.grad = np.array([7.0])
        opt.step()
        assert abs(10.0 - p.data[0]) == pytest.approx(0.5, rel=1e-6)

    def test_trains_classifier_better_than_init(self, rng):
        features = rng.normal(size=(32, 8))
        x = Tensor(features)
        # Linearly separable labels so a linear model can actually fit them.
        labels = (features[:, 0] + features[:, 1] > 0).astype(int)
        model = Linear(8, 2, rng=0)
        opt = Adam(model.parameters(), lr=0.05)
        initial = F.cross_entropy(model(x), labels).item()
        for _ in range(60):
            opt.zero_grad()
            F.cross_entropy(model(x), labels).backward()
            opt.step()
        final = F.cross_entropy(model(x), labels).item()
        assert final < initial * 0.5

    def test_weight_decay_applies(self):
        p = Parameter(np.array([5.0]))
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        p.grad = np.array([0.0])
        opt.step()
        assert p.data[0] < 5.0


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        p = Parameter(np.array([1.0]))
        p.grad = np.array([0.5])
        norm = clip_grad_norm([p], max_norm=10.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_allclose(p.grad, [0.5])

    def test_clips_to_max_norm(self):
        p1 = Parameter(np.zeros(2))
        p2 = Parameter(np.zeros(2))
        p1.grad = np.array([3.0, 0.0])
        p2.grad = np.array([0.0, 4.0])
        norm = clip_grad_norm([p1, p2], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        total = np.sqrt((p1.grad**2).sum() + (p2.grad**2).sum())
        assert total == pytest.approx(1.0)

    def test_ignores_none_grads(self):
        p = Parameter(np.zeros(2))
        assert clip_grad_norm([p], max_norm=1.0) == 0.0

    def test_global_norm_multi_tensor(self):
        """global_grad_norm must match clip_grad_norm's internal summation
        bit-for-bit on a multi-tensor gradient list — this equality is what
        lets the distributed coordinator compute one norm and ship it."""
        rng = np.random.default_rng(7)
        grads = [rng.normal(size=(4, 3)), rng.normal(size=(7,)), None,
                 rng.normal(size=(2, 2, 2))]
        expected = float(np.sqrt(sum(float((g ** 2).sum())
                                     for g in grads if g is not None)))
        assert global_grad_norm(grads) == expected

        params = []
        for g in grads:
            p = Parameter(np.zeros_like(g) if g is not None else np.zeros(1))
            p.grad = None if g is None else g.copy()
            params.append(p)
        assert clip_grad_norm(params, max_norm=1e9) == global_grad_norm(grads)

    def test_precomputed_norm_matches_local(self):
        """clip_grad_norm(norm=...) scales exactly as the self-computed
        path: same returned total, same clipped gradients."""
        rng = np.random.default_rng(11)
        grads = [rng.normal(size=(5, 2)) * 10, rng.normal(size=(3,)) * 10]

        def make_params():
            out = []
            for g in grads:
                p = Parameter(np.zeros_like(g))
                p.grad = g.copy()
                out.append(p)
            return out

        local = make_params()
        remote = make_params()
        norm_local = clip_grad_norm(local, max_norm=1.0)
        norm_remote = clip_grad_norm(
            remote, max_norm=1.0, norm=global_grad_norm(grads)
        )
        assert norm_remote == norm_local
        for a, b in zip(local, remote):
            np.testing.assert_array_equal(a.grad, b.grad)

    def test_precomputed_norm_below_threshold_no_clip(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([0.3, 0.4])
        returned = clip_grad_norm([p], max_norm=1.0, norm=0.5)
        assert returned == pytest.approx(0.5)
        np.testing.assert_array_equal(p.grad, [0.3, 0.4])

    def test_global_norm_all_none(self):
        assert global_grad_norm([None, None]) == 0.0


class TestOptimizerState:
    """state_dict/load_state_dict — the checkpoint resume contract."""

    def _loss_step(self, optimizer, param):
        optimizer.zero_grad()
        quadratic_loss(param).backward()
        optimizer.step()

    def test_restored_optimizer_continues_identically(self):
        p1 = Parameter(np.array([1.0, -2.0]))
        reference = Adam([p1], lr=0.1)
        for _ in range(3):
            self._loss_step(reference, p1)
        state = reference.state_dict()
        trajectory = [p1.data.copy()]
        for _ in range(3):
            self._loss_step(reference, p1)
            trajectory.append(p1.data.copy())

        p2 = Parameter(trajectory[0].copy())
        resumed = Adam([p2], lr=0.1)
        resumed.load_state_dict(state)
        for step in range(3):
            self._loss_step(resumed, p2)
            np.testing.assert_array_equal(p2.data, trajectory[step + 1])

    def test_adam_state_dict_carries_step_count(self):
        p = Parameter(np.array([1.0]))
        adam = Adam([p], lr=0.1)
        for _ in range(5):
            self._loss_step(adam, p)
        state = adam.state_dict()
        assert state["step_count"] == 5
        fresh = Adam([Parameter(np.array([1.0]))], lr=0.1)
        fresh.load_state_dict(state)
        assert fresh._step_count == 5

    def test_load_rejects_mismatched_shapes(self):
        adam = Adam([Parameter(np.array([1.0, 2.0]))], lr=0.1)
        other = Adam([Parameter(np.zeros((3, 3)))], lr=0.1)
        with pytest.raises(ValueError, match="shape"):
            adam.load_state_dict(other.state_dict())

    def test_load_rejects_mismatched_slot_count(self):
        adam = Adam([Parameter(np.array([1.0]))], lr=0.1)
        two = Adam(
            [Parameter(np.array([1.0])), Parameter(np.array([2.0]))], lr=0.1
        )
        with pytest.raises(ValueError, match="slots"):
            adam.load_state_dict(two.state_dict())
