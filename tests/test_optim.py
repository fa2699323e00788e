"""Optimizer contract: hand-computed updates, decay rules, shape checks."""
import numpy as np
import pytest

from riformer import AdamW, ShapeError, Tensor


def scalar_param(value):
    return Tensor(np.array([value], np.float32), requires_grad=True)


def test_zero_grad_zero_decay_leaves_params_unchanged():
    p = Tensor(np.arange(4, dtype=np.float32).reshape(2, 2), requires_grad=True)
    opt = AdamW([("w", p)], weight_decay=0.0)
    before = p.data.copy()
    opt.step(0.1)
    np.testing.assert_array_equal(p.data, before)


def test_single_step_matches_hand_computation():
    # g=1, lr=0.1: m_hat = 1, v_hat = 1, update = 1/(1 + eps) -> ~0.1 decrease
    p = scalar_param(2.0)
    p.grad = np.array([1.0], np.float32)
    opt = AdamW([("w", p)], weight_decay=0.0)
    opt.step(0.1)
    assert abs(p.data[0] - 1.9) < 1e-5


def test_decoupled_decay_shrinks_without_gradient():
    p = Tensor(np.full((2, 3), 4.0, np.float32), requires_grad=True)
    opt = AdamW([("w", p)], weight_decay=0.05)
    opt.step(0.1)
    # p * (1 - lr*wd) = 4 * 0.995 = 3.98, no moment update from zero grad
    np.testing.assert_allclose(p.data, 3.98, atol=1e-6)


def test_vectors_are_excluded_from_decay():
    gamma = Tensor(np.full(3, 4.0, np.float32), requires_grad=True)
    opt = AdamW([("norm.gamma", gamma)], weight_decay=0.05)
    opt.step(0.1)
    np.testing.assert_array_equal(gamma.data, np.full(3, 4.0, np.float32))


def test_gradient_shape_mismatch_rejected():
    p = scalar_param(1.0)
    p.grad = np.ones((2, 2), np.float32)
    opt = AdamW([("w", p)], weight_decay=0.0)
    with pytest.raises(ShapeError):
        opt.step(1e-3)


def test_moments_accumulate_across_steps():
    # with constant gradient the bias-corrected update stays ~1 each step
    p = scalar_param(0.0)
    opt = AdamW([("w", p)], weight_decay=0.0)
    for _ in range(5):
        p.grad = np.array([1.0], np.float32)
        opt.step(0.1)
    assert abs(p.data[0] + 0.5) < 1e-3


def test_zero_grad_clears_buffers():
    p = scalar_param(1.0)
    p.grad = np.array([1.0], np.float32)
    opt = AdamW([("w", p)])
    opt.zero_grad()
    assert p.grad is None
