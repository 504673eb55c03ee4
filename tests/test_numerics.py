"""Unit checks for the scalar/vector primitives and the gradient checker."""

import numpy as np
import pytest

from clta.errors import NumericError, ShapeError
from clta.numerics import (cross_entropy, cross_entropy_grad, finite_diff_check,
                           log_softmax, relu, sigmoid, sigmoid_grad,
                           softmax_backward, softmax_stable, softplus)


def test_softmax_rows_sum_to_one_and_match_naive():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(0, 3, size=(4, 7))
        p = softmax_stable(x, axis=1)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        naive = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
        assert np.allclose(p, naive, atol=1e-12)


def test_softmax_survives_huge_inputs():
    p = softmax_stable(np.array([1e308, 1e308 - 1e300, 0.0]))
    assert np.all(np.isfinite(p))
    assert abs(p.sum() - 1.0) < 1e-12


def test_softmax_empty_raises():
    with pytest.raises(ShapeError):
        softmax_stable(np.array([]))


def test_log_softmax_consistent_with_softmax():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(0, 5, size=9)
        assert np.allclose(np.exp(log_softmax(x)), softmax_stable(x), atol=1e-12)


def test_sigmoid_extremes_and_symmetry():
    assert sigmoid(np.array([800.0]))[0] == 1.0
    assert sigmoid(np.array([-800.0]))[0] == 0.0
    rng = np.random.default_rng(2)
    x = rng.normal(0, 4, size=100)
    assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)


def test_sigmoid_grad_matches_finite_difference():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 2, size=50)
    eps = 1e-6
    num = (sigmoid(x + eps) - sigmoid(x - eps)) / (2 * eps)
    assert np.allclose(sigmoid_grad(sigmoid(x)), num, atol=1e-8)


def test_softmax_backward_matches_finite_difference():
    rng = np.random.default_rng(4)
    x = rng.normal(size=6)
    dp = rng.normal(size=6)
    p = softmax_stable(x)
    dx = softmax_backward(p, dp)
    eps = 1e-6
    for i in range(6):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        num = (softmax_stable(xp) @ dp - softmax_stable(xm) @ dp) / (2 * eps)
        assert abs(dx[i] - num) < 1e-8


def test_cross_entropy_value_and_grad():
    rng = np.random.default_rng(5)
    for _ in range(20):
        logits = rng.normal(0, 2, size=5)
        t = int(rng.integers(0, 5))
        p = softmax_stable(logits)
        assert abs(cross_entropy(logits, t) + np.log(p[t])) < 1e-12
        g = cross_entropy_grad(logits, t)
        assert abs(g.sum()) < 1e-12
        hot = np.zeros(5)
        hot[t] = 1.0
        assert np.allclose(g, p - hot, atol=1e-12)


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        cross_entropy(np.zeros(3), 3)
    with pytest.raises(IndexError):
        cross_entropy(np.zeros(3), -1)


def test_relu_softplus():
    x = np.array([-2.0, 0.0, 3.0])
    assert np.allclose(relu(x), [0.0, 0.0, 3.0])
    assert np.allclose(softplus(np.array([0.0])), np.log(2.0))
    assert softplus(np.array([800.0]))[0] == 800.0


def test_finite_diff_check_accepts_correct_gradient():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])

    def loss_fn(params):
        x = params["x"]
        return float(0.5 * x @ A @ x), {"x": A @ x}

    err = finite_diff_check(loss_fn, {"x": np.array([0.3, -1.2])})
    assert err < 1e-6


def test_finite_diff_check_flags_wrong_gradient():
    def loss_fn(params):
        x = params["x"]
        return float(x @ x), {"x": 3.0 * x}  # should be 2x

    err = finite_diff_check(loss_fn, {"x": np.array([1.0, -2.0])})
    assert err > 1e-2


def test_finite_diff_check_eps_window():
    def loss_fn(params):
        return float(params["x"] @ params["x"]), {"x": 2 * params["x"]}

    with pytest.raises(ValueError):
        finite_diff_check(loss_fn, {"x": np.ones(2)}, eps=1e-7)
    with pytest.raises(ValueError):
        finite_diff_check(loss_fn, {"x": np.ones(2)}, eps=1e-3)


def test_finite_diff_check_nonfinite_loss():
    def loss_fn(params):
        return float("nan"), {"x": np.zeros(1)}

    with pytest.raises(NumericError):
        finite_diff_check(loss_fn, {"x": np.zeros(1)})
