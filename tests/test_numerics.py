"""Unit checks for the scalar/vector primitives and the gradient checker."""

import warnings

import numpy as np
import pytest

from clta.errors import ConfigError, NumericError, ShapeError
from clta.numerics import (cross_entropy, finite_diff_check, relu, sigmoid, sigmoid_grad,
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


def test_cross_entropy_loss_is_minus_log_softmax():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(0, 5, size=9)
        for t in range(9):
            assert np.allclose(np.exp(-cross_entropy(x, t)[0]), softmax_stable(x)[t],
                               rtol=0, atol=1e-12)


def test_sigmoid_extremes_and_symmetry():
    assert sigmoid(np.array([800.0]))[0] == 1.0
    assert sigmoid(np.array([-800.0]))[0] == 0.0
    assert sigmoid(np.float64(800.0)) == 1.0 and sigmoid_grad(0.5) == 0.25   # 0-d and scalar
    rng = np.random.default_rng(2)
    x = rng.normal(0, 4, size=100)
    assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)


def _two_branch_sigmoid(x):
    # 1 / (1 + e^-x) on x >= 0 and e^x / (1 + e^x) elsewhere, each branch
    # computed on its own masked entries
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_equals_the_two_branch_formula_bit_for_bit():
    # nan and -nan differ in their sign bit, which the result keeps
    special = [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 800.0, -800.0, np.nan, -np.nan]
    rng = np.random.default_rng(6)
    x = rng.permutation(np.concatenate([special * 4, rng.normal(0, 10, size=968)]))
    want = _two_branch_sigmoid(x).view(np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigmoid(x)
        stacked = sigmoid(x.reshape(8, 21, 6))
    assert np.array_equal(got.view(np.uint64), want)
    assert np.array_equal(stacked.reshape(-1).view(np.uint64), want)


def _plain_softmax(x, axis):
    z = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return z / z.sum(axis=axis, keepdims=True)


def test_softmax_equals_the_plain_max_formula_bit_for_bit():
    # the shapes of its callers: stacked episode heads (E, n, c) over the
    # classes, attention scores (B, T, K) over frames and (B, K, T) over
    # frames, with -inf at masked frames, and one vector
    rng = np.random.default_rng(7)
    cases = [(rng.normal(0, 3, size=(40, 25, 5)), -1), (rng.normal(0, 3, size=7), -1)]
    for shape, axis in (((6, 13, 4), -2), ((6, 4, 13), -1)):
        x = rng.normal(0, 30, size=shape)
        lengths = rng.integers(1, 14, size=6)
        frames = np.moveaxis(x, axis, -1)   # a view: (6, 4, 13) either way
        frames[...] = np.where(np.arange(13) >= lengths[:, None, None], -np.inf, frames)
        cases.append((x, axis))
    # every axis length from 1 to 40 on every axis of a 3-d stack, on both
    # sides of the short-axis switch at 8, each row masked with -inf past a
    # drawn length of at least one entry
    for n in range(1, 41):
        for axis in range(3):
            shape = [3, 4, 3]
            shape[axis] = n
            x = rng.normal(0, 30, size=shape)
            rows = np.moveaxis(x, axis, -1)   # a view with the softmax axis last
            lengths = rng.integers(1, n + 1, size=rows.shape[:-1])
            rows[...] = np.where(np.arange(n) >= lengths[..., None], -np.inf, rows)
            cases += [(x, axis), (x, axis - 3)]
    for x, axis in cases:
        kept = x.copy()
        got = softmax_stable(x, axis=axis)
        assert got.flags.c_contiguous   # downstream sums see the layout they saw before
        assert np.array_equal(x.view(np.uint64), kept.view(np.uint64))
        assert np.array_equal(got.view(np.uint64), _plain_softmax(x, axis).view(np.uint64))
    assert np.isinf(cases[2][0]).any() and np.isinf(cases[3][0]).any()


def test_softmax_into_given_buffers_is_bit_identical():
    # out= (also x itself) changes where the values land, not their bits, on
    # both sides of the short-axis switch
    rng = np.random.default_rng(9)
    for shape in ((24, 5, 5), (40, 25, 5), (3, 4, 9), (7,), (10,), (2, 3)):
        for axis in range(-len(shape), len(shape)):
            x = rng.normal(0, 30, size=shape)
            want = softmax_stable(x, axis=axis)
            out = np.empty(shape)
            assert softmax_stable(x, axis=axis, out=out) is out
            assert np.array_equal(out.view(np.uint64), want.view(np.uint64))
            kept = x.copy()
            assert softmax_stable(kept, axis=axis, out=kept) is kept
            assert np.array_equal(kept.view(np.uint64), want.view(np.uint64))


def test_softmax_rejects_an_axis_out_of_range():
    for shape, axis in (((3, 4), 2), ((3, 4), -3), ((5,), 1)):
        with pytest.raises(ShapeError):
            softmax_stable(np.zeros(shape), axis=axis)


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


def test_softmax_backward_and_sigmoid_grad_equal_the_plain_formulas_bit_for_bit():
    # over frames (B, T, K) on the middle axis, K = 1 included, and over the
    # last axis, on both sides of the pairwise switch at 8; and the fusion's
    # (K,) weights against a stack of upstream gradients
    rng = np.random.default_rng(10)
    cases = [(softmax_stable(rng.normal(0, 3, size=(6, T, K)), axis=axis), axis)
             for T in (5, 13) for K in (1, 6) for axis in (-2, -1)]
    cases.append((softmax_stable(rng.normal(size=6)), -1))
    for p, axis in cases:
        dp = rng.normal(size=(4,) * (p.ndim == 1) + p.shape)
        want = p * (dp - (p * dp).sum(axis=axis, keepdims=True))
        assert np.array_equal(softmax_backward(p, dp, axis=axis).view(np.uint64),
                              want.view(np.uint64))
        assert np.array_equal(sigmoid_grad(p).view(np.uint64), (p * (1.0 - p)).view(np.uint64))


def test_helpers_leave_their_inputs_untouched():
    rng = np.random.default_rng(11)
    x = rng.normal(0, 3, size=(5, 9, 3))
    dp = rng.normal(size=x.shape)
    t = rng.integers(0, 3, size=(5, 9))
    calls = [(softmax_stable, (x, axis)) for axis in range(-3, 3)]
    calls += [(softmax_backward, (softmax_stable(x, axis=axis), dp, axis)) for axis in (-2, -1)]
    calls += [(sigmoid, (x,)), (sigmoid_grad, (sigmoid(x),)), (cross_entropy, (x, t))]
    for fn, args in calls:
        before = [np.asarray(a).tobytes() for a in args]
        fn(*args)
        assert [np.asarray(a).tobytes() for a in args] == before, fn.__name__


def test_cross_entropy_value_and_grad():
    rng = np.random.default_rng(5)
    for _ in range(20):
        logits = rng.normal(0, 2, size=5)
        t = int(rng.integers(0, 5))
        p = softmax_stable(logits)
        loss, g = cross_entropy(logits, t)
        assert loss.shape == () and abs(loss + np.log(p[t])) < 1e-12
        assert abs(g.sum()) < 1e-12
    # rows of logits, on both sides of softmax_stable's 8-wide last axis: the
    # gradient has the bits of the softmax less the one-hot target
    for c in range(2, 31):
        for rows in (1, 7, 64):
            logits = rng.normal(0, 4, size=(rows, c))
            t = rng.integers(0, c, size=rows)
            loss, g = cross_entropy(logits, t)
            want = softmax_stable(logits) - np.eye(c)[t]
            assert loss.shape == (rows,) and np.array_equal(g.view(np.uint64), want.view(np.uint64))
            assert np.allclose(loss, -np.log(softmax_stable(logits)[np.arange(rows), t]),
                               rtol=1e-12, atol=1e-12)
            assert np.array_equal(cross_entropy(logits[0], t[0])[1], g[0])


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

    # a ConfigError, which is a ValueError, so the CLI exits 2
    for eps in (1e-7, 1e-3, 1.0, np.nan):
        with pytest.raises(ConfigError, match="eps"):
            finite_diff_check(loss_fn, {"x": np.ones(2)}, eps=eps)


def test_finite_diff_check_nonfinite_loss():
    def loss_fn(params):
        return float("nan"), {"x": np.zeros(1)}

    with pytest.raises(NumericError):
        finite_diff_check(loss_fn, {"x": np.zeros(1)})
