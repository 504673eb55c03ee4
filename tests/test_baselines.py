"""Unit checks for the comparison attention mechanisms."""

import numpy as np
import pytest

from clta import baselines as bl
from clta.errors import ShapeError


def test_average_pool():
    rng = np.random.default_rng(0)
    F = rng.normal(size=(7, 4))
    assert np.allclose(bl.average_pool(F), F.mean(axis=0), atol=1e-15)
    with pytest.raises(ShapeError):
        bl.average_pool(np.zeros(4))


def test_self_attention_rows_normalize_and_depend_on_content():
    rng = np.random.default_rng(1)
    W = rng.normal(size=(3, 5))
    F1 = rng.normal(size=(6, 5))
    F2 = rng.normal(size=(6, 5))
    v1, c1 = bl.self_attention_forward(F1, W)
    v2, c2 = bl.self_attention_forward(F2, W)
    assert np.allclose(c1["e"].sum(axis=1), 1.0, atol=1e-12)
    assert not np.allclose(c1["e"], c2["e"])  # content-driven
    assert v1.shape == (3, 5)


def test_tsf_and_sldg_weights_are_content_blind():
    # two same-length videos with different contents get identical weights
    rng = np.random.default_rng(2)
    F1 = rng.normal(size=(9, 4))
    F2 = rng.normal(size=(9, 4)) * 3.0 + 1.0
    init = bl.tsf_init(4)
    _, ca = bl.tsf_forward(F1, init["centers"], init["widths"], Z=12)
    _, cb = bl.tsf_forward(F2, init["centers"], init["widths"], Z=12)
    assert np.allclose(ca["e"], cb["e"], atol=1e-15)
    scales = rng.normal(size=4)
    _, sa = bl.sldg_forward(F1, scales, Z=12)
    _, sb = bl.sldg_forward(F2, scales, Z=12)
    assert np.allclose(sa["e"], sb["e"], atol=1e-15)


def test_tsf_length_rescaling():
    # the filters track the fraction of the video, not absolute frames
    init = bl.tsf_init(3)
    _, c_short = bl.tsf_forward(np.zeros((6, 2)), init["centers"], init["widths"], Z=12)
    _, c_long = bl.tsf_forward(np.zeros((12, 2)), init["centers"], init["widths"], Z=12)
    assert np.allclose(c_short["mu"] / (6 / 12), c_long["mu"] / (12 / 12), atol=1e-12)
    assert np.allclose(c_short["sigma"] / (6 / 12), c_long["sigma"], atol=1e-12)


def test_sldg_schedule_spacing():
    mu, sigma = bl.sldg_schedule(T=8, K=4, Z=10)
    assert np.allclose(np.diff(mu), 8 / (4 * 10), atol=1e-12)
    assert np.allclose(sigma, 8 / (2 * 4 * 10), atol=1e-12)
    assert mu[0] > 0 and mu[-1] < 8 / 10


def _fd_weight_grad(forward, backward, params, dv, eps=1e-6):
    """Finite-difference a list of (array, analytic-grad) pairs."""
    for W, dW in params:
        for idx in np.ndindex(W.shape):
            orig = W[idx]
            W[idx] = orig + eps
            vp = forward()
            W[idx] = orig - eps
            vm = forward()
            W[idx] = orig
            num = ((vp - vm) * dv).sum() / (2 * eps)
            assert abs(dW[idx] - num) < 1e-6


def test_self_attention_backward_fd():
    rng = np.random.default_rng(3)
    F = rng.normal(size=(5, 3))
    W = rng.normal(size=(2, 3))
    dv = rng.normal(size=(2, 3))
    _, cache = bl.self_attention_forward(F, W)
    dW, dF = bl.self_attention_backward(cache, dv, need_dF=True)
    _fd_weight_grad(lambda: bl.self_attention_forward(F, W)[0],
                    None, [(W, dW), (F, dF)], dv)


def test_tsf_backward_fd():
    rng = np.random.default_rng(4)
    F = rng.normal(size=(6, 3))
    init = bl.tsf_init(3)
    centers, widths = init["centers"], init["widths"]
    dv = rng.normal(size=(3, 3))
    _, cache = bl.tsf_forward(F, centers, widths, Z=9)
    dc, dw, dF = bl.tsf_backward(cache, dv, need_dF=True)
    _fd_weight_grad(lambda: bl.tsf_forward(F, centers, widths, Z=9)[0],
                    None, [(centers, dc), (widths, dw)], dv)


def test_sldg_backward_fd():
    rng = np.random.default_rng(5)
    F = rng.normal(size=(7, 3))
    scales = rng.normal(size=3)
    dv = rng.normal(size=(3, 3))
    _, cache = bl.sldg_forward(F, scales, Z=10)
    ds, dF = bl.sldg_backward(cache, dv, need_dF=True)
    _fd_weight_grad(lambda: bl.sldg_forward(F, scales, Z=10)[0],
                    None, [(scales, ds)], dv)

