"""Unit checks for the comparison attention mechanisms."""

import numpy as np

from clta import baselines as bl
from clta.model import Model, ModelConfig


def _all_frames(F):
    """The frame mask that keeps every frame of F (..., T, d)."""
    return np.ones(F.shape[:-1], dtype=bool)


def test_self_attention_rows_normalize_and_depend_on_content():
    rng = np.random.default_rng(1)
    W = rng.normal(size=(3, 5))
    F1 = rng.normal(size=(6, 5))
    F2 = rng.normal(size=(6, 5))
    c1 = bl.self_attention_forward(F1, W, _all_frames(F1))
    c2 = bl.self_attention_forward(F2, W, _all_frames(F2))
    assert np.allclose(c1["e"].sum(axis=1), 1.0, atol=1e-12)
    assert not np.allclose(c1["e"], c2["e"])  # content-driven
    assert c1["e"].shape == (3, 6)


def test_tsf_and_sldg_weights_are_content_blind():
    # their forwards take no frames; through the model, two same-length videos
    # with different contents get identical weights in either projection stage
    rng = np.random.default_rng(2)
    F = np.stack([rng.normal(size=(9, 4)), rng.normal(size=(9, 4)) * 3.0 + 1.0])
    for kind in ("tsf", "sldg"):
        for stage in ("post", "pre"):
            model = Model(ModelConfig(kind=kind, num_gaussians=4, Z=12, feature_dim=4,
                                      hidden=5, num_classes=2, projection_stage=stage),
                          rng)
            if kind == "sldg":
                model.params["scales"] = rng.normal(size=4)
            e = model.forward_video(F, np.ones((2, 9), dtype=bool))[1]["attn"]["e"]
            assert np.allclose(e[0], e[1], atol=1e-15), (kind, stage)


def test_tsf_length_rescaling():
    # the filters track the fraction of the video, not absolute frames
    init = bl.tsf_init(3)
    c_short = bl.tsf_forward(init["centers"], init["widths"], 12, np.ones(6, dtype=bool))
    c_long = bl.tsf_forward(init["centers"], init["widths"], 12, np.ones(12, dtype=bool))
    assert np.allclose(c_short["mu"] / (6 / 12), c_long["mu"] / (12 / 12), atol=1e-12)
    assert np.allclose(c_short["sigma"] / (6 / 12), c_long["sigma"], atol=1e-12)


def test_sldg_schedule_spacing():
    mu, sigma = bl.sldg_schedule(T=8, K=4, Z=10)
    assert np.allclose(np.diff(mu), 8 / (4 * 10), atol=1e-12)
    assert np.allclose(sigma, 8 / (2 * 4 * 10), atol=1e-12)
    assert mu[0] > 0 and mu[-1] < 8 / 10


def _fd_weight_grad(forward, backward, params, dv, eps=1e-6):
    """Finite-difference a list of (array, analytic-grad) pairs through the
    summaries forward() returns."""
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
    # F's gradient is the pooling's, e^T @ dv, plus the kernel's through the scores
    cache = bl.self_attention_forward(F, W, _all_frames(F))
    dW, dF = bl.self_attention_backward(cache, dv @ F.T, cache["e"].T @ dv)
    _fd_weight_grad(lambda: bl.self_attention_forward(F, W, _all_frames(F))["e"] @ F,
                    None, [(W, dW), (F, dF)], dv)


def test_tsf_backward_fd():
    rng = np.random.default_rng(4)
    F = rng.normal(size=(6, 3))
    init = bl.tsf_init(3)
    centers, widths = init["centers"], init["widths"]
    dv = rng.normal(size=(3, 3))
    cache = bl.tsf_forward(centers, widths, 9, _all_frames(F))
    dc, dw, _ = bl.tsf_backward(cache, dv @ F.T, None)
    _fd_weight_grad(lambda: bl.tsf_forward(centers, widths, 9, _all_frames(F))["e"] @ F,
                    None, [(centers, dc), (widths, dw)], dv)


def test_sldg_backward_fd():
    rng = np.random.default_rng(5)
    F = rng.normal(size=(7, 3))
    scales = rng.normal(size=3)
    dv = rng.normal(size=(3, 3))
    cache = bl.sldg_forward(scales, 10, _all_frames(F))
    ds, _ = bl.sldg_backward(cache, dv @ F.T, None)
    _fd_weight_grad(lambda: bl.sldg_forward(scales, 10, _all_frames(F))["e"] @ F,
                    None, [(scales, ds)], dv)

