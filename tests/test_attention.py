"""Unit checks for the Gaussian attention head."""

import numpy as np
import pytest

from clta.attention import (AttentionTrace, FrameSequence, FusionSpec,
                            attend_backward, attend_forward, fuse, fuse_backward,
                            fusion_weights, gaussian_pool_backward,
                            gaussian_pool_forward, soft_argmax)
from clta.errors import ConfigError, NumericError, ShapeError

from oracle_reference import ref_attend


def _random_setup(rng, T=None, d=None, K=None):
    T = T or int(rng.integers(1, 9))
    d = d or int(rng.integers(2, 6))
    K = K or int(rng.integers(1, 4))
    Z = T + int(rng.integers(0, 4))
    F = rng.normal(0, 1, size=(T, d))
    Wm = rng.normal(0, 1, size=(K, d))
    Ws = rng.normal(0, 1, size=(K, d))
    return F, Wm, Ws, Z


def test_soft_argmax_range_and_limit():
    rng = np.random.default_rng(0)
    for _ in range(100):
        T = int(rng.integers(1, 12))
        s = rng.normal(0, 1, size=T)
        m = soft_argmax(s, 1.0)
        assert 1.0 <= m <= T
        # huge beta recovers the hard argmax when the top score is unique
        s[int(rng.integers(0, T))] += 2.0
        hard = float(np.argmax(s) + 1)
        assert abs(soft_argmax(s, 1e4) - hard) < 1e-6


def test_soft_argmax_uniform_scores_give_midpoint():
    assert abs(soft_argmax(np.zeros(5), 10.0) - 3.0) < 1e-12


def test_soft_argmax_validation():
    with pytest.raises(ConfigError):
        soft_argmax(np.ones(3), 0.0)
    with pytest.raises(ShapeError):
        soft_argmax(np.array([]), 1.0)


def test_learn_std_floor_with_nonnegative_features():
    # a strongly negative detector on nonnegative features drives every
    # sigmoid to exact zero; the floor must keep sigma strictly positive
    F = np.abs(np.random.default_rng(2).normal(1, 0.2, size=(8, 4))) + 1.0
    w = np.full((1, 4), -500.0)
    trace, _ = attend_forward(F, np.zeros((1, 4)), w, 10.0, Z=10)
    assert trace.sigma[0] == min(1e-3, 0.5 * 8 / 10)


def test_gaussian_weights_shape_and_peak():
    F = np.random.default_rng(10).normal(size=(7, 3))
    mu, sigma = np.array([0.4, 0.1]), np.array([0.1, 1e-3])
    v, cache = gaussian_pool_forward(F, mu, sigma, Z=10)
    a, e = cache["a"], cache["e"]
    assert a.shape == e.shape == (2, 7) and v.shape == (2, 3)
    assert np.all(a > 0) and np.all(a <= 1.0)
    assert int(np.argmax(a[0])) == 3  # t=4 -> t/Z = 0.4
    # far from a narrow head the log-weight is clamped, not underflowed
    assert a[1, 0] == 1.0 and np.all(a[1, 1:] == np.exp(-700.0))
    assert np.array_equal(cache["clamped"], [[False] * 7, [False] + [True] * 6])
    assert np.allclose(e.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(v, e @ F, atol=1e-15)
    scale = np.array([3.0, -2.0])
    _, scaled = gaussian_pool_forward(F, mu, sigma, Z=10, scale=scale)
    q = scale[:, None] * a
    ref = np.exp(q - q.max(axis=1, keepdims=True))
    assert np.allclose(scaled["e"], ref / ref.sum(axis=1, keepdims=True), atol=1e-12)


@pytest.mark.parametrize("with_scale", [False, True])
def test_gaussian_pool_backward_finite_difference(with_scale):
    rng = np.random.default_rng(11)
    T, d, K, Z = 6, 3, 3, 8
    F = rng.normal(size=(T, d))
    mu = rng.uniform(1.0 / Z, T / Z, size=K)
    sigma = rng.uniform(0.1, 0.5, size=K)
    scale = rng.normal(size=K) * 2.0 if with_scale else None
    dv = rng.normal(size=(K, d))

    def loss():
        v, _ = gaussian_pool_forward(F, mu, sigma, Z, scale=scale)
        return float((v * dv).sum())

    _, cache = gaussian_pool_forward(F, mu, sigma, Z, scale=scale)
    dmu, dsigma, dscale, dF = gaussian_pool_backward(cache, dv, need_dF=True)
    assert (dscale is None) == (scale is None)
    checked = [(mu, dmu), (sigma, dsigma), (F, dF)]
    if with_scale:
        checked.append((scale, dscale))
    eps = 1e-6
    for x, dx in checked:
        for idx in np.ndindex(x.shape):
            orig = x[idx]
            x[idx] = orig + eps
            lp = loss()
            x[idx] = orig - eps
            lm = loss()
            x[idx] = orig
            assert abs(dx[idx] - (lp - lm) / (2 * eps)) < 1e-6


def test_attend_matches_per_head_composition():
    # the independent per-head reference recomputes every head on its own
    rng = np.random.default_rng(3)
    for _ in range(30):
        F, Wm, Ws, Z = _random_setup(rng)
        beta = float(rng.uniform(1, 50))
        trace, _ = attend_forward(F, Wm, Ws, beta, Z)
        assert isinstance(trace, AttentionTrace)
        mu, sig, a, e, v = ref_attend(F.tolist(), Wm.tolist(), Ws.tolist(), beta, Z)
        assert np.allclose(trace.mu, mu, atol=1e-12)
        assert np.allclose(trace.sigma, sig, atol=1e-12)
        assert np.allclose(trace.raw_weights, a, atol=1e-12)
        assert np.allclose(trace.norm_weights, e, atol=1e-12)
        assert np.allclose(trace.summaries, v, atol=1e-12)


def test_attend_normalization_and_ranges():
    rng = np.random.default_rng(4)
    for _ in range(100):
        F, Wm, Ws, Z = _random_setup(rng)
        T = F.shape[0]
        trace, _ = attend_forward(F, Wm, Ws, float(rng.uniform(1, 200)), Z)
        assert np.allclose(trace.norm_weights.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(trace.mu >= 1.0 / Z - 1e-12)
        assert np.all(trace.mu <= T / Z + 1e-12)
        assert np.all(trace.sigma > 0.0)
        assert np.all(trace.sigma <= T / Z + 1e-12)
        assert np.all(trace.raw_weights > 0.0)
        assert np.all(trace.raw_weights <= 1.0 + 1e-15)
        # convex combinations stay inside the per-dimension frame bounds
        lo, hi = F.min(axis=0), F.max(axis=0)
        assert np.all(trace.summaries >= lo[None, :] - 1e-12)
        assert np.all(trace.summaries <= hi[None, :] + 1e-12)


def test_attend_rejects_length_beyond_Z():
    F = np.zeros((5, 3))
    W = np.zeros((2, 3))
    with pytest.raises(ConfigError):
        attend_forward(F, W, W, 10.0, Z=4)


def test_attend_shape_mismatch():
    with pytest.raises(ShapeError):
        attend_forward(np.zeros((4, 3)), np.zeros((2, 5)), np.zeros((2, 5)), 10.0, 8)


def test_attend_backward_finite_difference():
    rng = np.random.default_rng(5)
    for trial in range(10):
        F, Wm, Ws, Z = _random_setup(rng, T=5, d=3, K=2)
        beta = 7.0
        dv = rng.normal(size=(2, 3))

        def loss(Wm_, Ws_):
            trace, _ = attend_forward(F, Wm_, Ws_, beta, Z)
            return float((trace.summaries * dv).sum())

        _, cache = attend_forward(F, Wm, Ws, beta, Z)
        dWm, dWs, _ = attend_backward(cache, dv)
        eps = 1e-6
        for W, dW in ((Wm, dWm), (Ws, dWs)):
            for idx in np.ndindex(W.shape):
                orig = W[idx]
                W[idx] = orig + eps
                lp = loss(Wm, Ws)
                W[idx] = orig - eps
                lm = loss(Wm, Ws)
                W[idx] = orig
                num = (lp - lm) / (2 * eps)
                assert abs(dW[idx] - num) < 1e-6


def test_attend_backward_dF_finite_difference():
    rng = np.random.default_rng(6)
    F, Wm, Ws, Z = _random_setup(rng, T=4, d=3, K=2)
    dv = rng.normal(size=(2, 3))
    _, cache = attend_forward(F, Wm, Ws, 5.0, Z)
    _, _, dF = attend_backward(cache, dv, need_dF=True)
    eps = 1e-6
    for idx in np.ndindex(F.shape):
        orig = F[idx]
        F[idx] = orig + eps
        tp, _ = attend_forward(F, Wm, Ws, 5.0, Z)
        F[idx] = orig - eps
        tm, _ = attend_forward(F, Wm, Ws, 5.0, Z)
        F[idx] = orig
        num = ((tp.summaries - tm.summaries) * dv).sum() / (2 * eps)
        assert abs(dF[idx] - num) < 1e-6


def test_sigma_floor_blocks_gradient():
    rng = np.random.default_rng(7)
    F = np.abs(rng.normal(1.0, 0.2, size=(6, 3))) + 1.0
    Wm = rng.normal(size=(2, 3))
    Ws = np.full((2, 3), -500.0)  # sigma pinned at the floor
    _, cache = attend_forward(F, Wm, Ws, 5.0, Z=8)
    assert np.all(cache["sigma_floored"])
    _, dWs, _ = attend_backward(cache, rng.normal(size=(2, 3)))
    assert np.allclose(dWs, 0.0)


def test_fusion_average_and_soft():
    rng = np.random.default_rng(8)
    v = rng.normal(size=(3, 4))
    trace = AttentionTrace(mu=np.zeros(3), sigma=np.ones(3),
                           raw_weights=np.ones((3, 2)), norm_weights=np.full((3, 2), 0.5),
                           summaries=v)
    assert np.allclose(fuse(trace, FusionSpec(mode="average")), v.mean(axis=0), atol=1e-12)
    logits = rng.normal(size=3)
    w = np.exp(logits - logits.max())
    w /= w.sum()
    spec = FusionSpec(mode="soft_weight", soft_logits=logits)
    assert np.allclose(fuse(trace, spec), w @ v, atol=1e-12)
    assert np.allclose(fusion_weights(spec, 3).sum(), 1.0, atol=1e-12)


def test_fusion_spec_validation():
    with pytest.raises(ConfigError):
        FusionSpec(mode="nope")
    with pytest.raises(ConfigError):
        FusionSpec(mode="soft_weight")
    with pytest.raises(ShapeError):
        fusion_weights(FusionSpec(mode="soft_weight", soft_logits=np.zeros(2)), 3)


def test_fuse_backward_finite_difference():
    rng = np.random.default_rng(9)
    v = rng.normal(size=(3, 4))
    logits = rng.normal(size=3)
    dV = rng.normal(size=4)
    spec = FusionSpec(mode="soft_weight", soft_logits=logits)
    dv, dlog = fuse_backward(v, spec, dV)
    eps = 1e-6

    def loss(v_, logits_):
        trace = AttentionTrace(np.zeros(3), np.ones(3), np.ones((3, 1)),
                               np.ones((3, 1)), v_)
        return float(fuse(trace, FusionSpec(mode="soft_weight", soft_logits=logits_)) @ dV)

    for idx in np.ndindex(v.shape):
        orig = v[idx]
        v[idx] = orig + eps
        lp = loss(v, logits)
        v[idx] = orig - eps
        lm = loss(v, logits)
        v[idx] = orig
        assert abs(dv[idx] - (lp - lm) / (2 * eps)) < 1e-6
    for i in range(3):
        orig = logits[i]
        logits[i] = orig + eps
        lp = loss(v, logits)
        logits[i] = orig - eps
        lm = loss(v, logits)
        logits[i] = orig
        assert abs(dlog[i] - (lp - lm) / (2 * eps)) < 1e-6


def test_frame_sequence_validation():
    with pytest.raises(ShapeError):
        FrameSequence(features=np.zeros(5))
    with pytest.raises(ShapeError):
        FrameSequence(features=np.zeros((0, 4)))
    with pytest.raises(NumericError):
        FrameSequence(features=np.array([[np.nan, 0.0]]))
    seq = FrameSequence(features=np.ones((3, 2)), label="x", video_id="v0")
    assert seq.T == 3 and seq.d == 2


def test_clta_params_validation():
    F = np.zeros((4, 3))
    W = np.zeros((2, 3))
    with pytest.raises(ShapeError):
        attend_forward(F, W, np.zeros((2, 4)), 1.0, 5)
    with pytest.raises(ConfigError):
        attend_forward(F, W, W, -1.0, 5)
    with pytest.raises(ConfigError):
        attend_forward(F, W, W, 1.0, 0)
