"""Unit checks for the Gaussian attention head."""

import numpy as np
import pytest

from clta.attention import (_LOG_FLOOR, _SIGMA_FLOOR, FrameSequence, attend_backward,
                            attend_forward, fuse_backward, fusion_weights,
                            gaussian_pool_backward, gaussian_pool_forward, soft_argmax)
from clta.baselines import self_attention_backward, self_attention_forward
from clta.errors import NumericError, ShapeError
from clta.model import _KINDS, ModelConfig
from clta.numerics import cross_entropy

from oracle_reference import ref_attend
from test_numerics import _plain_softmax


def _all_frames(x):
    """The frame mask that keeps every frame of frames (..., T, d) or scores (..., T, K)."""
    return np.ones(x.shape[:-1], dtype=bool)


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
        s = rng.normal(0, 1, size=(T, 1))
        m, p = soft_argmax(s, 1.0, _all_frames(s))
        assert m.shape == (1,) and 1.0 <= m[0] <= T and p.shape == (T, 1)
        # huge beta recovers the hard argmax when the top score is unique
        s[int(rng.integers(0, T))] += 2.0
        hard = float(np.argmax(s) + 1)
        assert abs(soft_argmax(s, 1e4, _all_frames(s))[0][0] - hard) < 1e-6


def test_soft_argmax_uniform_scores_give_midpoint():
    assert abs(soft_argmax(np.zeros((5, 1)), 10.0, np.ones(5, dtype=bool))[0][0] - 3.0) < 1e-12


def test_soft_argmax_of_a_masked_padded_stack_is_each_videos_own():
    # heads (T, K) per video, padded with garbage scores that the mask hides
    rng = np.random.default_rng(12)
    B, T, K = 5, 9, 3
    lens = np.array([1, 4, 9, 2, 7])
    mask = np.arange(T) < lens[:, None]
    scores = rng.normal(0, 3, size=(B, T, K))
    scores[~mask] = 1e300
    index, p = soft_argmax(scores, 50.0, mask)
    assert index.shape == (B, K) and p.shape == (B, T, K)
    for b, n in enumerate(lens):
        own_index, own_p = soft_argmax(scores[b, :n], 50.0, mask[b, :n])
        assert np.allclose(index[b], own_index, rtol=0, atol=1e-12)
        assert np.array_equal(p[b, :n], own_p) and np.all(p[b, n:] == 0.0)
        for k in range(K):
            one_index, one_p = soft_argmax(scores[b, :n, k, None], 50.0, mask[b, :n])
            assert abs(one_index[0] - own_index[k]) <= 1e-12
            assert np.array_equal(one_p[:, 0], own_p[:, k])


def test_soft_argmax_overflow_is_a_numeric_error_naming_beta():
    # beta * scores overflows to inf: a softmax of it would be all NaN (inf - inf),
    # and clipping would make every overflowed frame a tie; the suite turns any
    # numpy overflow or invalid-value warning into a failure
    F = np.random.default_rng(13).normal(size=(6, 4))
    W = np.full((2, 4), 10.0)
    with pytest.raises(NumericError, match="beta=1e\\+308"):
        attend_forward(F, W, W, 1e308, 6, _all_frames(F))
    with pytest.raises(NumericError, match="beta"):
        soft_argmax(np.array([[0.0], [-2.0], [1.0]]), 1e308, np.ones(3, dtype=bool))
    # a finite product keeps its bits, and an overflow on a masked-out frame is no error
    index, p = soft_argmax(np.array([[0.0], [2.0], [1e10]]), 1e297, np.array([True, True, False]))
    assert index[0] == 2.0 and np.array_equal(p[:, 0], [0.0, 1.0, 0.0])


def test_learn_std_floor_with_nonnegative_features():
    # a strongly negative detector on nonnegative features drives every
    # sigmoid to exact zero; the floor must keep sigma strictly positive
    F = np.abs(np.random.default_rng(2).normal(1, 0.2, size=(8, 4))) + 1.0
    w = np.full((1, 4), -500.0)
    cache = attend_forward(F, np.zeros((1, 4)), w, 10.0, 10, _all_frames(F))
    assert cache["sigma"][0] == min(1e-3, 0.5 * 8 / 10)


def test_gaussian_weights_shape_and_peak():
    every_frame = np.ones(7, dtype=bool)
    mu, sigma = np.array([0.4, 0.1]), np.array([0.1, 1e-3])
    cache = gaussian_pool_forward(mu, sigma, 10, every_frame)
    a, e = cache["a"], cache["e"]
    assert a.shape == e.shape == (2, 7)
    assert np.all(a > 0) and np.all(a <= 1.0)
    assert int(np.argmax(a[0])) == 3  # t=4 -> t/Z = 0.4
    # far from a narrow head the log-weight is clamped, not underflowed
    assert a[1, 0] == 1.0 and np.all(a[1, 1:] == np.exp(-700.0))
    assert np.array_equal(cache["clamped"], [[False] * 7, [False] + [True] * 6])
    assert np.allclose(e.sum(axis=1), 1.0, atol=1e-12)
    scale = np.array([3.0, -2.0])
    scaled = gaussian_pool_forward(mu, sigma, 10, every_frame, scale)
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

    # the loss pools the weights as Model.forward_video does, v = e @ F
    def loss():
        e = gaussian_pool_forward(mu, sigma, Z, _all_frames(F), scale)["e"]
        return float((e @ F * dv).sum())

    cache = gaussian_pool_forward(mu, sigma, Z, _all_frames(F), scale)
    dmu, dsigma, dscale = gaussian_pool_backward(cache, dv @ F.T)
    assert (dscale is None) == (scale is None)
    checked = [(mu, dmu), (sigma, dsigma)]
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
        cache = attend_forward(F, Wm, Ws, beta, Z, _all_frames(F))
        got = cache["e"] @ F
        mu, sig, a, e, v = ref_attend(F.tolist(), Wm.tolist(), Ws.tolist(), beta, Z)
        assert np.allclose(cache["mu"], mu, atol=1e-12)
        assert np.allclose(cache["sigma"], sig, atol=1e-12)
        assert np.allclose(cache["a"], a, atol=1e-12)
        assert np.allclose(cache["e"], e, atol=1e-12)
        assert np.allclose(got, v, atol=1e-12)


def test_attend_normalization_and_ranges():
    rng = np.random.default_rng(4)
    for _ in range(100):
        F, Wm, Ws, Z = _random_setup(rng)
        T = F.shape[0]
        cache = attend_forward(F, Wm, Ws, float(rng.uniform(1, 200)), Z, _all_frames(F))
        v = cache["e"] @ F
        assert np.allclose(cache["e"].sum(axis=1), 1.0, atol=1e-12)
        assert np.all(cache["mu"] >= 1.0 / Z - 1e-12)
        assert np.all(cache["mu"] <= T / Z + 1e-12)
        assert np.all(cache["sigma"] > 0.0)
        assert np.all(cache["sigma"] <= T / Z + 1e-12)
        assert np.all(cache["a"] > 0.0)
        assert np.all(cache["a"] <= 1.0 + 1e-15)
        # convex combinations stay inside the per-dimension frame bounds
        lo, hi = F.min(axis=0), F.max(axis=0)
        assert np.all(v >= lo[None, :] - 1e-12)
        assert np.all(v <= hi[None, :] + 1e-12)


def test_attend_backward_finite_difference():
    rng = np.random.default_rng(5)
    for trial in range(10):
        F, Wm, Ws, Z = _random_setup(rng, T=5, d=3, K=2)
        beta = 7.0
        dv = rng.normal(size=(2, 3))

        def loss(Wm_, Ws_):
            e = attend_forward(F, Wm_, Ws_, beta, Z, _all_frames(F))["e"]
            return float((e @ F * dv).sum())

        cache = attend_forward(F, Wm, Ws, beta, Z, _all_frames(F))
        dWm, dWs = attend_backward(cache, dv @ F.T)
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


def test_sigma_floor_blocks_gradient():
    rng = np.random.default_rng(7)
    F = np.abs(rng.normal(1.0, 0.2, size=(6, 3))) + 1.0
    Wm = rng.normal(size=(2, 3))
    Ws = np.full((2, 3), -500.0)  # sigma pinned at the floor
    cache = attend_forward(F, Wm, Ws, 5.0, 8, _all_frames(F))
    assert np.all(cache["sigma_floored"])
    _, dWs = attend_backward(cache, rng.normal(size=(2, 3)) @ F.T)
    assert np.allclose(dWs, 0.0)


def test_repeating_every_frame_k_times_multiplies_sigma_by_k():
    # sigma is a soft frame count, sum_t sigmoid / Z: at one Z, a stack whose
    # every frame is repeated k times has k times the width, above the floor
    rng = np.random.default_rng(8)
    F = rng.normal(size=(4, 6, 5))
    Wm, Ws = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
    for k in (2, 3, 4):
        Z = k * F.shape[-2]
        slow = np.repeat(F, k, axis=-2)
        base = attend_forward(F, Wm, Ws, 5.0, Z, _all_frames(F))
        repeated = attend_forward(slow, Wm, Ws, 5.0, Z, _all_frames(slow))
        assert not base["sigma_floored"].any() and not repeated["sigma_floored"].any()
        np.testing.assert_allclose(repeated["sigma"], k * base["sigma"], rtol=1e-12, atol=0)


def test_fusion_average_and_soft():
    rng = np.random.default_rng(8)
    v = rng.normal(size=(3, 4))
    assert np.allclose(fusion_weights(None, 3) @ v, v.mean(axis=0), atol=1e-12)
    logits = rng.normal(size=3)
    w = np.exp(logits - logits.max())
    w /= w.sum()
    assert np.allclose(fusion_weights(logits, 3) @ v, w @ v, atol=1e-12)
    assert np.allclose(fusion_weights(logits, 3).sum(), 1.0, atol=1e-12)


def test_fuse_backward_finite_difference():
    rng = np.random.default_rng(9)
    v = rng.normal(size=(3, 4))
    logits = rng.normal(size=3)
    dV = rng.normal(size=4)
    dv, dlog = fuse_backward(v, logits, dV)
    assert np.array_equal(fuse_backward(v, None, dV)[0], np.full((3, 1), 1 / 3) * dV)
    assert fuse_backward(v, None, dV)[1] is None
    eps = 1e-6

    def loss(v_, logits_):
        return float(fusion_weights(logits_, 3) @ v_ @ dV)

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


def test_frame_sequence_keeps_float32_and_float64_and_widens_the_rest():
    values = np.arange(6.0).reshape(3, 2) - 2.5
    for dtype in (np.float32, np.float64):
        seq = FrameSequence(features=values.astype(dtype))
        assert seq.features.dtype == dtype
        assert np.array_equal(seq.features, values)
    for features in (values.astype(np.float16), values.astype(">f4"), values.tolist(),
                     np.arange(6).reshape(3, 2)):
        seq = FrameSequence(features=features)
        assert seq.features.dtype == np.float64
        assert np.array_equal(seq.features, np.asarray(features, dtype=np.float64))
    with pytest.raises(NumericError):
        FrameSequence(features=np.array([[0.0, np.inf]], dtype=np.float32))


# The kernels in plain numpy expressions, one new array per operation: the
# in-place kernels must give these bits exactly. The softmax is
# test_numerics.py's plain max formula, which softmax_stable matches bit for bit.

def _plain_softmax_backward(p, dp, axis):
    return p * (dp - (p * dp).sum(axis=axis, keepdims=True))


def _plain_sigmoid(x):
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _plain_pool_forward(mu, sigma, Z, mask, scale=None):
    pos = np.arange(1, mask.shape[-1] + 1, dtype=np.float64) / Z
    u = (pos - mu[..., None]) / sigma[..., None]
    g = -0.5 * u * u
    a = np.exp(np.maximum(g, _LOG_FLOOR))
    q = a if scale is None else scale[:, None] * a
    e = _plain_softmax(np.where(mask[..., None, :], q, -np.inf), -1)
    return dict(pos=pos, u=u, a=a, e=e, clamped=g < _LOG_FLOOR, mu=mu, sigma=sigma)


def _plain_pool_backward(cache, de, scale=None):
    e, a, u, sigma = cache["e"], cache["a"], cache["u"], cache["sigma"]
    dq = _plain_softmax_backward(e, de, -1)
    dscale = None if scale is None else (dq * a).sum(axis=-1).reshape(-1, len(scale)).sum(axis=0)
    dg = (dq if scale is None else dq * scale[:, None]) * a
    dg[cache["clamped"]] = 0.0
    du = dg * (-u)
    return ((du * (-1.0 / sigma[..., None])).sum(axis=-1),
            (du * (-u / sigma[..., None])).sum(axis=-1), dscale)


def _plain_attend_forward(F, Wm, Ws, beta, Z, mask):
    p = _plain_softmax(np.where(mask[..., None], beta * (F @ Wm.T), -np.inf), -2)
    mu = np.arange(1, F.shape[-2] + 1, dtype=np.float64) @ p / Z
    sg = np.where(mask[..., None], _plain_sigmoid(F @ Ws.T), 0.0)
    sigma_raw = sg.sum(axis=-2) / Z
    floor = np.minimum(_SIGMA_FLOOR, 0.5 * mask.sum(axis=-1) / Z)[..., None]
    cache = _plain_pool_forward(mu, np.maximum(sigma_raw, floor), Z, mask)
    cache.update(p=p, sg=sg, sigma_floored=sigma_raw < floor)
    return cache


def _plain_attend_backward(cache, F, beta, Z, de):
    dmu, dsigma, _ = _plain_pool_backward(cache, de)
    dsigma[cache["sigma_floored"]] = 0.0
    p, sg = cache["p"], cache["sg"]
    dsm = beta * _plain_softmax_backward(p, dmu[..., None, :] * cache["pos"][:, None], -2)
    dss = (dsigma[..., None, :] / Z) * (sg * (1.0 - sg))
    return (dsm.reshape(-1, dsm.shape[-1]).T @ F.reshape(-1, F.shape[-1]),
            dss.reshape(-1, dss.shape[-1]).T @ F.reshape(-1, F.shape[-1]))


def _plain_cross_entropy(logits, t):
    z = logits - logits.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    total = ez.sum(axis=-1, keepdims=True)
    loss = -(np.take_along_axis(z, t[..., None], axis=-1) - np.log(total))[..., 0]
    return loss, ez / total - np.eye(logits.shape[-1])[t]


def _assert_same_bits(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype, what
    if got.dtype == np.float64:
        got, want = got.view(np.uint64), want.view(np.uint64)
    assert np.array_equal(got, want), what


def _padded_stack(rng, lens, d):
    """(F (B, T, d) zero-padded to the longest of lens, mask (B, T))."""
    mask = np.arange(max(lens)) < np.array(lens)[:, None]
    return np.where(mask[..., None], rng.normal(size=mask.shape + (d,)), 0.0), mask


@pytest.mark.parametrize("lens", [(1, 3, 5, 2), (13, 4, 9, 1, 13)], ids=["T5", "T13"])
@pytest.mark.parametrize("K", [1, 6])
def test_attention_kernels_keep_the_plain_expressions_bits(lens, K):
    rng = np.random.default_rng(sum(lens) + K)
    d, Z, beta = 5, 16, 20.0
    F, mask = _padded_stack(rng, lens, d)
    Wm, Ws = rng.normal(size=(K, d)), rng.normal(size=(K, d))
    de = rng.normal(size=(len(lens), K, F.shape[1]))
    cache = attend_forward(F, Wm, Ws, beta, Z, mask)
    want = _plain_attend_forward(F, Wm, Ws, beta, Z, mask)
    for key in want:
        _assert_same_bits(cache[key], want[key], key)
    for name, got, plain in zip(("dW_mean", "dW_std"), attend_backward(cache, de),
                                _plain_attend_backward(want, F, beta, Z, de)):
        _assert_same_bits(got, plain, name)
    # self-attention: softmaxed frame scores, masked to -inf, and their gradient
    attn = self_attention_forward(F, Wm, mask)
    scores = np.where(mask[..., None, :], Wm @ np.swapaxes(F, -1, -2), -np.inf)
    _assert_same_bits(attn["a"], scores, "scores")
    _assert_same_bits(attn["e"], _plain_softmax(scores, -1), "self-attention e")
    dscores = np.swapaxes(_plain_softmax_backward(attn["e"], de, -1), -1, -2)
    _assert_same_bits(self_attention_backward(attn, de)[0],
                      dscores.reshape(-1, K).T @ F.reshape(-1, d), "dW_attn")


@pytest.mark.parametrize("with_scale", [False, True])
def test_gaussian_pool_keeps_the_plain_expressions_bits(with_scale):
    # narrow heads far from most frames clamp at _LOG_FLOOR, on both sides of T = 8
    rng = np.random.default_rng(21)
    for lens in ((2, 6, 4), (12, 3, 9)):
        B, K, T = len(lens), 4, max(lens)
        mask = np.arange(T) < np.array(lens)[:, None]
        mu = rng.uniform(0.0, 1.0, size=(B, K))
        sigma = np.concatenate([rng.uniform(0.05, 0.5, size=(B, K - 1)), np.full((B, 1), 1e-3)],
                               axis=1)
        scale = rng.normal(size=K) * 2.0 if with_scale else None
        cache = gaussian_pool_forward(mu, sigma, 12, mask, scale)
        want = _plain_pool_forward(mu, sigma, 12, mask, scale)
        assert want["clamped"].any() and not want["clamped"].all()
        for key in want:
            _assert_same_bits(cache[key], want[key], key)
        de = rng.normal(size=(B, K, T))
        got = gaussian_pool_backward(cache, de)
        for name, g, w in zip(("dmu", "dsigma", "dscale"), got, _plain_pool_backward(want, de, scale)):
            assert (g is None) == (w is None) == (name == "dscale" and not with_scale)
            if w is not None:
                _assert_same_bits(g, w, name)


def test_a_floored_sigma_keeps_the_plain_expressions_bits():
    # nonnegative frames and a strongly negative std row drive every sigmoid of
    # the first head to 0, so its sigma sits at the floor and gets no gradient
    rng = np.random.default_rng(22)
    F, mask = _padded_stack(rng, (7, 3, 10), 4)
    F = np.abs(F) + mask[..., None]
    Wm, Ws = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    Ws[0] = -500.0
    cache = attend_forward(F, Wm, Ws, 5.0, 12, mask)
    want = _plain_attend_forward(F, Wm, Ws, 5.0, 12, mask)
    assert want["sigma_floored"][:, 0].all() and not want["sigma_floored"][:, 1:].any()
    for key in want:
        _assert_same_bits(cache[key], want[key], key)
    de = rng.normal(size=(3, 3, 10))
    for got, plain in zip(attend_backward(cache, de), _plain_attend_backward(want, F, 5.0, 12, de)):
        _assert_same_bits(got, plain, "gradient")


def test_cross_entropy_keeps_the_plain_expressions_bits():
    # a model batch (B, c) and stacked episode rows (E, n, c)
    rng = np.random.default_rng(23)
    for shape in ((64, 20), (7, 5, 3), (4, 9)):
        logits = rng.normal(0, 4, size=shape)
        t = rng.integers(0, shape[-1], size=shape[:-1])
        for got, want, what in zip(cross_entropy(logits, t), _plain_cross_entropy(logits, t),
                                   ("loss", "dlogits")):
            _assert_same_bits(got, want, what)


def _snapshot(*values):
    """The bytes of every array in values, dicts' values included."""
    out = []
    for v in values:
        for a in (v.values() if isinstance(v, dict) else [v]):
            out.append(np.asarray(a).tobytes() if a is not None else None)
    return out


@pytest.mark.parametrize("kind", [k for k, row in _KINDS.items() if row[2] is not None])
def test_every_kernel_leaves_its_inputs_and_the_cache_it_is_given_untouched(kind):
    # the finite-difference tests reuse a cache for every backward, which holds
    # only while no kernel writes into what it was handed
    rng = np.random.default_rng(24)
    F, mask = _padded_stack(rng, (9, 2, 6), 4)
    cfg = ModelConfig(kind=kind, num_gaussians=3, feature_dim=4, beta=20.0, Z=12)
    init, forward, backward, _ = _KINDS[kind]
    params = init(rng, 3, cfg)
    before = _snapshot(F, mask, params)
    cache = forward(F, params, cfg, mask)
    assert _snapshot(F, mask, params) == before
    de = rng.normal(size=cache["e"].shape)
    kept = _snapshot(cache, de)
    first = backward(cache, de)
    assert _snapshot(cache, de) == kept and _snapshot(F, mask, params) == before
    assert _snapshot(*backward(cache, de)) == _snapshot(*first)


def test_the_shared_kernels_leave_their_inputs_untouched():
    rng = np.random.default_rng(25)
    _, mask = _padded_stack(rng, (3, 9), 1)
    scores = rng.normal(size=(2, 9, 3))
    before = _snapshot(scores, mask)
    soft_argmax(scores, 30.0, mask)
    assert _snapshot(scores, mask) == before
    mu, sigma, scale = rng.uniform(size=(2, 3)), rng.uniform(0.1, 0.4, size=(2, 3)), rng.normal(size=3)
    for s in (None, scale):
        before = _snapshot(mu, sigma, mask, s)
        cache = gaussian_pool_forward(mu, sigma, 9, mask, s)
        assert _snapshot(mu, sigma, mask, s) == before
        de = rng.normal(size=(2, 3, 9))
        kept = _snapshot(cache, de)
        gaussian_pool_backward(cache, de)
        assert _snapshot(cache, de) == kept
