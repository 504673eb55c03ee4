"""Whole-model forward/backward checks across the configuration grid."""

import copy
import zlib

import numpy as np
import pytest

from clta.errors import ConfigError, ShapeError
from clta import model as model_mod
from clta.model import MODEL_KINDS, Model, ModelConfig, descriptor, loss_and_grads
from clta.numerics import finite_diff_check


def _small_cfg(kind, classifier="softmax", fusion="average", stage="post",
               batch_norm=False, Z=7):
    return ModelConfig(kind=kind, classifier=classifier, fusion=fusion,
                       num_gaussians=2, beta=10.0, Z=Z, feature_dim=3, hidden=5,
                       num_classes=3, projection_stage=stage, dropout=0.0,
                       batch_norm=batch_norm)


def _small_batch(rng, d=3):
    return [(rng.standard_normal((t, d)), int(rng.integers(0, 3))) for t in (3, 5)]


def _randomize_head(model, rng):
    # zero-init classifier weights pass no gradient to the attention
    if model.cfg.classifier == "softmax":
        model.params["cls_W"] = rng.standard_normal(model.params["cls_W"].shape) * 0.5
        model.params["cls_b"] = rng.standard_normal(model.params["cls_b"].shape) * 0.1
    if "soft_logits" in model.params:
        model.params["soft_logits"] = rng.standard_normal(
            model.params["soft_logits"].shape) * 0.3


# every model kind, both classifiers, both fusions, both projection stages
GRID = [(k, clf, fus, st)
        for k in MODEL_KINDS
        for clf in ("softmax", "cosine")
        for fus, st in (("average", "post"), ("soft_weight", "pre"))]


@pytest.mark.parametrize("kind,classifier,fusion,stage", GRID)
def test_gradients_match_finite_differences(kind, classifier, fusion, stage):
    rng = np.random.default_rng(
        zlib.crc32("/".join((kind, classifier, fusion, stage)).encode()))
    model = Model(_small_cfg(kind, classifier, fusion, stage), rng)
    _randomize_head(model, rng)
    batch = _small_batch(rng)

    def loss_fn(params):
        model.params = params
        return loss_and_grads(model, batch, train=False)

    err = finite_diff_check(loss_fn, model.params)
    assert err < 1e-5, f"{kind}/{classifier}/{fusion}/{stage}: fd error {err:.3e}"


def test_gradients_with_batch_norm():
    rng = np.random.default_rng(11)
    model = Model(_small_cfg("clta", batch_norm=True), rng)
    _randomize_head(model, rng)
    # shift the running stats away from the identity transform
    model.bn_mean = rng.standard_normal(5) * 0.2
    model.bn_var = np.abs(rng.standard_normal(5)) + 0.5
    batch = _small_batch(rng)

    def loss_fn(params):
        model.params = params
        return loss_and_grads(model, batch, train=False)

    assert finite_diff_check(loss_fn, model.params) < 1e-6


# T=1 with a large Z: a one-frame video's sigma floor (0.5 T/Z) is below the
# longer video's, so a floor taken from the padded length would show
@pytest.mark.parametrize("T,Z", [(3, 7), (1, 2000)])
@pytest.mark.parametrize("kind,classifier,fusion,stage", GRID)
def test_padded_row_equals_the_video_run_alone(kind, classifier, fusion, stage, T, Z):
    rng = np.random.default_rng(zlib.crc32(f"{kind}/{classifier}/{stage}/{T}".encode()))
    model = Model(_small_cfg(kind, classifier, fusion, stage, Z=Z), rng)
    _randomize_head(model, rng)
    short, longer = rng.standard_normal((T, 3)), rng.standard_normal((6, 3))
    (F, mask, _), = model_mod._padded_chunks([(short, 0), (longer, 1)])
    assert F.shape == (2, 6, 3) and mask.sum(axis=1).tolist() == [T, 6]
    logits, cache = model.forward_video(F, mask=mask)
    alone, alone_cache = model.forward_video(short)
    assert logits.shape == (2, 3) and alone.shape == (3,)
    assert np.allclose(logits[0], alone, rtol=0, atol=1e-12)
    assert np.allclose(cache["y"][0], descriptor(model, short), rtol=0, atol=1e-12)
    assert np.array_equal(descriptor(model, F, mask), cache["y"])
    for key in ("mu", "sigma"):
        if key in alone_cache.get("attn", {}):
            assert np.allclose(cache["attn"][key][0], alone_cache["attn"][key][0],
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind,classifier,fusion,stage", GRID)
def test_loss_and_grads_match_one_video_at_a_time(kind, classifier, fusion, stage):
    # more videos than one padded chunk holds; the reference is the
    # one-video-per-call loop that loss_and_grads used to run
    rng = np.random.default_rng(zlib.crc32(f"chunks/{kind}/{classifier}/{stage}".encode()))
    model = Model(_small_cfg(kind, classifier, fusion, stage), rng)
    _randomize_head(model, rng)
    batch = [(rng.standard_normal((int(rng.integers(1, 8)), 3)), int(rng.integers(0, 3)))
             for _ in range(model_mod._CHUNK + 1)]
    loss, grads = loss_and_grads(model, batch)
    singles = [loss_and_grads(model, [pair]) for pair in batch]
    assert abs(loss - np.mean([s[0] for s in singles])) < 1e-12
    for k in grads:
        want = np.mean([s[1][k] for s in singles], axis=0)
        assert np.allclose(grads[k], want, rtol=0, atol=1e-12), k


def test_training_mode_matches_one_video_at_a_time():
    # batch norm moves its running stats one video at a time, and the
    # dropout masks are drawn row by row, in the order of the videos
    rng = np.random.default_rng(12)
    model = Model(_small_cfg("clta", batch_norm=True), rng)
    model.cfg.dropout = 0.3
    _randomize_head(model, rng)
    ref = copy.deepcopy(model)
    batch = [(rng.standard_normal((int(rng.integers(1, 8)), 3)), int(rng.integers(0, 3)))
             for _ in range(model_mod._CHUNK + 1)]
    loss, grads = loss_and_grads(model, batch, train=True, rng=np.random.default_rng(5))
    ref_rng = np.random.default_rng(5)
    singles = [loss_and_grads(ref, [pair], train=True, rng=ref_rng) for pair in batch]
    assert abs(loss - np.mean([s[0] for s in singles])) < 1e-12
    for k in grads:
        assert np.allclose(grads[k], np.mean([s[1][k] for s in singles], axis=0),
                           rtol=0, atol=1e-12), k
    assert np.allclose(model.bn_mean, ref.bn_mean, rtol=0, atol=1e-12)
    assert np.allclose(model.bn_var, ref.bn_var, rtol=0, atol=1e-12)


def test_forward_logit_shapes():
    rng = np.random.default_rng(0)
    for kind in MODEL_KINDS:
        model = Model(_small_cfg(kind), rng)
        logits, _ = model.forward_video(rng.standard_normal((4, 3)))
        assert logits.shape == (3,)
        assert np.all(np.isfinite(logits))


def test_descriptor_matches_eval_forward():
    rng = np.random.default_rng(1)
    model = Model(_small_cfg("clta"), rng)
    F = rng.standard_normal((5, 3))
    _, cache = model.forward_video(F, train=False)
    assert np.allclose(descriptor(model, F), cache["y"], atol=1e-15)


def test_dropout_needs_rng_and_changes_output():
    rng = np.random.default_rng(2)
    cfg = _small_cfg("clta")
    cfg.dropout = 0.5
    model = Model(cfg, rng)
    _randomize_head(model, rng)
    F = rng.standard_normal((4, 3))
    with pytest.raises(ConfigError):
        model.forward_video(F, train=True)
    l1, _ = model.forward_video(F, train=True, rng=np.random.default_rng(3))
    l2, _ = model.forward_video(F, train=False)
    assert not np.allclose(l1, l2)


def test_forward_dropout_statistics():
    cfg = ModelConfig(kind="avg", Z=4, feature_dim=1, hidden=200_000, num_classes=2,
                      dropout=0.3)
    model = Model(cfg, np.random.default_rng(0))
    F = np.ones((3, 1))
    _, cache = model.forward_video(F, train=True, rng=np.random.default_rng(1))
    mask = cache["drop_mask"]
    kept = mask > 0
    assert abs(kept.mean() - 0.7) < 0.01
    assert np.allclose(mask[kept], 1.0 / 0.7, atol=1e-12)   # inverted scaling
    assert abs(mask.mean() - 1.0) < 0.01                    # unbiased
    _, cache = model.forward_video(F, train=False)
    assert "drop_mask" not in cache


def test_sldg_forces_soft_fusion():
    cfg = ModelConfig(kind="sldg", fusion="average", num_gaussians=2, Z=5,
                      feature_dim=3, dropout=0.0)
    assert cfg.fusion == "soft_weight"
    model = Model(cfg, np.random.default_rng(0))
    assert "soft_logits" in model.params
    # avg has one summary to fuse: its config records the average fusion it runs
    cfg = ModelConfig(kind="avg", fusion="soft_weight", Z=5, feature_dim=3, dropout=0.0)
    assert cfg.fusion == "average"
    assert "soft_logits" not in Model(cfg, np.random.default_rng(0)).params


def test_from_config_roundtrip():
    rng = np.random.default_rng(5)
    model = Model(_small_cfg("clta", fusion="soft_weight"), rng)
    _randomize_head(model, rng)
    rebuilt = Model.from_config(model.config_dict(), model.params)
    F = rng.standard_normal((4, 3))
    a, _ = model.forward_video(F)
    b, _ = rebuilt.forward_video(F)
    assert np.allclose(a, b, atol=1e-15)


def test_from_config_rejects_bad_checkpoints():
    rng = np.random.default_rng(6)
    model = Model(_small_cfg("clta"), rng)
    partial = dict(model.params)
    del partial["W_mean"]
    with pytest.raises(ConfigError):
        Model.from_config(model.config_dict(), partial)
    wrong = dict(model.params)
    wrong["W_mean"] = np.zeros((1, 1))
    with pytest.raises(ShapeError):
        Model.from_config(model.config_dict(), wrong)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(kind="nope")
    with pytest.raises(ConfigError):
        ModelConfig(classifier="nope")
    with pytest.raises(ConfigError):
        ModelConfig(beta=0.0)
    with pytest.raises(ConfigError):
        ModelConfig(num_gaussians=0)
    with pytest.raises(ConfigError):
        ModelConfig(dropout=1.0)


def test_loss_and_grads_empty_batch():
    model = Model(_small_cfg("avg"), np.random.default_rng(0))
    with pytest.raises(ConfigError):
        loss_and_grads(model, [])
