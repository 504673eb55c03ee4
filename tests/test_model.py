"""Whole-model forward/backward checks across the configuration grid."""

import copy
import dataclasses
import weakref
import zlib

import numpy as np
import pytest

from clta.errors import ConfigError, ShapeError
from clta import model as model_mod
from clta.model import MODEL_KINDS, Model, ModelConfig, descriptor, loss_and_grads
from clta.numerics import finite_diff_check


def _small_cfg(kind, classifier="softmax", fusion="average", stage="post", Z=7):
    return ModelConfig(kind=kind, classifier=classifier, fusion=fusion,
                       num_gaussians=2, beta=10.0, Z=Z, feature_dim=3, hidden=5,
                       num_classes=3, projection_stage=stage, dropout=0.0)


def _small_batch(rng, d=3):
    return [(rng.standard_normal((t, d)), int(rng.integers(0, 3))) for t in (3, 5)]


def _alone(F):
    """(F (1, T, d), mask (1, T)): one (T, d) video as a stack of one, every frame kept."""
    return F[None], np.ones((1, len(F)), dtype=bool)


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
        return loss_and_grads(model, batch)[:2]

    err = finite_diff_check(loss_fn, model.params)
    assert err < 1e-5, f"{kind}/{classifier}/{fusion}/{stage}: fd error {err:.3e}"


@pytest.mark.parametrize("kind,classifier,fusion,stage", GRID)
def test_training_mode_gradients_match_finite_differences(kind, classifier, fusion, stage):
    # the gradient that training follows, dropout and all: every loss call
    # draws the same masks from a freshly seeded generator
    rng = np.random.default_rng(
        zlib.crc32("/".join((kind, classifier, fusion, stage)).encode()))
    cfg = dataclasses.replace(_small_cfg(kind, classifier, fusion, stage), hidden=16, dropout=0.3)
    model = Model(cfg, rng)
    _randomize_head(model, rng)
    batch = _small_batch(rng)
    # a cosine head is scale invariant, so a descriptor row with one live unit
    # gives that unit an exactly zero gradient, which the difference reads as
    # rounding noise; hidden 16 leaves every row here at least two
    (F, mask, _), = model_mod._padded_chunks(batch)
    y = model.forward_video(F, mask, np.random.default_rng(0))[1]["y"]
    assert ((y != 0).sum(axis=1) >= 2).all()

    def loss_fn(params):
        model.params = params
        return loss_and_grads(model, batch, np.random.default_rng(0))[:2]

    err = finite_diff_check(loss_fn, model.params)
    assert err < 1e-5, f"{kind}/{classifier}/{fusion}/{stage}: fd error {err:.3e}"


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
    logits, cache = model.forward_video(F, mask)
    alone, alone_cache = model.forward_video(*_alone(short))
    assert logits.shape == (2, 3) and alone.shape == (1, 3)
    assert np.allclose(logits[0], alone[0], rtol=0, atol=1e-12)
    # the benchmark compares descriptors of one (T, d) video bit for bit: a stack of one
    one = descriptor(model, short)
    stacked = descriptor(model, *_alone(short))
    assert one.shape == (1, model.cfg.hidden)
    assert np.array_equal(one.view(np.uint64), stacked.view(np.uint64))
    assert np.allclose(cache["y"][0], one[0], rtol=0, atol=1e-12)
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
    loss, grads, _ = loss_and_grads(model, batch)
    singles = [loss_and_grads(model, [pair]) for pair in batch]
    assert abs(loss - np.mean([s[0] for s in singles])) < 1e-12
    for k in grads:
        want = np.mean([s[1][k] for s in singles], axis=0)
        assert np.allclose(grads[k], want, rtol=0, atol=1e-12), k


@pytest.mark.parametrize("stage", ["post", "pre"])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_summaries_are_the_recorded_weights_times_the_frames(kind, stage):
    # every kind pools the frames G it attends over through the weights e it
    # records, which are what clta dump-attention writes: v = e @ G
    rng = np.random.default_rng(zlib.crc32(f"{kind}/{stage}".encode()))
    model = Model(ModelConfig(kind=kind, num_gaussians=3, beta=10.0, Z=40, feature_dim=8,
                              hidden=6, num_classes=3, projection_stage=stage, dropout=0.0),
                  rng)
    # a nonzero bias makes the padded frames of G nonzero in the pre stage
    model.params["proj_b"] = rng.standard_normal(6)
    lens = np.array([40, 23, 7, 1, 13, 31])
    mask = np.arange(40) < lens[:, None]
    F = np.where(mask[..., None], rng.standard_normal((6, 40, 8)), 0.0)
    cache = model.forward_video(F, mask)[1]
    G = np.maximum(cache["pre_x0"], 0.0) if stage == "pre" else F
    e, v = cache["attn"]["e"], cache["v"]
    assert np.array_equal(v, e @ G)
    assert np.all(np.where(mask[:, None, :], True, e == 0.0))
    assert np.allclose(e.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
    if kind == "avg":
        means = np.array([g[:t].mean(axis=0) for g, t in zip(G, lens)])
        assert np.allclose(v[:, 0], means, rtol=0, atol=1e-15)


def test_padded_chunks_take_every_pair_once_in_stable_length_order():
    rng = np.random.default_rng(14)
    lens = rng.integers(1, 9, size=2 * model_mod._CHUNK + 5)   # many ties
    pairs = [(rng.standard_normal((T, 3)), i) for i, T in enumerate(lens)]
    chunks = list(model_mod._padded_chunks(pairs))
    taken = np.concatenate([ids for _, _, ids in chunks])
    assert taken.tolist() == sorted(range(len(pairs)), key=lambda i: lens[i])
    for F, mask, ids in chunks:
        assert 0 < len(ids) <= model_mod._CHUNK
        assert F.shape == (len(ids), lens[ids].max(), 3)
        assert mask.sum(axis=1).tolist() == lens[ids].tolist()
        assert np.array_equal(mask, np.arange(F.shape[1]) < lens[ids, None])
        assert not np.any(F[~mask])
        for row, i in zip(F, ids):
            assert np.array_equal(row[:lens[i]], pairs[i][0])


class _ZerosSpy:
    """numpy for the model module, with np.zeros recording each padded (B, T, d)
    stack it makes and how many stacks it made before are still reachable."""

    def __init__(self):
        self.stacks, self.alive = [], []

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, shape, *args, **kwargs):
        out = np.zeros(shape, *args, **kwargs)
        if np.ndim(shape) == 1 and len(shape) == 3:
            self.alive.append(sum(ref() is not None for ref in self.stacks))
            self.stacks.append(weakref.ref(out))
        return out


@pytest.mark.parametrize("kind,stage", [("clta", "post"), ("selfattn", "pre")])
def test_a_batch_holds_one_padded_chunk_at_a_time(monkeypatch, kind, stage):
    # the previous chunk's stack and forward cache are gone when the next is padded
    rng = np.random.default_rng(21)
    cfg = dataclasses.replace(_small_cfg(kind, stage=stage), Z=9)
    model = Model(cfg, rng)
    batch = [(rng.standard_normal((int(t), 3)), int(rng.integers(0, 3)))
             for t in rng.integers(1, 10, 2 * model_mod._CHUNK + 3)]
    expected = loss_and_grads(model, batch)
    spy = _ZerosSpy()
    monkeypatch.setattr(model_mod, "np", spy)
    loss, grads, correct = loss_and_grads(model, batch)
    assert spy.alive == [0, 0, 0]
    assert loss == expected[0] and correct == expected[2]
    assert all(_same_bits(grads[k], expected[1][k]) for k in grads)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_float32_features_give_the_bits_of_their_float64_copies():
    # feature files load as float32; the model must compute exactly what it
    # computes on float64 copies of the same values
    rng = np.random.default_rng(16)
    F32 = [rng.standard_normal((int(T), 3)).astype(np.float32) for T in rng.integers(1, 8, 9)]
    F64 = [F.astype(np.float64) for F in F32]
    targets = [int(t) for t in rng.integers(0, 3, len(F32))]
    for kind in ("clta", "avg"):
        model = Model(_small_cfg(kind), rng)
        model.cfg.dropout = 0.3
        _randomize_head(model, rng)
        a, b = (loss_and_grads(model, list(zip(F, targets)), np.random.default_rng(3))
                for F in (F32, F64))
        assert _same_bits(a[0], b[0]) and a[2] == b[2], kind
        for k in model.params:
            assert _same_bits(a[1][k], b[1][k]), (kind, k)
        (X32, M32, _), = model_mod._padded_chunks([(F, 0) for F in F32])
        (X64, M64, _), = model_mod._padded_chunks([(F, 0) for F in F64])
        assert X32.dtype == X64.dtype == np.float64
        assert _same_bits(descriptor(model, X32, M32), descriptor(model, X64, M64)), kind
        assert _same_bits(descriptor(model, F32[0]), descriptor(model, F64[0])), kind
    # one chunk of both dtypes comes out float64 with every value exact
    mixed = [(F, i) for i, F in enumerate(F32[:4] + F64[4:])]
    (X, mask, ids), = model_mod._padded_chunks(mixed)
    assert X.dtype == np.float64 and not np.any(X[~mask])
    for row, i in zip(X, ids):
        assert np.array_equal(row[:len(F64[i])], F64[i])


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_forward_rejects_videos_longer_than_Z(kind):
    rng = np.random.default_rng(15)
    model = Model(_small_cfg(kind, Z=4), rng)
    model.forward_video(*_alone(rng.standard_normal((4, 3))))
    with pytest.raises(ConfigError, match="exceeds Z=4"):
        model.forward_video(*_alone(rng.standard_normal((5, 3))))
    with pytest.raises(ConfigError, match="exceeds Z=4"):
        loss_and_grads(model, [(rng.standard_normal((2, 3)), 0),
                               (rng.standard_normal((5, 3)), 1)])


def test_training_mode_matches_one_video_at_a_time():
    # the dropout masks are drawn row by row, in the order the chunks take
    # the videos: stable length order
    rng = np.random.default_rng(12)
    model = Model(_small_cfg("clta"), rng)
    model.cfg.dropout = 0.3
    _randomize_head(model, rng)
    ref = copy.deepcopy(model)
    batch = [(rng.standard_normal((int(rng.integers(1, 8)), 3)), int(rng.integers(0, 3)))
             for _ in range(model_mod._CHUNK + 1)]
    loss, grads, _ = loss_and_grads(model, batch, np.random.default_rng(5))
    ref_rng = np.random.default_rng(5)
    singles = [loss_and_grads(ref, [pair], ref_rng)
               for pair in sorted(batch, key=lambda p: len(p[0]))]
    assert abs(loss - np.mean([s[0] for s in singles])) < 1e-12
    for k in grads:
        assert np.allclose(grads[k], np.mean([s[1][k] for s in singles], axis=0),
                           rtol=0, atol=1e-12), k


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("kind", ["clta", "avg"])
def test_the_generator_is_drawn_from_exactly_when_there_is_dropout(kind, dropout):
    # the generator only feeds dropout: with none it is never drawn from, and
    # leaving it out gives the same bits; with dropout each chunk takes one
    # draw per descriptor entry, in chunk order
    rng = np.random.default_rng(zlib.crc32(f"rng/{kind}/{dropout}".encode()))
    model = Model(dataclasses.replace(_small_cfg(kind), dropout=dropout), rng)
    _randomize_head(model, rng)
    batch = [(rng.standard_normal((int(rng.integers(1, 8)), 3)), int(rng.integers(0, 3)))
             for _ in range(model_mod._CHUNK + 1)]
    assert len(list(model_mod._padded_chunks(batch))) == 2
    gen, untouched = np.random.default_rng(4), np.random.default_rng(4)
    drawn = loss_and_grads(model, batch, gen)
    plain = loss_and_grads(model, batch)
    if dropout == 0.0:
        assert gen.bit_generator.state == untouched.bit_generator.state
        assert _same_bits(drawn[0], plain[0]) and drawn[2] == plain[2]
        assert all(_same_bits(drawn[1][k], plain[1][k]) for k in model.params)
    else:
        untouched.random(len(batch) * model.cfg.hidden)
        assert gen.bit_generator.state == untouched.bit_generator.state
        assert drawn[0] != plain[0]


def test_forward_logit_shapes():
    rng = np.random.default_rng(0)
    for kind in MODEL_KINDS:
        model = Model(_small_cfg(kind), rng)
        logits, _ = model.forward_video(*_alone(rng.standard_normal((4, 3))))
        assert logits.shape == (1, 3)
        assert np.all(np.isfinite(logits))


def test_descriptor_matches_eval_forward():
    rng = np.random.default_rng(1)
    model = Model(_small_cfg("clta"), rng)
    F = rng.standard_normal((5, 3))
    _, cache = model.forward_video(*_alone(F))
    assert np.allclose(descriptor(model, F), cache["y"], atol=1e-15)


def test_dropout_needs_rng_and_changes_output():
    rng = np.random.default_rng(2)
    cfg = _small_cfg("clta")
    cfg.dropout = 0.5
    model = Model(cfg, rng)
    _randomize_head(model, rng)
    F = rng.standard_normal((4, 3))
    l1, _ = model.forward_video(*_alone(F), np.random.default_rng(3))
    l2, _ = model.forward_video(*_alone(F))
    assert not np.allclose(l1, l2)


def test_forward_dropout_statistics():
    cfg = ModelConfig(kind="avg", Z=4, feature_dim=1, hidden=200_000, num_classes=2,
                      dropout=0.3)
    model = Model(cfg, np.random.default_rng(0))
    F = np.ones((3, 1))
    _, cache = model.forward_video(*_alone(F), np.random.default_rng(1))
    mask = cache["drop_mask"]
    kept = mask > 0
    assert abs(kept.mean() - 0.7) < 0.01
    assert np.allclose(mask[kept], 1.0 / 0.7, atol=1e-12)   # inverted scaling
    assert abs(mask.mean() - 1.0) < 0.01                    # unbiased
    _, cache = model.forward_video(*_alone(F))
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
    a, _ = model.forward_video(*_alone(F))
    b, _ = rebuilt.forward_video(*_alone(F))
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


_BETA_RANGE = r"beta must be a number in \[1e-300, 1e300\], got"


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(kind="nope")
    with pytest.raises(ConfigError):
        ModelConfig(classifier="nope")
    with pytest.raises(ConfigError):
        ModelConfig(fusion="nope")
    with pytest.raises(ConfigError):
        ModelConfig(projection_stage="nope")
    # JSON gives NaN and Infinity as floats, true as a bool and 400 digits as an int
    for bad in (0.0, -1.0, float("nan"), float("inf"), -float("inf"), True, False, 10 ** 400,
                "1e3", None):
        with pytest.raises(ConfigError, match=_BETA_RANGE):
            ModelConfig(beta=bad)
    ModelConfig(beta=np.float64(1e3))
    # the init divides W_mean by beta * sqrt(attn_dim); the range keeps that finite
    for stage, dims in (("post", {"feature_dim": 4}), ("pre", {"hidden": 9})):
        for bad in (1e308, 1.0000001e300):
            with pytest.raises(ConfigError, match=_BETA_RANGE):
                ModelConfig(beta=bad, projection_stage=stage, **dims)
        Model(ModelConfig(beta=1e300, projection_stage=stage, **dims), np.random.default_rng(0))
    for name in ("num_gaussians", "Z", "feature_dim", "hidden", "num_classes"):
        for bad in (0, -1):
            with pytest.raises(ConfigError, match=f"{name} must be >= 1, got {bad}"):
                ModelConfig(**{name: bad})
        for bad in (1.5, 2.0, True, np.float64(3.0), "4"):
            with pytest.raises(ConfigError, match=f"{name} must be an integer, got"):
                ModelConfig(**{name: bad})
        ModelConfig(**{name: np.int32(2)})
    with pytest.raises(ConfigError):
        ModelConfig(dropout=1.0)
    # batch norm is gone; the field stays for old callers, and takes only False
    for bad in (True, 1, None):
        with pytest.raises(ConfigError, match="batch norm is no longer supported"):
            ModelConfig(batch_norm=bad)


def test_config_rejects_a_beta_whose_init_scale_overflows():
    # the init scales W_mean by 1 / (beta * sqrt(attn_dim)), which a tiny beta
    # overflows; at attn_dim 4, 3e-309's scale is finite but not its product with
    # a draw above about 1.1, and 1e-308's with a draw above about 3.6
    for stage, dims in (("post", {"feature_dim": 4}), ("pre", {"hidden": 9})):
        for bad in (1e-320, 5e-310, 5e-324, 3e-309, 1e-308, 0.9999999e-300):
            with pytest.raises(ConfigError, match=_BETA_RANGE):
                ModelConfig(beta=bad, projection_stage=stage, **dims)
        Model(ModelConfig(beta=1e-300, projection_stage=stage, **dims), np.random.default_rng(0))


def test_average_fusion_checkpoint_drops_a_soft_logits_block():
    # the forward fuses with soft_logits exactly when it is a parameter, so
    # loading must keep a block the config does not declare out of params
    rng = np.random.default_rng(3)
    model = Model(_small_cfg("clta"), rng)
    _randomize_head(model, rng)
    F = rng.standard_normal((4, 3))
    extra = dict(model.params, soft_logits=np.array([5.0, -5.0]))
    loaded = Model.from_config(model.config_dict(), extra)
    assert "soft_logits" not in loaded.params
    assert np.array_equal(loaded.forward_video(*_alone(F))[0], model.forward_video(*_alone(F))[0])


def test_loss_and_grads_empty_batch():
    model = Model(_small_cfg("avg"), np.random.default_rng(0))
    with pytest.raises(ConfigError):
        loss_and_grads(model, [])
