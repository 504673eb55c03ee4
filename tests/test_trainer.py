"""Unit checks for the Adam trainer and its schedule."""

import numpy as np
import pytest

from clta import trainer as trainer_mod
from clta.errors import ConfigError, TrainingError
from clta.model import Model, ModelConfig, loss_and_grads
from clta.trainer import AdamState, TrainConfig, adam_step, lr_at, train


def test_lr_schedule_step_decay():
    cfg = TrainConfig(lr0=1e-3, decay_every=5)
    assert lr_at(0, cfg) == 1e-3
    assert lr_at(4, cfg) == 1e-3
    assert lr_at(5, cfg) == 5e-4
    assert lr_at(14, cfg) == 2.5e-4
    with pytest.raises(ConfigError):
        lr_at(-1, cfg)


def test_train_config_validation():
    for bad in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="lr0 must be finite and > 0"):
            TrainConfig(lr0=bad)
    with pytest.raises(ConfigError):
        TrainConfig(dropout_rate=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)


def test_adam_step_matches_hand_computation():
    # single step from zero moments: update = lr * sign-ish g / (|g| + eps)
    p = {"x": np.array([1.0, -2.0])}
    g = {"x": np.array([0.5, -3.0])}
    state = AdamState()
    adam_step(p, g, state, lr=0.1)
    mhat = g["x"]                   # m/(1-b1) after one step
    vhat = g["x"] ** 2              # v/(1-b2)
    expected = np.array([1.0, -2.0]) - 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
    assert np.allclose(p["x"], expected, atol=1e-12)
    assert state.step == 1


def test_adam_step_equals_the_out_of_place_formula_bit_for_bit():
    # the moments and the update are made in place with the operations, in
    # the order, of the textbook formula; the gradients are left as they were
    rng = np.random.default_rng(4)
    shapes = {"W": (3, 16, 5), "b": (3, 1, 5)}
    p = {k: rng.normal(size=s) for k, s in shapes.items()}
    want = {k: v.copy() for k, v in p.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    state = AdamState()
    for step in range(1, 6):
        g = {k: rng.normal(size=s) * 10.0 ** -step for k, s in shapes.items()}
        kept = {k: x.copy() for k, x in g.items()}
        adam_step(p, g, state, lr=0.01)
        for k in shapes:
            m[k] = 0.9 * m[k] + (1 - 0.9) * g[k]
            v[k] = 0.999 * v[k] + (1 - 0.999) * g[k] * g[k]
            want[k] -= (0.01 * (m[k] / (1 - 0.9 ** step))
                        / (np.sqrt(v[k] / (1 - 0.999 ** step)) + 1e-8))
            assert g[k].tobytes() == kept[k].tobytes()
            assert p[k].tobytes() == want[k].tobytes()
            assert state.m[k].tobytes() == m[k].tobytes()
            assert state.v[k].tobytes() == v[k].tobytes()
    assert state.step == 5


def test_adam_rejects_nonfinite_gradients():
    p = {"x": np.zeros(2)}
    with pytest.raises(TrainingError):
        adam_step(p, {"x": np.array([np.nan, 0.0])}, AdamState(), 0.1)


@pytest.mark.parametrize("g", [1e200, -1e160, np.inf, np.nan])
def test_adam_rejects_a_gradient_whose_square_overflows_before_moving_it(g):
    # a finite gradient past ~1e154 squares to inf: the second moment would be
    # inf and every later step of that parameter silently zero
    p = {"a": np.ones(2), "b": np.ones(3)}
    with pytest.raises(TrainingError, match="parameter 'b' is not finite or its square"):
        adam_step(p, {"a": np.ones(2), "b": np.array([1.0, g, 1.0])}, AdamState(), 0.1)
    assert np.array_equal(p["b"], np.ones(3))


def test_adam_rejects_a_non_positive_or_non_finite_lr():
    for bad in (0.0, -0.1, float("nan"), float("inf")):
        p = {"x": np.ones(2)}
        with pytest.raises(ConfigError, match="lr must be finite and > 0"):
            adam_step(p, {"x": np.ones(2)}, AdamState(), bad)
        assert np.array_equal(p["x"], np.ones(2))


def test_adam_converges_on_quadratic():
    p = {"x": np.array([5.0, -3.0])}
    state = AdamState()
    for _ in range(2000):
        adam_step(p, {"x": 2.0 * p["x"]}, state, lr=0.05)
    assert np.linalg.norm(p["x"]) < 1e-3


def _toy_problem(seed=0, n_classes=3, per_class=8, d=4):
    """Linearly separable: class c lives along coordinate c."""
    rng = np.random.default_rng(seed)
    pairs = []
    for c in range(n_classes):
        for _ in range(per_class):
            T = int(rng.integers(3, 7))
            F = rng.normal(0, 0.05, size=(T, d))
            F[:, c] += 1.0
            pairs.append((F, c))
    return pairs


def _toy_model(seed=0, kind="avg", d=4, n_classes=3, dropout=0.0):
    cfg = ModelConfig(kind=kind, num_gaussians=2, beta=10.0, Z=8, feature_dim=d,
                      hidden=8, num_classes=n_classes, dropout=dropout)
    return Model(cfg, np.random.default_rng(seed))


def test_training_reduces_loss_and_fits_separable_data():
    pairs = _toy_problem()
    model = _toy_model()
    cfg = TrainConfig(lr0=5e-3, epochs=15, batch_size=8, dropout_rate=0.0, seed=0)
    records = train(model, pairs, cfg)
    assert len(records) == 15
    assert records[-1].train_loss < records[0].train_loss
    assert loss_and_grads(model, pairs)[2] == len(pairs)


def test_training_is_deterministic_in_the_seed():
    cfg = TrainConfig(lr0=5e-3, epochs=4, batch_size=8, dropout_rate=0.5, seed=7)
    models = []
    for _ in range(2):
        model = _toy_model(dropout=0.5)
        train(model, _toy_problem(), cfg)
        models.append(model)
    for k in models[0].params:
        assert np.array_equal(models[0].params[k], models[1].params[k])


def test_best_validation_epoch_is_restored():
    pairs = _toy_problem()
    model = _toy_model()
    cfg = TrainConfig(lr0=5e-3, epochs=5, batch_size=8, dropout_rate=0.0, seed=0)
    snapshots = []

    def val_metric(m):
        snapshots.append({k: v.copy() for k, v in m.params.items()})
        return 1.0 if len(snapshots) == 2 else 0.0  # epoch 1 is "best"

    train(model, pairs, cfg, val_metric=val_metric)
    assert len(snapshots) == 5
    for k in model.params:
        assert np.array_equal(model.params[k], snapshots[1][k])


def test_val_set_accuracy_recorded():
    pairs = _toy_problem()
    model = _toy_model()
    cfg = TrainConfig(lr0=5e-3, epochs=3, batch_size=8, dropout_rate=0.0, seed=0)
    records = train(model, pairs, cfg, val_metric=lambda m: loss_and_grads(m, pairs[:6])[2] / 6)
    assert all(r.val_acc is not None for r in records)


def test_empty_training_set_raises():
    with pytest.raises(ConfigError):
        train(_toy_model(), [], TrainConfig())


def test_dropout_settings_must_agree():
    # the model's dropout is what training uses and what its config records
    model = _toy_model(dropout=0.2)
    with pytest.raises(ConfigError, match="dropout"):
        train(model, _toy_problem(), TrainConfig())
    assert model.cfg.dropout == 0.2


def test_mixed_length_batches_train_in_padded_chunks():
    # one batch of mixed lengths goes through the model zero-padded, masked
    pairs = _toy_problem(per_class=4)
    assert len({F.shape[0] for F, _ in pairs}) > 1
    model = _toy_model(kind="clta")
    records = train(model, pairs, TrainConfig(lr0=5e-3, epochs=3, batch_size=12,
                                              dropout_rate=0.0, seed=1))
    assert np.isfinite(records[-1].train_loss)


def test_train_runs_no_separate_evaluation_pass(monkeypatch):
    # train_acc comes from the gradient pass: every forward is handed the
    # dropout generator, once per video and epoch, also when a val_metric is given
    modes = []
    forward = Model.forward_video

    def recording_forward(self, F, mask, rng=None):
        modes.extend([rng is not None] * len(F))
        return forward(self, F, mask, rng)

    monkeypatch.setattr(Model, "forward_video", recording_forward)
    pairs = _toy_problem()
    records = train(_toy_model(), pairs,
                    TrainConfig(lr0=5e-3, epochs=3, batch_size=8, dropout_rate=0.0, seed=0),
                    val_metric=lambda m: 0.5)
    assert modes == [True] * (3 * len(pairs))
    assert len(records) == 3 and all(0.0 <= r.train_acc <= 1.0 for r in records)


def test_train_loss_is_the_per_video_mean_loss(monkeypatch):
    # 24 videos in batches of 10, 10 and 4: each video counts once, so the
    # short last batch weighs 4/24 of the epoch, not 1/3
    pairs = _toy_problem()
    seen = []   # (mean loss, videos) per call, in call order
    loss_and_grads = trainer_mod.loss_and_grads

    def recording(model, batch, **kwargs):
        out = loss_and_grads(model, batch, **kwargs)
        seen.append((out[0], len(batch)))
        return out

    monkeypatch.setattr(trainer_mod, "loss_and_grads", recording)
    cfg = TrainConfig(lr0=5e-3, epochs=3, batch_size=10, dropout_rate=0.0, seed=0)
    records = train(_toy_model(), pairs, cfg)
    assert [n for _, n in seen] == [10, 10, 4] * cfg.epochs
    for e, record in enumerate(records):
        batches = seen[3 * e:3 * e + 3]
        assert record.train_loss == sum(loss * n for loss, n in batches) / len(pairs)
        assert record.train_loss != np.mean([loss for loss, _ in batches])


@pytest.mark.parametrize("kind,dropout", [("avg", 0.0), ("clta", 0.0), ("avg", 0.3), ("clta", 0.3)])
def test_train_acc_is_the_accuracy_of_the_training_mode_logits(monkeypatch, kind, dropout):
    pairs = _toy_problem()
    target = {F.tobytes(): c for F, c in pairs}
    seen = []   # (correct, given a dropout generator) per video, in forward order
    forward = Model.forward_video

    def recording_forward(self, F, mask, rng=None):
        logits, cache = forward(self, F, mask, rng)
        for row, m, pred in zip(F, mask, logits.argmax(axis=-1)):
            seen.append((pred == target[row[m].tobytes()], rng is not None))
        return logits, cache

    monkeypatch.setattr(Model, "forward_video", recording_forward)
    cfg = TrainConfig(lr0=5e-3, epochs=6, batch_size=8, dropout_rate=dropout, seed=2)
    records = train(_toy_model(kind=kind, dropout=dropout), pairs, cfg)
    assert len(seen) == cfg.epochs * len(pairs) and all(t for _, t in seen)
    per_epoch = np.array([ok for ok, _ in seen]).reshape(cfg.epochs, len(pairs))
    assert [r.train_acc for r in records] == list(per_epoch.mean(axis=1))
    assert any(0.0 < r.train_acc < 1.0 for r in records)
