"""Unit checks for the Adam trainer and its schedule."""

import numpy as np
import pytest

from clta.errors import ConfigError, TrainingError
from clta.model import Model, ModelConfig
from clta.trainer import AdamState, TrainConfig, adam_step, evaluate, lr_at, train


def test_lr_schedule_step_decay():
    cfg = TrainConfig(lr0=1e-3, decay_every=5, decay_factor=0.5)
    assert lr_at(0, cfg) == 1e-3
    assert lr_at(4, cfg) == 1e-3
    assert lr_at(5, cfg) == 5e-4
    assert lr_at(14, cfg) == 2.5e-4
    with pytest.raises(ConfigError):
        lr_at(-1, cfg)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr0=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(dropout_rate=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(decay_factor=0.0)
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
    expected = np.array([1.0, -2.0]) - 0.1 * mhat / (np.sqrt(vhat) + state.eps)
    assert np.allclose(p["x"], expected, atol=1e-12)
    assert state.step == 1


def test_adam_rejects_nonfinite_gradients():
    p = {"x": np.zeros(2)}
    with pytest.raises(TrainingError):
        adam_step(p, {"x": np.array([np.nan, 0.0])}, AdamState(), 0.1)


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


def _toy_model(seed=0, kind="avg", d=4, n_classes=3, batch_norm=False, dropout=0.0):
    cfg = ModelConfig(kind=kind, num_gaussians=2, beta=10.0, Z=8, feature_dim=d,
                      hidden=8, num_classes=n_classes, dropout=dropout,
                      batch_norm=batch_norm)
    return Model(cfg, np.random.default_rng(seed))


def test_training_reduces_loss_and_fits_separable_data():
    pairs = _toy_problem()
    model = _toy_model()
    cfg = TrainConfig(lr0=5e-3, epochs=15, batch_size=8, dropout_rate=0.0, seed=0)
    records = train(model, pairs, cfg)
    assert len(records) == 15
    assert records[-1].train_loss < records[0].train_loss
    _, acc = evaluate(model, pairs)
    assert acc == 1.0


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


def test_best_epoch_restores_its_batch_norm_stats():
    pairs = _toy_problem()
    model = _toy_model(batch_norm=True)
    cfg = TrainConfig(lr0=5e-3, epochs=3, batch_size=8, dropout_rate=0.0, seed=0)
    snapshots = []

    def val_metric(m):
        snapshots.append((m.bn_mean.copy(), m.bn_var.copy()))
        return 1.0 if len(snapshots) == 1 else 0.0  # epoch 0 is "best"

    train(model, pairs, cfg, val_metric=val_metric)
    assert not np.array_equal(snapshots[0][0], snapshots[-1][0])
    assert np.array_equal(model.bn_mean, snapshots[0][0])
    assert np.array_equal(model.bn_var, snapshots[0][1])


def test_val_set_accuracy_recorded():
    pairs = _toy_problem()
    model = _toy_model()
    cfg = TrainConfig(lr0=5e-3, epochs=3, batch_size=8, dropout_rate=0.0, seed=0)
    records = train(model, pairs, cfg, val_metric=lambda m: evaluate(m, pairs[:6])[1])
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
