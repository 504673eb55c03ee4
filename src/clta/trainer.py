"""Base-class training: Adam, step-decay schedule, inverted dropout.

Minibatches of variable-length sequences go through the model in zero-padded
chunks with a frame mask, which gives the loss and gradients of the videos
run one at a time, up to float summation order.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, TrainingError
from .model import Model, _padded_chunks, loss_and_grads
from .numerics import cross_entropy

log = logging.getLogger(__name__)


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class TrainConfig:
    lr0: float = 1e-3
    decay_every: int = 5
    decay_factor: float = 0.5
    batch_size: int = 128
    epochs: int = 20
    dropout_rate: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.lr0 <= 0:
            raise ConfigError(f"lr0 must be > 0, got {self.lr0}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not 0.0 < self.decay_factor <= 1.0:
            raise ConfigError(f"decay_factor must be in (0, 1], got {self.decay_factor}")
        if self.decay_every < 1 or self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("decay_every/batch_size must be >= 1, epochs >= 0")


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place."""
    if lr <= 0:
        raise ConfigError(f"lr must be > 0, got {lr}")
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1 - state.beta2) * g * g
        mhat = state.m[name] / bc1
        vhat = state.v[name] / bc2
        p -= lr * mhat / (np.sqrt(vhat) + state.eps)


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Step decay: lr0 * decay_factor ** floor(epoch / decay_every)."""
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    return cfg.lr0 * cfg.decay_factor ** (epoch // cfg.decay_every)


def evaluate(model: Model, examples) -> tuple[float, float]:
    """Eval-mode mean loss and accuracy over [(F, target), ...]."""
    total, correct = 0.0, 0
    for F, mask, y in _padded_chunks(examples):
        # index the result so this chunk's cache is freed before the next one
        logits = model.forward_video(F, mask=mask)[0]
        total += cross_entropy(logits, y).sum()
        correct += int((logits.argmax(axis=-1) == y).sum())
    return total / len(examples), correct / len(examples)


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    train_acc: float
    val_acc: float | None


def train(model: Model, train_set, cfg: TrainConfig, val_metric=None) -> list[EpochRecord]:
    """Minimize cross-entropy on (F, target) pairs; returns per-epoch log.

    Deterministic for a fixed (seed, config, data): shuffle order and
    dropout masks both derive from cfg.seed. When given, val_metric(model)
    scores every epoch (e.g. an episodic probe on held-out classes, or
    evaluate() accuracy on held-out videos), and the parameters of the best
    epoch, with their batch-norm running stats, are restored at the end;
    without it the last epoch's parameters are kept.
    """
    if not train_set:
        raise ConfigError("empty training set")
    if model.cfg.dropout != cfg.dropout_rate:
        raise ConfigError(f"model dropout {model.cfg.dropout} differs from "
                          f"dropout_rate {cfg.dropout_rate}")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xD0]))
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5F]))
    state = AdamState()
    records: list[EpochRecord] = []
    best_val, best = -1.0, None

    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        order = shuffle_rng.permutation(len(train_set))
        epoch_loss, nb = 0.0, 0
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_set[i] for i in order[start:start + cfg.batch_size]]
            batch_loss, grads = loss_and_grads(model, batch, train=True, rng=rng)
            adam_step(model.params, grads, state, lr)
            epoch_loss += batch_loss
            nb += 1
        _, train_acc = evaluate(model, train_set)
        val_acc = None if val_metric is None else val_metric(model)
        if val_acc is not None and val_acc > best_val:
            best_val = val_acc
            best = ({k: v.copy() for k, v in model.params.items()},
                    model.bn_mean.copy(), model.bn_var.copy())
        records.append(EpochRecord(epoch, lr, epoch_loss / max(nb, 1), train_acc, val_acc))

    if best is not None:
        model.params, model.bn_mean, model.bn_var = best
    elif cfg.epochs > 0:
        log.warning("no validation signal: keeping last-epoch parameters")
    return records
