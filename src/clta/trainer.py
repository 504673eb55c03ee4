"""Base-class training: Adam, step-decay schedule, and the seeded generator
from which Model.forward_video draws its inverted-dropout masks.

Minibatches of variable-length sequences go through the model in zero-padded
chunks with a frame mask, taken in stable length order within a minibatch, which
gives the loss, gradients and dropout masks of the videos run one at a time in
that order, up to float summation order.

Each training video goes through the model once per epoch. The logged train
accuracy comes from the logits of that gradient pass, whose losses the logged
train loss averages: with dropout, at the parameters of the step that saw the
video. loss_and_grads(model, train_set)[2] counts the videos that the model
classifies correctly without dropout at the end of an epoch.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, TrainingError
from .model import Model, loss_and_grads

log = logging.getLogger(__name__)

# The learning rate is multiplied by this every decay_every epochs.
DECAY_FACTOR = 0.5
# Adam's moment decay rates and denominator guard.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam's moments m and v per parameter name, and its step count.

    work holds two scratch arrays per parameter, shaped like it, which every
    step overwrites with its intermediate terms, so a step allocates nothing."""
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    work: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


@dataclass
class TrainConfig:
    lr0: float = 1e-3
    decay_every: int = 5
    batch_size: int = 128
    epochs: int = 20
    dropout_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lr0 < np.inf:
            raise ConfigError(f"lr0 must be finite and > 0, got {self.lr0}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.decay_every < 1 or self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("decay_every/batch_size must be >= 1, epochs >= 0")


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place, in the textbook formula's operation order.

    Raises TrainingError, before that parameter moves, where a gradient is not
    finite or its square overflows the second moment."""
    if not 0 < lr < np.inf:
        raise ConfigError(f"lr must be finite and > 0, got {lr}")
    state.step += 1
    bc1, bc2 = 1.0 - _BETA1 ** state.step, 1.0 - _BETA2 ** state.step
    # a gradient that is nan or inf, or whose square overflows, leaves the
    # denominator non-finite, which is checked instead of warned about
    with np.errstate(over="ignore"):
        for name, p in params.items():
            g = grads[name]
            if name not in state.m:
                state.m[name], state.v[name] = np.zeros_like(p), np.zeros_like(p)
            if name not in state.work:
                state.work[name] = np.empty_like(p), np.empty_like(p)
            m, v = state.m[name], state.v[name]
            step, den = state.work[name]
            m *= _BETA1
            m += np.multiply(1 - _BETA1, g, out=step)
            v *= _BETA2
            np.multiply(1 - _BETA2, g, out=step)
            v += np.multiply(step, g, out=step)
            np.sqrt(np.divide(v, bc2, out=den), out=den)
            if not np.isfinite(den).all():
                raise TrainingError(f"gradient for parameter {name!r} is not finite "
                                    f"or its square overflows")
            np.divide(m, bc1, out=step)
            step *= lr
            den += _EPS
            step /= den
            p -= step


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Step decay, halving every decay_every epochs:
    lr0 * DECAY_FACTOR ** floor(epoch / decay_every)."""
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    return cfg.lr0 * DECAY_FACTOR ** (epoch // cfg.decay_every)


@dataclass
class EpochRecord:
    """One epoch's log. train_loss is the mean loss over the training videos,
    each counted once, and train_acc the share of them whose logits put their
    target first, both from the gradient pass's own forward, with dropout."""
    epoch: int
    lr: float
    train_loss: float
    train_acc: float
    val_acc: float | None


def train(model: Model, train_set, cfg: TrainConfig, val_metric=None) -> list[EpochRecord]:
    """Minimize cross-entropy on (F, target) pairs; returns per-epoch log.

    Deterministic for a fixed (seed, config, data): shuffle order and
    dropout masks both derive from cfg.seed. Each epoch runs every training
    video through the model once, in the gradient pass, and logs its loss and
    accuracy from that pass (see EpochRecord); loss_and_grads(model, pairs)[2]
    / len(pairs) after an epoch gives the accuracy without dropout on pairs at its
    final parameters. When given, val_metric(model) scores every epoch (e.g.
    an episodic probe on held-out classes, or that accuracy on held-out
    videos), and the parameters of the best epoch are restored at the end;
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
        epoch_loss, correct = 0.0, 0
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_set[i] for i in order[start:start + cfg.batch_size]]
            batch_loss, grads, batch_correct = loss_and_grads(model, batch, rng=rng)
            adam_step(model.params, grads, state, lr)
            epoch_loss += batch_loss * len(batch)
            correct += batch_correct
        val_acc = None if val_metric is None else val_metric(model)
        if val_acc is not None and val_acc > best_val:
            best_val = val_acc
            best = {k: v.copy() for k, v in model.params.items()}
        records.append(EpochRecord(epoch, lr, epoch_loss / len(train_set),
                                   correct / len(train_set), val_acc))

    if best is not None:
        model.params = best
    elif cfg.epochs > 0:
        log.warning("no validation signal: keeping last-epoch parameters")
    return records
