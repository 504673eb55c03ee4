"""Episodic n-way k-shot evaluation on novel classes.

The attention model stays frozen; each episode retrains a fresh classifier
head on the support descriptors and is scored on one query per class.
Episode i draws everything from SeedSequence([seed, i]), so its result does
not depend on which other episodes run.
"""

from dataclasses import dataclass, field

import numpy as np

from .attention import FrameSequence
from .classifiers import (CosineHead, SoftmaxHead, cosine_logits,
                          cosine_logits_backward, predict, softmax_logits)
from .errors import ConfigError, SamplingError
from .model import Model, descriptor
from .numerics import cross_entropy_grad, softmax_stable
from .trainer import AdamState, adam_step


@dataclass
class EpisodeSpec:
    n_way: int = 5
    k_shot: int = 1
    num_episodes: int = 600   # desk-scale default; paper-scale is 10000
    retrain_epochs: int = 100
    retrain_batch: int = 64
    retrain_lr: float = 0.001
    seed: int = 0
    head: str = "same"        # same | softmax | cosine

    def __post_init__(self):
        if self.n_way < 2:
            raise ConfigError(f"n_way must be >= 2, got {self.n_way}")
        if self.k_shot < 1:
            raise ConfigError(f"k_shot must be >= 1, got {self.k_shot}")
        if self.head not in ("same", "softmax", "cosine"):
            raise ConfigError(f"unknown episode head {self.head!r}")


@dataclass
class EpisodeResult:
    accuracy: float
    per_class: dict[str, bool]
    episode_seed: int


@dataclass
class EvalSummary:
    mean_acc: float
    ci95: float
    results: list[EpisodeResult] = field(default_factory=list)


def _by_class(novel_set: list[FrameSequence]) -> dict[str, list[int]]:
    groups: dict[str, list[int]] = {}
    for i, seq in enumerate(novel_set):
        if seq.label is None:
            raise SamplingError(f"unlabelled video {seq.video_id!r} in novel set")
        groups.setdefault(seq.label, []).append(i)
    return groups


def sample_episode(rng: np.random.Generator, novel_set: list[FrameSequence],
                   spec: EpisodeSpec):
    """Sample disjoint support/query index lists: k per class + 1 query each."""
    groups = _by_class(novel_set)
    eligible = sorted(c for c, idxs in groups.items() if len(idxs) >= spec.k_shot + 1)
    short = sorted(set(groups) - set(eligible))
    if len(eligible) < spec.n_way:
        raise SamplingError(
            f"need {spec.n_way} classes with >= {spec.k_shot + 1} videos, "
            f"only {len(eligible)} eligible (too few videos in: {short})")
    classes = list(rng.choice(eligible, size=spec.n_way, replace=False))
    support, query = [], []
    for c in classes:
        picked = rng.choice(groups[c], size=spec.k_shot + 1, replace=False)
        support.extend(int(i) for i in picked[:-1])
        query.append(int(picked[-1]))
    return support, query


def _train_softmax_head(X: np.ndarray, y: np.ndarray, n_way: int,
                        spec: EpisodeSpec, rng: np.random.Generator):
    h = X.shape[1]
    params = {"W": np.zeros((h, n_way)), "b": np.zeros(n_way)}
    state = AdamState()
    onehot = np.eye(n_way)[y]
    for _ in range(spec.retrain_epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(order), spec.retrain_batch):
            sel = order[start:start + spec.retrain_batch]
            Xb, hot = X[sel], onehot[sel]
            logits = Xb @ params["W"] + params["b"]
            p = softmax_stable(logits, axis=1)
            dlog = (p - hot) / len(sel)
            grads = {"W": Xb.T @ dlog, "b": dlog.sum(axis=0)}
            adam_step(params, grads, state, spec.retrain_lr)
    return SoftmaxHead(W=params["W"], bias=params["b"])


def _train_cosine_head(X: np.ndarray, y: np.ndarray, n_way: int,
                       spec: EpisodeSpec, rng: np.random.Generator):
    # prototypes start at the per-class support means
    protos = np.stack([X[y == c].mean(axis=0) for c in range(n_way)])
    params = {"proto": protos, "temp": np.array([10.0])}
    state = AdamState()
    for _ in range(spec.retrain_epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(order), spec.retrain_batch):
            sel = order[start:start + spec.retrain_batch]
            grads = {"proto": np.zeros_like(params["proto"]),
                     "temp": np.zeros(1)}
            head = CosineHead(W_proto=params["proto"], temperature=float(params["temp"][0]))
            for i in sel:
                logits = cosine_logits(X[i], head)
                dlog = cross_entropy_grad(logits, int(y[i])) / len(sel)
                dW, dtemp, _ = cosine_logits_backward(X[i], head, dlog)
                grads["proto"] += dW
                grads["temp"] += dtemp
            adam_step(params, grads, state, spec.retrain_lr)
    return CosineHead(W_proto=params["proto"], temperature=float(params["temp"][0]))


def _head_kind(frozen_model: Model, spec: EpisodeSpec) -> str:
    return frozen_model.cfg.classifier if spec.head == "same" else spec.head


def retrain_classifier(frozen_model: Model, support: list[FrameSequence],
                       spec: EpisodeSpec, rng: np.random.Generator | None = None):
    """Train a fresh n-way head on support descriptors; attention untouched.

    Returns (head, label_order) where label_order maps head index -> label.
    """
    if not support:
        raise ConfigError("empty support set")
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    labels = sorted({s.label for s in support})
    lab2idx = {c: i for i, c in enumerate(labels)}
    X = np.stack([descriptor(frozen_model, s.features) for s in support])
    y = np.array([lab2idx[s.label] for s in support])
    head = _fit_head(frozen_model, spec, X, y, len(labels), rng)
    return head, labels


def _fit_head(frozen_model, spec, X, y, n_way, rng):
    if _head_kind(frozen_model, spec) == "softmax":
        return _train_softmax_head(X, y, n_way, spec, rng)
    return _train_cosine_head(X, y, n_way, spec, rng)


def _head_logits(head, x):
    if isinstance(head, SoftmaxHead):
        return softmax_logits(x, head)
    return cosine_logits(x, head)


def run_episodes(frozen_model: Model, novel_set: list[FrameSequence],
                 spec: EpisodeSpec) -> EvalSummary:
    """Mean n-way k-shot accuracy over num_episodes with a 95% CI."""
    groups = _by_class(novel_set)
    for c in groups:
        for i in groups[c]:
            if novel_set[i].T > frozen_model.cfg.Z:
                raise ConfigError(
                    f"video {novel_set[i].video_id!r} longer than Z={frozen_model.cfg.Z}")
    # descriptors are episode-independent: compute once for the whole set
    desc = np.stack([descriptor(frozen_model, s.features) for s in novel_set])

    def one_episode(i: int) -> EpisodeResult:
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, i]))
        support, query = sample_episode(rng, novel_set, spec)
        labels = sorted({novel_set[j].label for j in support})
        lab2idx = {c: k for k, c in enumerate(labels)}
        X = desc[support]
        y = np.array([lab2idx[novel_set[j].label] for j in support])
        head = _fit_head(frozen_model, spec, X, y, spec.n_way, rng)
        per_class: dict[str, bool] = {}
        for j in query:
            truth = novel_set[j].label
            got = predict(_head_logits(head, desc[j]))
            per_class[truth] = got == lab2idx[truth]
        acc = sum(per_class.values()) / spec.n_way
        return EpisodeResult(accuracy=acc, per_class=per_class, episode_seed=i)

    results = [one_episode(i) for i in range(spec.num_episodes)]

    accs = np.array([r.accuracy for r in results])
    mean = float(accs.mean())
    ci = 1.96 * float(accs.std(ddof=1)) / np.sqrt(len(accs)) if len(accs) > 1 else 0.0
    return EvalSummary(mean_acc=mean, ci95=ci, results=results)
