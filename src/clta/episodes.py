"""Episodic n-way k-shot evaluation on novel classes.

The attention model stays frozen; each episode retrains a fresh classifier
head on the support descriptors and is scored on one query per class.

Sampling is per episode: episode i draws its classes, its support and query,
and then one permutation per retrain epoch from SeedSequence([seed, i]), in
that order, so its result does not depend on which other episodes run.
Fitting is one batched solve: every episode has the same n_way * k_shot
support size, so the heads of a chunk of episodes are stacked and trained
together through the heads in classifiers, one minibatch step and one Adam
step at a time for all of them. The stacked softmax fit gives the same bits
as fitting each episode on its own; the cosine fit sums its gradient over
the examples of a minibatch in one matrix product, so its weights may
differ in the last bits.
"""

from dataclasses import dataclass, field

import numpy as np

from .attention import FrameSequence
from .classifiers import CosineHead, SoftmaxHead, head_logits, head_logits_backward
from .errors import ConfigError, SamplingError
from .model import Model, _padded_chunks, descriptor
from .numerics import cross_entropy_grad
from .trainer import AdamState, adam_step

# Episodes fitted together. Each costs about 90 KB while its chunk is fitted
# (5-way 5-shot, h=64, 100 retrain epochs); past 64 a chunk is no faster.
_CHUNK = 64


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


def _eligible(groups: dict[str, list[int]], spec: EpisodeSpec) -> list[str]:
    """Sorted classes with enough videos for k support plus one query."""
    eligible = sorted(c for c, idxs in groups.items() if len(idxs) >= spec.k_shot + 1)
    if len(eligible) < spec.n_way:
        short = sorted(set(groups) - set(eligible))
        raise SamplingError(
            f"need {spec.n_way} classes with >= {spec.k_shot + 1} videos, "
            f"only {len(eligible)} eligible (too few videos in: {short})")
    return eligible


def _draw_episode(rng, groups, eligible, spec):
    classes = list(rng.choice(eligible, size=spec.n_way, replace=False))
    support, query = [], []
    for c in classes:
        picked = rng.choice(groups[c], size=spec.k_shot + 1, replace=False)
        support.extend(int(i) for i in picked[:-1])
        query.append(int(picked[-1]))
    return support, query


def sample_episode(rng: np.random.Generator, novel_set: list[FrameSequence],
                   spec: EpisodeSpec):
    """Sample disjoint support/query index lists: k per class + 1 query each."""
    groups = _by_class(novel_set)
    return _draw_episode(rng, groups, _eligible(groups, spec), spec)


def _draw_orders(rng: np.random.Generator, n: int, epochs: int) -> np.ndarray:
    """(epochs, n): the same draws as one rng.permutation(n) per epoch."""
    return rng.permuted(np.tile(np.arange(n), (epochs, 1)), axis=1)


def _fit_heads(kind: str, X: np.ndarray, y: np.ndarray, n_way: int,
               orders: np.ndarray, spec: EpisodeSpec):
    """Train E heads at once: support X (E, n, h), labels y (E, n), minibatch
    orders (E, retrain_epochs, n). Returns one head with stacked parameters."""
    E, n, h = X.shape
    rows = np.arange(E)[:, None]
    if kind == "softmax":
        head = SoftmaxHead(W=np.zeros((E, h, n_way)), bias=np.zeros((E, 1, n_way)))
    else:
        # prototypes start at the per-class support means
        onehot = np.eye(n_way)[y]
        head = CosineHead(W_proto=np.swapaxes(onehot, 1, 2) @ X / onehot.sum(axis=1)[..., None],
                          temperature=np.full((E, 1, 1), 10.0))
    params = vars(head)   # adam_step updates the head's arrays in place
    state = AdamState()
    for order in orders.transpose(1, 0, 2):
        for start in range(0, n, spec.retrain_batch):
            sel = order[:, start:start + spec.retrain_batch]
            Xb, yb = X[rows, sel], y[rows, sel]
            dlog = cross_entropy_grad(head_logits(Xb, head), yb) / sel.shape[1]
            *grads, _ = head_logits_backward(Xb, head, dlog, need_dV=False)
            adam_step(params, dict(zip(params, grads)), state, spec.retrain_lr)
    return head


def _descriptors(frozen_model: Model, videos: list[FrameSequence]) -> np.ndarray:
    """Eval-mode descriptors (n, h) of the videos, one padded chunk at a time."""
    return np.concatenate([descriptor(frozen_model, F, mask) for F, mask, _
                           in _padded_chunks([(s.features, s.label) for s in videos])])


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
    X = _descriptors(frozen_model, support)
    y = np.array([lab2idx[s.label] for s in support])
    orders = _draw_orders(rng, len(support), spec.retrain_epochs)
    kind = _head_kind(frozen_model, spec)
    head = _fit_heads(kind, X[None], y[None], len(labels), orders[None], spec)
    if kind == "softmax":
        return SoftmaxHead(W=head.W[0], bias=head.bias[0, 0]), labels
    return CosineHead(W_proto=head.W_proto[0], temperature=float(head.temperature[0, 0, 0])), labels


def run_episodes(frozen_model: Model, novel_set: list[FrameSequence],
                 spec: EpisodeSpec) -> EvalSummary:
    """Mean n-way k-shot accuracy over num_episodes with a 95% CI."""
    groups = _by_class(novel_set)
    for seq in novel_set:
        if seq.T > frozen_model.cfg.Z:
            raise ConfigError(f"video {seq.video_id!r} longer than Z={frozen_model.cfg.Z}")
    eligible = _eligible(groups, spec)
    desc = _descriptors(frozen_model, novel_set)   # episode-independent: once for all
    # class codes in sorted label order: a head's class index is the rank of
    # its code among the episode's query codes (one query per class)
    code = {c: k for k, c in enumerate(sorted(groups))}
    codes = np.array([code[s.label] for s in novel_set])
    kind = _head_kind(frozen_model, spec)
    n = spec.n_way * spec.k_shot

    results = []
    for lo in range(0, spec.num_episodes, _CHUNK):
        ids = range(lo, min(lo + _CHUNK, spec.num_episodes))
        support = np.empty((len(ids), n), dtype=np.intp)
        query = np.empty((len(ids), spec.n_way), dtype=np.intp)
        orders = np.empty((len(ids), spec.retrain_epochs, n), dtype=np.intp)
        for e, i in enumerate(ids):
            rng = np.random.default_rng(np.random.SeedSequence([spec.seed, i]))
            support[e], query[e] = _draw_episode(rng, groups, eligible, spec)
            orders[e] = _draw_orders(rng, n, spec.retrain_epochs)
        qcodes = codes[query][:, None, :]
        y = (qcodes < codes[support][..., None]).sum(axis=-1)
        truth = (qcodes < codes[query][..., None]).sum(axis=-1)
        head = _fit_heads(kind, desc[support], y, spec.n_way, orders, spec)
        correct = head_logits(desc[query], head).argmax(axis=-1) == truth
        for e, i in enumerate(ids):
            per_class = {novel_set[j].label: bool(ok) for j, ok in zip(query[e], correct[e])}
            results.append(EpisodeResult(accuracy=int(correct[e].sum()) / spec.n_way,
                                         per_class=per_class, episode_seed=i))

    accs = np.array([r.accuracy for r in results])
    mean = float(accs.mean())
    ci = 1.96 * float(accs.std(ddof=1)) / np.sqrt(len(accs)) if len(accs) > 1 else 0.0
    return EvalSummary(mean_acc=mean, ci95=ci, results=results)
