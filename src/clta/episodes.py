"""Episodic n-way k-shot evaluation on novel classes.

The attention model stays frozen; each episode retrains a fresh classifier
head on the support descriptors and is scored on one query per class. The
descriptors come from padded chunks in stable length order, up to float
summation order the same as those of the videos run one at a time.

Sampling is per episode: episode i draws its classes, then its support and
query, from SeedSequence([seed, i]), so its result does not depend on which
other episodes run. The fit draws nothing: each retrain epoch is one
full-batch step on all support rows in row order.

The draws do not depend on the model: they are a plan made from the set's
labels in order and the spec, which is frozen so that it can key a one-slot
cache of the latest plan. The per-epoch val probe of training therefore
draws its episodes on its first call only. A plan is each episode's query
labels and read-only arrays, one row per episode: support and query indices
and their head classes, the ranks of the drawn classes in sorted label
order. The length check, the descriptors, the fit and the scoring run on
every call.

Fitting is one batched solve: every episode has the same n_way * k_shot
support size, so the heads of a chunk of episodes are stacked and trained
together through the heads in classifiers, one full-batch step and one Adam
step on one flat parameter buffer at a time for all of them, in buffers made
once per fit. The stacked softmax fit gives the same bits as fitting each
episode on its own; the cosine fit sums its gradient over the support rows
in one matrix product, so its weights may differ in the last bits.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .attention import FrameSequence
from .classifiers import (INIT_TEMPERATURE, CosineHead, SoftmaxHead, head_forward,
                          head_logits_backward, row_norms)
from .errors import ConfigError, SamplingError
from .model import Model, _padded_chunks, descriptor
from .numerics import softmax_stable
from .trainer import AdamState, adam_step

HEADS = ("same", "softmax", "cosine")
# Episodes fitted together. Each costs about 90 KB while its chunk is fitted
# (5-way 5-shot, h=64, 100 retrain epochs); past 64 a chunk is no faster.
_CHUNK = 64
# Adam's learning rate for every episode head fit.
RETRAIN_LR = 1e-3


@dataclass(frozen=True)
class EpisodeSpec:
    n_way: int = 5
    k_shot: int = 1
    num_episodes: int = 600   # desk-scale default; paper-scale is 10000
    retrain_epochs: int = 100
    seed: int = 0
    head: str = "same"        # same | softmax | cosine

    def __post_init__(self):
        if self.n_way < 2:
            raise ConfigError(f"n_way must be >= 2, got {self.n_way}")
        if self.k_shot < 1:
            raise ConfigError(f"k_shot must be >= 1, got {self.k_shot}")
        if self.head not in HEADS:
            raise ConfigError(f"unknown episode head {self.head!r}")
        if self.num_episodes < 1 or self.retrain_epochs < 0:
            raise ConfigError("num_episodes must be >= 1, retrain_epochs >= 0")


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


def _labels(videos: list[FrameSequence]) -> tuple[str, ...]:
    """The videos' labels in order; a SamplingError names the first unlabelled one."""
    labels = tuple(seq.label for seq in videos)
    if None in labels:
        raise SamplingError(f"unlabelled video {videos[labels.index(None)].video_id!r}")
    return labels


def _by_class(labels: tuple[str, ...]) -> dict[str, list[int]]:
    groups: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)
    return groups


def _eligible(groups: dict[str, list[int]], spec: EpisodeSpec) -> list[str]:
    """Sorted classes with enough videos for k support plus one query."""
    if len(groups) < spec.n_way:
        raise SamplingError(f"need {spec.n_way} classes, the set has only {len(groups)}")
    eligible = sorted(c for c, idxs in groups.items() if len(idxs) >= spec.k_shot + 1)
    if len(eligible) < spec.n_way:
        short = sorted(set(groups) - set(eligible))
        raise SamplingError(
            f"need {spec.n_way} classes with >= {spec.k_shot + 1} videos, "
            f"only {len(eligible)} eligible (too few videos in: {short})")
    return eligible


def _draw_episode(rng, groups, eligible, spec):
    # rng.choice(len(x)) draws the positions that rng.choice(x) picks, from the
    # same stream, without converting x to an array on every call
    support, query = [], []
    drawn = rng.choice(len(eligible), size=spec.n_way, replace=False)
    for c in drawn:
        members = groups[eligible[c]]
        picked = rng.choice(len(members), size=spec.k_shot + 1, replace=False)
        support.extend(members[i] for i in picked[:-1])
        query.append(members[picked[-1]])
    return support, query, drawn


def _flat(head):
    """(buffer, a head of the same type whose fields view it, in field order)."""
    fields = vars(head).values()
    buf = np.concatenate([p.ravel() for p in fields])
    parts = np.split(buf, np.cumsum([p.size for p in fields])[:-1])
    return buf, type(head)(*(part.reshape(p.shape) for part, p in zip(parts, fields)))


def _fit_heads(kind: str, X: np.ndarray, y: np.ndarray, spec: EpisodeSpec):
    """Train E heads at once on support X (E, n, h) with labels y (E, n): each
    retrain epoch is one full-batch step on all n rows in row order. Returns
    one head whose stacked parameters view one buffer.

    Every step writes into buffers made once per fit: the logits, which the
    softmax and its gradient overwrite, and one flat gradient buffer whose
    per-field views the head's backward fills; the cosine head's |X| is taken
    once, since the support rows never change."""
    (E, n, h), n_way = X.shape, spec.n_way
    onehot = np.eye(n_way)[y]
    if kind == "softmax":
        init = SoftmaxHead(W=np.zeros((E, h, n_way)), bias=np.zeros((E, 1, n_way)))
    else:
        # prototypes start at the per-class support means
        init = CosineHead(W_proto=np.swapaxes(onehot, 1, 2) @ X / onehot.sum(axis=1)[..., None],
                          temperature=np.full((E, 1, 1), INIT_TEMPERATURE))
    theta, head = _flat(init)   # adam_step updates theta in place
    grad, dhead = _flat(init)
    nv = row_norms(X) if kind == "cosine" else None
    params, grads, state = {"head": theta}, {"head": grad}, AdamState()
    out, buf = tuple(vars(dhead).values()), np.empty((E, n, n_way))
    for _ in range(spec.retrain_epochs):
        logits, cos = head_forward(X, head, out=buf, nv=nv)
        dlog = softmax_stable(logits, out=logits)
        dlog -= onehot
        dlog /= n
        head_logits_backward(X, head, dlog, cos, need_dV=False, out=out)
        adam_step(params, grads, state, RETRAIN_LR)
    return head


def _descriptors(frozen_model: Model, videos: list[FrameSequence]) -> np.ndarray:
    """Descriptors (n, h), without dropout, of the videos, in their order, computed one
    padded chunk at a time in stable length order."""
    out = np.empty((len(videos), frozen_model.cfg.hidden))
    for F, mask, rows in _padded_chunks([(s.features, i) for i, s in enumerate(videos)]):
        out[rows] = descriptor(frozen_model, F, mask)
    return out


# The latest plan only: the per-epoch val probe calls with the same set and
# spec every epoch, and calls over many seeds or sets pin one plan at most.
@functools.lru_cache(maxsize=1)
def _make_plan(labels: tuple[str, ...], spec: EpisodeSpec):
    """The episodes' draws, a pure function of the set's labels in order and
    the spec: each episode's query labels, then support (E, n_way * k_shot)
    and query (E, n_way) novel-set indices and their head classes y and truth.
    The eligible classes are sorted, so a query's head class, the rank of its
    drawn position among the episode's, is its class's rank in label order."""
    groups = _by_class(labels)
    eligible = _eligible(groups, spec)
    draws = [_draw_episode(np.random.default_rng(np.random.SeedSequence([spec.seed, i])),
                           groups, eligible, spec) for i in range(spec.num_episodes)]
    support, query, drawn = (np.array(a, dtype=np.intp) for a in zip(*draws))
    truth = drawn.argsort(axis=1).argsort(axis=1)
    y = truth.repeat(spec.k_shot, axis=1)
    for a in (support, query, y, truth):
        a.flags.writeable = False
    query_labels = tuple(tuple(labels[j] for j in q) for q in query.tolist())
    return query_labels, support, query, y, truth


def run_episodes(frozen_model: Model, novel_set: list[FrameSequence],
                 spec: EpisodeSpec) -> EvalSummary:
    """Mean n-way k-shot accuracy over num_episodes with a 95% CI."""
    Z = frozen_model.cfg.Z
    for seq in novel_set:
        if seq.T > Z:
            raise ConfigError(f"video {seq.video_id!r} longer than Z={Z}")
    query_labels, support, query, y, truth = _make_plan(_labels(novel_set), spec)
    desc = _descriptors(frozen_model, novel_set)   # episode-independent: once for all
    kind = frozen_model.cfg.classifier if spec.head == "same" else spec.head
    correct = []
    for lo in range(0, spec.num_episodes, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        head = _fit_heads(kind, desc[support[part]], y[part], spec)
        correct += (head_forward(desc[query[part]], head)[0].argmax(axis=-1)
                    == truth[part]).tolist()
    results = [EpisodeResult(accuracy=sum(ok) / spec.n_way,
                             per_class=dict(zip(labels, ok)), episode_seed=i)
               for i, (labels, ok) in enumerate(zip(query_labels, correct))]

    accs = np.array([r.accuracy for r in results])
    mean = float(accs.mean())
    ci = 1.96 * float(accs.std(ddof=1)) / np.sqrt(len(accs)) if len(accs) > 1 else 0.0
    return EvalSummary(mean_acc=mean, ci95=ci, results=results)
