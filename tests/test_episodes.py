"""Unit checks for episodic sampling and the retrain-per-episode harness."""

import numpy as np
import pytest

from clta import episodes
from clta.attention import FrameSequence
from clta.classifiers import CosineHead, SoftmaxHead, cosine_logits, predict, softmax_logits
from clta.episodes import (EpisodeSpec, retrain_classifier, run_episodes,
                           sample_episode)
from clta.errors import ConfigError, SamplingError
from clta.model import Model, ModelConfig, descriptor


def _novel_set(rng, n_classes=8, per_class=6, d=5, separable=False):
    seqs = []
    for c in range(n_classes):
        for v in range(per_class):
            T = int(rng.integers(3, 9))
            if separable:
                F = np.zeros((T, d))
                F[:, c % d] = 1.0
            else:
                F = rng.normal(size=(T, d))
            seqs.append(FrameSequence(features=F, label=f"c{c}",
                                      video_id=f"c{c}_v{v}"))
    return seqs


def _frozen_model(d=5, kind="avg", classifier="softmax"):
    cfg = ModelConfig(kind=kind, classifier=classifier, num_gaussians=2,
                      beta=10.0, Z=10, feature_dim=d, hidden=8, num_classes=4,
                      dropout=0.0)
    return Model(cfg, np.random.default_rng(0))


def test_spec_validation():
    with pytest.raises(ConfigError):
        EpisodeSpec(n_way=1)
    with pytest.raises(ConfigError):
        EpisodeSpec(k_shot=0)
    with pytest.raises(ConfigError):
        EpisodeSpec(head="nope")


def test_sample_episode_structure():
    rng = np.random.default_rng(0)
    novel = _novel_set(rng)
    spec = EpisodeSpec(n_way=4, k_shot=2)
    for trial in range(50):
        support, query = sample_episode(np.random.default_rng(trial), novel, spec)
        assert len(support) == 4 * 2 and len(query) == 4
        assert not set(support) & set(query)  # disjoint
        s_labels = [novel[i].label for i in support]
        q_labels = [novel[i].label for i in query]
        assert len(set(q_labels)) == 4
        assert set(s_labels) == set(q_labels)
        for c in set(s_labels):
            assert s_labels.count(c) == 2


def test_sample_episode_too_few_classes():
    rng = np.random.default_rng(1)
    novel = _novel_set(rng, n_classes=3)
    with pytest.raises(SamplingError):
        sample_episode(rng, novel, EpisodeSpec(n_way=5, k_shot=1))
    # enough classes but not enough videos per class for k+1
    thin = _novel_set(rng, n_classes=6, per_class=2)
    with pytest.raises(SamplingError):
        sample_episode(rng, thin, EpisodeSpec(n_way=5, k_shot=2))


def test_unlabelled_video_rejected():
    seq = FrameSequence(features=np.ones((3, 5)), label=None, video_id="x")
    with pytest.raises(SamplingError):
        sample_episode(np.random.default_rng(0), [seq], EpisodeSpec())


def test_retrain_leaves_attention_untouched():
    rng = np.random.default_rng(2)
    novel = _novel_set(rng)
    model = _frozen_model(kind="clta")
    before = {k: v.copy() for k, v in model.params.items()}
    support = [s for s in novel if s.video_id.endswith("_v0")][:5]
    head, labels = retrain_classifier(model, support,
                                      EpisodeSpec(n_way=5, retrain_epochs=5))
    assert labels == sorted({s.label for s in support})
    for k in before:
        assert np.array_equal(model.params[k], before[k])  # bit-identical


def test_retrain_empty_support():
    with pytest.raises(ConfigError):
        retrain_classifier(_frozen_model(), [], EpisodeSpec())


def test_run_episodes_rejects_overlong_videos():
    rng = np.random.default_rng(3)
    novel = _novel_set(rng)
    novel.append(FrameSequence(features=np.ones((25, 5)), label="c0",
                               video_id="too_long"))
    with pytest.raises(ConfigError):
        run_episodes(_frozen_model(), novel, EpisodeSpec(num_episodes=2))


def test_run_episodes_separable_is_perfect():
    rng = np.random.default_rng(4)
    novel = _novel_set(rng, n_classes=5, d=5, separable=True)
    spec = EpisodeSpec(n_way=5, k_shot=1, num_episodes=20, seed=0, head="cosine")
    summary = run_episodes(_frozen_model(), novel, spec)
    assert summary.mean_acc == 1.0
    assert summary.ci95 == 0.0
    assert len(summary.results) == 20


def _episode_by_hand(model, novel, spec, i):
    """Episode i sampled and fitted on its own, as one retrain_classifier call."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, i]))
    support, query = sample_episode(rng, novel, spec)
    head, labels = retrain_classifier(model, [novel[j] for j in support], spec, rng)
    logits = cosine_logits if isinstance(head, CosineHead) else softmax_logits
    return {novel[j].label: predict(logits(descriptor(model, novel[j].features), head))
            == labels.index(novel[j].label) for j in query}


def test_run_episodes_matches_one_episode_runs():
    # episode i depends only on SeedSequence([seed, i]), never on the others;
    # 4-way 5-shot in batches of 6 takes three full minibatches and one of 2
    rng = np.random.default_rng(5)
    novel = _novel_set(rng)
    model = _frozen_model(kind="clta")
    for head in ("softmax", "cosine"):
        for k_shot, retrain_batch in ((1, 64), (5, 64), (5, 6)):
            spec = EpisodeSpec(n_way=4, k_shot=k_shot, num_episodes=6, retrain_epochs=10,
                               retrain_batch=retrain_batch, seed=9, head=head)
            summary = run_episodes(model, novel, spec)
            for i, result in enumerate(summary.results):
                per_class = _episode_by_hand(model, novel, spec, i)
                assert result.episode_seed == i
                assert result.per_class == per_class
                assert result.accuracy == sum(per_class.values()) / spec.n_way


@pytest.mark.parametrize("head", ["softmax", "cosine"])
def test_run_episodes_spanning_chunks_match_one_episode_runs(head):
    rng = np.random.default_rng(8)
    novel = _novel_set(rng)
    model = _frozen_model(kind="clta")
    spec = EpisodeSpec(n_way=4, k_shot=1, num_episodes=episodes._CHUNK + 1,
                       retrain_epochs=3, seed=4, head=head)
    summary = run_episodes(model, novel, spec)
    assert [r.episode_seed for r in summary.results] == list(range(spec.num_episodes))
    for i, result in enumerate(summary.results):
        assert result.per_class == _episode_by_hand(model, novel, spec, i)


def _reference_fit(grad_fn, params, orders, batch, lr):
    """Minibatch Adam in plain numpy; grad_fn(params, sel) gives the grads."""
    moments = {k: (np.zeros_like(p), np.zeros_like(p)) for k, p in params.items()}
    step = 0
    for order in orders:
        for start in range(0, len(order), batch):
            grads = grad_fn(params, order[start:start + batch])
            step += 1
            for k, p in params.items():
                m, v = moments[k]
                m[...] = 0.9 * m + (1 - 0.9) * grads[k]
                v[...] = 0.999 * v + (1 - 0.999) * grads[k] * grads[k]
                p -= lr * (m / (1 - 0.9 ** step)) / (np.sqrt(v / (1 - 0.999 ** step)) + 1e-8)
    return params


def _reference_softmax_fit(X, y, n_way, orders, batch, lr):
    """The episode softmax head, fitted in plain numpy."""
    onehot = np.eye(n_way)[y]

    def grads(params, sel):
        Xb, hot = X[sel], onehot[sel]
        z = Xb @ params["W"] + params["b"]
        z = np.exp(z - z.max(axis=1, keepdims=True))
        d = (z / z.sum(axis=1, keepdims=True) - hot) / len(sel)
        return {"W": Xb.T @ d, "b": d.sum(axis=0)}

    params = {"W": np.zeros((X.shape[1], n_way)), "b": np.zeros(n_way)}
    return _reference_fit(grads, params, orders, batch, lr)


def _reference_cosine_fit(X, y, n_way, orders, batch, lr):
    """The episode cosine head, fitted one example at a time in plain numpy."""
    def grads(params, sel):
        P, t = params["proto"], params["temp"][0]
        gP, gt = np.zeros_like(P), 0.0
        for i in sel:
            nv, nw = np.linalg.norm(X[i]), np.linalg.norm(P, axis=1)
            s = P @ X[i] / (nw * nv)
            z = np.exp(t * s - np.max(t * s))
            d = z / z.sum()
            d[y[i]] -= 1.0
            d /= len(sel)
            gP += ((t * d / nw)[:, None] * X[i] / nv
                   - (t * d * s / nw ** 2)[:, None] * P)
            gt += d @ s
        return {"proto": gP, "temp": np.array([gt])}

    params = {"proto": np.stack([X[y == c].mean(axis=0) for c in range(n_way)]),
              "temp": np.array([10.0])}
    return _reference_fit(grads, params, orders, batch, lr)


@pytest.mark.parametrize("head", ["softmax", "cosine"])
@pytest.mark.parametrize("retrain_batch", [64, 6])
def test_stacked_fit_matches_a_plain_fit(head, retrain_batch):
    # softmax: bit for bit; cosine sums each minibatch in a matrix product,
    # so its weights may move by float64 rounding: 1e-12 is ~4500 ulps at 1
    rng = np.random.default_rng(10)
    E, n_way, k_shot, h, epochs = 5, 4, 5, 16, 12
    X = rng.normal(size=(E, n_way * k_shot, h))
    y = np.stack([rng.permutation(np.repeat(np.arange(n_way), k_shot)) for _ in range(E)])
    orders = np.stack([[rng.permutation(n_way * k_shot) for _ in range(epochs)]
                       for _ in range(E)])
    spec = EpisodeSpec(n_way=n_way, k_shot=k_shot, retrain_epochs=epochs,
                       retrain_batch=retrain_batch, retrain_lr=0.01)
    stacked = episodes._fit_heads(head, X, y, n_way, orders, spec)
    assert isinstance(stacked, SoftmaxHead if head == "softmax" else CosineHead)
    reference = _reference_softmax_fit if head == "softmax" else _reference_cosine_fit
    for e in range(E):
        want = reference(X[e], y[e], n_way, orders[e], retrain_batch, 0.01)
        # each stacked parameter carries a broadcast axis for the rows
        for got, k in zip(vars(stacked).values(), want):
            got = got[e].reshape(want[k].shape)
            if head == "softmax":
                assert got.tobytes() == want[k].tobytes()
            else:
                assert np.allclose(got, want[k], rtol=0, atol=1e-12)


def test_retrain_classifier_is_bit_identical_to_a_plain_fit():
    # the permutations come from the caller's rng, one per retrain epoch
    rng = np.random.default_rng(11)
    novel = _novel_set(rng)
    model = _frozen_model(kind="clta")
    support = [s for s in novel if s.label in ("c1", "c2", "c3")][:15]
    spec = EpisodeSpec(n_way=3, retrain_epochs=7, retrain_batch=4)
    head, labels = retrain_classifier(model, support, spec, np.random.default_rng(3))
    plain = np.random.default_rng(3)
    orders = [plain.permutation(len(support)) for _ in range(spec.retrain_epochs)]
    X = episodes._descriptors(model, support)
    y = np.array([labels.index(s.label) for s in support])
    want = _reference_softmax_fit(X, y, 3, orders, 4, spec.retrain_lr)
    assert head.W.tobytes() == want["W"].tobytes()
    assert head.bias.tobytes() == want["b"].tobytes()


def test_run_episodes_deterministic_in_seed():
    rng = np.random.default_rng(6)
    novel = _novel_set(rng)
    model = _frozen_model()
    spec = EpisodeSpec(n_way=4, k_shot=1, num_episodes=10, retrain_epochs=10, seed=3)
    a = run_episodes(model, novel, spec)
    b = run_episodes(model, novel, spec)
    assert a.mean_acc == b.mean_acc
    c = run_episodes(model, novel, EpisodeSpec(n_way=4, k_shot=1, num_episodes=10,
                                               retrain_epochs=10, seed=4))
    assert any(x.per_class != y.per_class for x, y in zip(a.results, c.results))


def test_episode_head_override():
    rng = np.random.default_rng(7)
    novel = _novel_set(rng, n_classes=5)
    model = _frozen_model(classifier="softmax")
    support = [s for s in novel if s.video_id.endswith("_v0")]
    spec = EpisodeSpec(n_way=5, retrain_epochs=3, head="cosine")
    head, _ = retrain_classifier(model, support, spec)
    assert type(head).__name__ == "CosineHead"
