"""Unit checks for episodic sampling and the retrain-per-episode harness."""

import numpy as np
import pytest

from clta.attention import FrameSequence
from clta.classifiers import predict, softmax_logits
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


def test_run_episodes_matches_one_episode_runs():
    # episode i depends only on SeedSequence([seed, i]), never on the others
    rng = np.random.default_rng(5)
    novel = _novel_set(rng)
    model = _frozen_model(kind="clta")
    spec = EpisodeSpec(n_way=4, k_shot=1, num_episodes=6, retrain_epochs=10, seed=9)
    summary = run_episodes(model, novel, spec)
    for i, result in enumerate(summary.results):
        ep_rng = np.random.default_rng(np.random.SeedSequence([spec.seed, i]))
        support, query = sample_episode(ep_rng, novel, spec)
        head, labels = retrain_classifier(model, [novel[j] for j in support], spec,
                                          ep_rng)
        per_class = {novel[j].label: predict(softmax_logits(
            descriptor(model, novel[j].features), head)) == labels.index(novel[j].label)
            for j in query}
        assert result.episode_seed == i
        assert result.per_class == per_class
        assert result.accuracy == sum(per_class.values()) / spec.n_way


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
