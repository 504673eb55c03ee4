"""Unit checks for episodic sampling and the retrain-per-episode harness,
run_episodes, against draws and plain-numpy head fits made here."""

import dataclasses

import numpy as np
import pytest

from clta import episodes
from clta.attention import FrameSequence
from clta.classifiers import CosineHead, SoftmaxHead, head_forward
from clta.episodes import RETRAIN_LR, EpisodeSpec, run_episodes
from clta.errors import ConfigError, SamplingError, TrainingError
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
    # counts that would give nan accuracy or a raw numpy/range error
    for bad in (dict(num_episodes=0), dict(num_episodes=-2), dict(retrain_epochs=-1)):
        with pytest.raises(ConfigError):
            EpisodeSpec(**bad)
    EpisodeSpec(num_episodes=1, retrain_epochs=0)


def _drawn(novel, spec):
    """(support, query) novel-set indices of each episode, from the plan that
    run_episodes makes for the set and fits and scores the episodes by."""
    _, support, query, _, _ = episodes._make_plan(tuple(x.label for x in novel), spec)
    return list(zip(support.tolist(), query.tolist()))


def test_sample_episode_structure():
    rng = np.random.default_rng(0)
    novel = _novel_set(rng)
    spec = EpisodeSpec(n_way=4, k_shot=2, num_episodes=50, retrain_epochs=0)
    summary = run_episodes(_frozen_model(), novel, spec)
    for (support, query), result in zip(_drawn(novel, spec), summary.results, strict=True):
        assert len(support) == 4 * 2 and len(query) == 4
        assert not set(support) & set(query)  # disjoint
        s_labels = [novel[i].label for i in support]
        q_labels = [novel[i].label for i in query]
        assert len(set(q_labels)) == 4
        assert set(s_labels) == set(q_labels) == set(result.per_class)
        for c in set(s_labels):
            assert s_labels.count(c) == 2


def _draws_on_the_lists(rng, novel, spec):
    # rng.choice on the sorted eligible labels, then on each class's index list
    groups = {}
    for i, s in enumerate(novel):
        groups.setdefault(s.label, []).append(i)
    eligible = sorted(c for c, idxs in groups.items() if len(idxs) >= spec.k_shot + 1)
    support, query = [], []
    for c in rng.choice(eligible, size=spec.n_way, replace=False):
        picked = rng.choice(groups[c], size=spec.k_shot + 1, replace=False)
        support += [int(i) for i in picked[:-1]]
        query.append(int(picked[-1]))
    return support, query


@pytest.mark.parametrize("k_shot", [1, 5])
def test_sample_episode_draws_what_choice_on_the_lists_draws(k_shot):
    # uneven classes, some too small for k_shot 5, so positions and indices differ
    novel = [s for s in _novel_set(np.random.default_rng(3), n_classes=9, per_class=8)
             if int(s.video_id.split("_v")[1]) < 4 + int(s.label[1:]) % 5]
    spec = EpisodeSpec(n_way=5, k_shot=k_shot, num_episodes=12, seed=3)
    for i, got in enumerate(_drawn(novel, spec)):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, i]))
        assert got == _draws_on_the_lists(rng, novel, spec)


def test_head_classes_are_label_ranks_within_the_episode():
    # c10 sorts before c2, and the set is not in label order
    order = np.random.default_rng(4).permutation(np.repeat(np.arange(12), 6))
    labels = tuple(f"c{c}" for c in order)
    spec = EpisodeSpec(n_way=5, k_shot=2, num_episodes=20, seed=4)
    query_labels, support, _, y, truth = episodes._make_plan(labels, spec)
    for q_labels, s, y_row, t_row in zip(query_labels, support, y, truth):
        rank = {c: r for r, c in enumerate(sorted(q_labels))}
        assert t_row.tolist() == [rank[c] for c in q_labels]
        assert y_row.tolist() == [rank[labels[i]] for i in s]


def test_sample_episode_too_few_classes():
    rng = np.random.default_rng(1)
    model = _frozen_model()
    novel = _novel_set(rng, n_classes=3)
    with pytest.raises(SamplingError, match="need 5 classes, the set has only 3"):
        run_episodes(model, novel, EpisodeSpec(n_way=5, k_shot=1, num_episodes=2))
    # enough classes but not enough videos per class for k+1
    thin = _novel_set(rng, n_classes=6, per_class=2)
    with pytest.raises(SamplingError, match=r"5 classes with >= 3 videos, only 0 eligible"):
        run_episodes(model, thin, EpisodeSpec(n_way=5, k_shot=2, num_episodes=2))


def test_unlabelled_video_rejected():
    def unlabelled(name):
        return FrameSequence(features=np.ones((3, 5)), label=None, video_id=name)

    with pytest.raises(SamplingError, match="'x'"):
        run_episodes(_frozen_model(), [unlabelled("x")], EpisodeSpec())


def test_retrain_classifier_rejects_unlabelled_support_videos():
    # the first unlabelled video of the set is named, among labelled ones or not
    def unlabelled(name):
        return FrameSequence(features=np.ones((3, 5)), label=None, video_id=name)

    model = _frozen_model()
    spec = EpisodeSpec(n_way=2, num_episodes=2, retrain_epochs=2)
    novel = _novel_set(np.random.default_rng(12), n_classes=3)
    novel[3:3] = [unlabelled("nolabel"), unlabelled("later")]
    with pytest.raises(SamplingError, match="'nolabel'"):
        run_episodes(model, novel, spec)
    with pytest.raises(SamplingError, match="'u0'"):
        run_episodes(model, [unlabelled(f"u{i}") for i in range(3)], spec)


def test_retrain_leaves_attention_untouched():
    # params come back bit-identical, for either head
    novel = _novel_set(np.random.default_rng(2))
    for head in ("softmax", "cosine"):
        cfg = ModelConfig(kind="clta", classifier=head, num_gaussians=2, beta=10.0, Z=10,
                          feature_dim=5, hidden=8, num_classes=4, dropout=0.0)
        model = Model(cfg, np.random.default_rng(0))
        before = {k: v.tobytes() for k, v in model.params.items()}
        run_episodes(model, novel, EpisodeSpec(n_way=5, k_shot=2, num_episodes=3,
                                               retrain_epochs=5))
        assert {k: v.tobytes() for k, v in model.params.items()} == before


def test_run_episodes_rejects_overlong_videos(monkeypatch):
    # the entry check names the video before any descriptor is computed
    monkeypatch.setattr(episodes, "descriptor", lambda *a: pytest.fail("descriptor computed"))
    rng = np.random.default_rng(3)
    novel = _novel_set(rng)
    novel.append(FrameSequence(features=np.ones((25, 5)), label="c0",
                               video_id="too_long"))
    with pytest.raises(ConfigError, match="^video 'too_long' longer than Z=10$"):
        run_episodes(_frozen_model(), novel, EpisodeSpec(num_episodes=2))


def test_retrain_classifier_names_an_overlong_video():
    # an overlong video mid-set, in a class that episodes draw from
    novel = _novel_set(np.random.default_rng(12), n_classes=3)
    novel.insert(7, FrameSequence(features=np.ones((25, 5)), label="c1",
                                  video_id="too_long"))
    with pytest.raises(ConfigError, match="'too_long'"):
        run_episodes(_frozen_model(), novel,
                     EpisodeSpec(n_way=2, num_episodes=2, retrain_epochs=2))


def test_run_episodes_separable_is_perfect():
    rng = np.random.default_rng(4)
    novel = _novel_set(rng, n_classes=5, d=5, separable=True)
    spec = EpisodeSpec(n_way=5, k_shot=1, num_episodes=20, seed=0, head="cosine")
    summary = run_episodes(_frozen_model(), novel, spec)
    assert summary.mean_acc == 1.0
    assert summary.ci95 == 0.0
    assert len(summary.results) == 20


def _episode_by_hand(model, novel, spec, i):
    """Episode i drawn with rng.choice on the lists and its head fitted on its
    own by the plain-numpy reference fit of the kind run_episodes picks."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, i]))
    support, query = _draws_on_the_lists(rng, novel, spec)
    labels = sorted({novel[j].label for j in query})
    X = episodes._descriptors(model, [novel[j] for j in support])
    y = np.array([labels.index(novel[j].label) for j in support])
    fit = (spec.n_way, spec.retrain_epochs, RETRAIN_LR)
    if (model.cfg.classifier if spec.head == "same" else spec.head) == "softmax":
        p = _reference_softmax_fit(X, y, *fit)
        head = SoftmaxHead(W=p["W"], bias=p["b"])
    else:
        p = _reference_cosine_fit(X, y, *fit)
        head = CosineHead(W_proto=p["proto"], temperature=p["temp"])
    return {novel[j].label: np.argmax(head_forward(descriptor(model, novel[j].features), head)[0])
            == labels.index(novel[j].label) for j in query}


def test_run_episodes_matches_one_episode_runs():
    # episode i depends only on SeedSequence([seed, i]), never on the others;
    # 5-way 13-shot fits 65 support rows in each full-batch step
    rng = np.random.default_rng(5)
    novel = _novel_set(rng)
    large = _novel_set(rng, n_classes=6, per_class=14)
    model = _frozen_model(kind="clta")
    for head in ("softmax", "cosine"):
        for n_way, k_shot, videos in ((4, 1, novel), (4, 5, novel), (5, 13, large)):
            spec = EpisodeSpec(n_way=n_way, k_shot=k_shot, num_episodes=6, retrain_epochs=10,
                               seed=9, head=head)
            summary = run_episodes(model, videos, spec)
            for i, result in enumerate(summary.results):
                per_class = _episode_by_hand(model, videos, spec, i)
                assert result.episode_seed == i
                assert result.per_class == per_class
                assert result.accuracy == sum(per_class.values()) / spec.n_way


@pytest.mark.parametrize("head", ["softmax", "cosine"])
def test_run_episodes_gives_the_same_results_on_float32_and_float64_copies(head):
    # feature files load as float32; episodes must not see the difference
    novel = _novel_set(np.random.default_rng(6))
    as32 = [FrameSequence(features=s.features.astype(np.float32), label=s.label,
                          video_id=s.video_id) for s in novel]
    as64 = [FrameSequence(features=s.features.astype(np.float64), label=s.label,
                          video_id=s.video_id) for s in as32]
    assert {s.features.dtype for s in as32} == {np.dtype(np.float32)}
    assert {s.features.dtype for s in as64} == {np.dtype(np.float64)}
    model = _frozen_model(kind="clta")
    spec = EpisodeSpec(n_way=4, k_shot=2, num_episodes=8, retrain_epochs=5, seed=2, head=head)
    a, b = run_episodes(model, as32, spec), run_episodes(model, as64, spec)
    assert a.results == b.results
    assert (a.mean_acc, a.ci95) == (b.mean_acc, b.ci95)


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


def _reference_fit(grad_fn, params, epochs, lr):
    """Full-batch Adam in plain numpy, one step per epoch; grad_fn(params)
    gives the grads over all rows."""
    moments = {k: (np.zeros_like(p), np.zeros_like(p)) for k, p in params.items()}
    for step in range(1, epochs + 1):
        grads = grad_fn(params)
        for k, p in params.items():
            m, v = moments[k]
            m[...] = 0.9 * m + (1 - 0.9) * grads[k]
            v[...] = 0.999 * v + (1 - 0.999) * grads[k] * grads[k]
            p -= lr * (m / (1 - 0.9 ** step)) / (np.sqrt(v / (1 - 0.999 ** step)) + 1e-8)
    return params


def _reference_softmax_fit(X, y, n_way, epochs, lr):
    """The episode softmax head, fitted in plain numpy."""
    onehot = np.eye(n_way)[y]

    def grads(params):
        z = X @ params["W"] + params["b"]
        z = np.exp(z - z.max(axis=1, keepdims=True))
        d = (z / z.sum(axis=1, keepdims=True) - onehot) / len(X)
        return {"W": X.T @ d, "b": d.sum(axis=0)}

    params = {"W": np.zeros((X.shape[1], n_way)), "b": np.zeros(n_way)}
    return _reference_fit(grads, params, epochs, lr)


def _reference_cosine_fit(X, y, n_way, epochs, lr):
    """The episode cosine head, fitted one example at a time in plain numpy."""
    def grads(params):
        P, t = params["proto"], params["temp"][0]
        gP, gt = np.zeros_like(P), 0.0
        for i in range(len(X)):
            nv, nw = np.linalg.norm(X[i]), np.linalg.norm(P, axis=1)
            s = P @ X[i] / (nw * nv)
            z = np.exp(t * s - np.max(t * s))
            d = z / z.sum()
            d[y[i]] -= 1.0
            d /= len(X)
            gP += ((t * d / nw)[:, None] * X[i] / nv
                   - (t * d * s / nw ** 2)[:, None] * P)
            gt += d @ s
        return {"proto": gP, "temp": np.array([gt])}

    params = {"proto": np.stack([X[y == c].mean(axis=0) for c in range(n_way)]),
              "temp": np.array([10.0])}
    return _reference_fit(grads, params, epochs, lr)


@pytest.mark.parametrize("head", ["softmax", "cosine"])
@pytest.mark.parametrize("n_way,k_shot", [(4, 5), (5, 13)])
def test_stacked_fit_matches_a_plain_fit(head, n_way, k_shot):
    # softmax: bit for bit; cosine sums the rows in a matrix product, so its
    # weights may move by float64 rounding: 1e-12 is ~4500 ulps at 1.
    # 5-way 13-shot steps on all 65 support rows at once, as 4-way 5-shot on 20
    rng = np.random.default_rng(10)
    E, h, epochs = 5, 16, 12
    X = rng.normal(size=(E, n_way * k_shot, h))
    y = np.stack([rng.permutation(np.repeat(np.arange(n_way), k_shot)) for _ in range(E)])
    spec = EpisodeSpec(n_way=n_way, k_shot=k_shot, retrain_epochs=epochs)
    stacked = episodes._fit_heads(head, X, y, spec)
    assert isinstance(stacked, SoftmaxHead if head == "softmax" else CosineHead)
    reference = _reference_softmax_fit if head == "softmax" else _reference_cosine_fit
    for e in range(E):
        want = reference(X[e], y[e], n_way, epochs, RETRAIN_LR)
        # each stacked parameter carries a broadcast axis for the rows
        for got, k in zip(vars(stacked).values(), want):
            got = got[e].reshape(want[k].shape)
            if head == "softmax":
                assert got.tobytes() == want[k].tobytes()
            else:
                assert np.allclose(got, want[k], rtol=0, atol=1e-12)


@pytest.mark.parametrize("head", ["softmax", "cosine"])
@pytest.mark.parametrize("rows", [64, 4])
def test_fit_heads_raises_on_a_non_finite_descriptor(head, rows):
    # the per-step gradient check, through the buffers of a whole fit; the
    # nan sits in the last support row of one episode, on 1-shot and 16-shot
    rng = np.random.default_rng(13)
    E, n_way, h, epochs = 3, 4, 8, 4
    k_shot = rows // n_way
    X = rng.normal(size=(E, rows, h))
    X[1, rows - 1, 2] = np.nan
    y = np.stack([rng.permutation(np.repeat(np.arange(n_way), k_shot)) for _ in range(E)])
    spec = EpisodeSpec(n_way=n_way, k_shot=k_shot, retrain_epochs=epochs)
    with pytest.raises(TrainingError):
        episodes._fit_heads(head, X, y, spec)


def test_retrain_classifier_is_bit_identical_to_a_plain_fit(monkeypatch):
    # 5-way 13-shot: 65 support rows, one full-batch step per retrain epoch;
    # the head run_episodes fits is the plain-numpy softmax fit, bit for bit
    fitted = []
    fit_heads = episodes._fit_heads

    def recording_fit(*args):
        fitted.append((args, fit_heads(*args)))
        return fitted[-1][1]

    monkeypatch.setattr(episodes, "_fit_heads", recording_fit)
    novel = _novel_set(np.random.default_rng(11), n_classes=5, per_class=14)
    model = _frozen_model(kind="clta")
    spec = EpisodeSpec(n_way=5, k_shot=13, num_episodes=1, retrain_epochs=7)
    run_episodes(model, novel, spec)
    [((kind, X, y, fit_spec), head)] = fitted
    [(support, query)] = _drawn(novel, spec)
    labels = sorted({novel[j].label for j in query})
    want_X = episodes._descriptors(model, novel)[support]
    want_y = np.array([labels.index(novel[j].label) for j in support])
    assert kind == "softmax" and fit_spec is spec
    assert X[0].tobytes() == want_X.tobytes() and np.array_equal(y[0], want_y)
    want = _reference_softmax_fit(want_X, want_y, 5, spec.retrain_epochs, RETRAIN_LR)
    assert head.W[0].tobytes() == want["W"].tobytes()
    assert head.bias[0].reshape(want["b"].shape).tobytes() == want["b"].tobytes()


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


def test_episode_head_override(monkeypatch):
    fitted = []
    fit_heads = episodes._fit_heads

    def recording_fit(*args):
        head = fit_heads(*args)
        fitted.append(type(head))
        return head

    monkeypatch.setattr(episodes, "_fit_heads", recording_fit)
    novel = _novel_set(np.random.default_rng(7), n_classes=5)
    for classifier, head, want in (("softmax", "cosine", CosineHead),
                                   ("cosine", "softmax", SoftmaxHead),
                                   ("cosine", "same", CosineHead)):
        fitted.clear()
        spec = EpisodeSpec(n_way=5, num_episodes=3, retrain_epochs=3, head=head)
        run_episodes(_frozen_model(classifier=classifier), novel, spec)
        assert fitted == [want]


@pytest.fixture
def plans():
    """The episode-plan cache, empty before and after the test."""
    episodes._make_plan.cache_clear()
    yield episodes._make_plan
    episodes._make_plan.cache_clear()


def _fresh(model, novel, spec):
    """run_episodes from an empty plan cache."""
    episodes._make_plan.cache_clear()
    return run_episodes(model, novel, spec)


@pytest.mark.parametrize("head", ["softmax", "cosine"])
def test_a_memo_hit_gives_the_results_of_the_first_call(plans, head):
    rng = np.random.default_rng(14)
    model = _frozen_model(kind="clta")
    # episodes spanning two chunks, and 5-way 13-shot on 65 support rows
    for novel, n_way, k_shot, num_episodes in (
            (_novel_set(rng), 4, 2, episodes._CHUNK + 3),
            (_novel_set(rng, n_classes=6, per_class=14), 5, 13, 4)):
        spec = EpisodeSpec(n_way=n_way, k_shot=k_shot, num_episodes=num_episodes,
                           retrain_epochs=4, seed=2, head=head)
        first = run_episodes(model, novel, spec)
        misses = plans.cache_info().misses
        second = run_episodes(model, novel, spec)
        assert plans.cache_info().misses == misses and plans.cache_info().currsize == 1
        assert second == first


def test_a_set_with_the_same_labels_scores_its_own_descriptors(plans):
    rng = np.random.default_rng(16)
    noisy = _novel_set(rng, n_classes=5)
    separable = _novel_set(rng, n_classes=5, separable=True)
    assert [s.label for s in noisy] == [s.label for s in separable]
    model = _frozen_model()
    spec = EpisodeSpec(n_way=5, k_shot=1, num_episodes=12, retrain_epochs=5,
                       seed=1, head="cosine")
    on_noise = run_episodes(model, noisy, spec)
    hit = run_episodes(model, separable, spec)
    assert plans.cache_info()[:2] == (1, 1)   # (hits, misses)
    assert hit.mean_acc == 1.0 > on_noise.mean_acc
    assert hit == _fresh(model, separable, spec)


def test_a_changed_seed_or_k_shot_never_reuses_a_plan(plans):
    novel = _novel_set(np.random.default_rng(17))
    model = _frozen_model()
    spec = EpisodeSpec(n_way=4, k_shot=1, num_episodes=8, retrain_epochs=3, seed=5)
    base = run_episodes(model, novel, spec)
    for change in (dict(seed=6), dict(k_shot=2)):
        other = dataclasses.replace(spec, **change)
        misses = plans.cache_info().misses
        got = run_episodes(model, novel, other)
        assert plans.cache_info().misses == misses + 1
        assert got == _fresh(model, novel, other)
        assert [r.per_class for r in got.results] != [r.per_class for r in base.results]
        assert run_episodes(model, novel, spec) == base
    # the cache keys on the spec's field values, and a spec cannot change in place
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.seed = 6
    assert spec.seed == 5


def test_the_memo_keeps_only_the_latest_plan(plans):
    novel = _novel_set(np.random.default_rng(18))
    model = _frozen_model()
    labels = tuple(s.label for s in novel)
    last = None
    for seed in (0, 1, 2, 1):
        spec = EpisodeSpec(n_way=4, num_episodes=2, retrain_epochs=1, seed=seed)
        misses = plans.cache_info().misses
        run_episodes(model, novel, spec)
        assert plans.cache_info().misses == misses + 1   # a new key replaces the plan held
        plan = plans(labels, spec)
        assert plan is not last
        run_episodes(model, novel, spec)
        assert plans.cache_info().misses == misses + 1 and plans.cache_info().currsize == 1
        assert plans(labels, spec) is plan
        last = plan


def _plan_arrays(plan):
    return [a for a in plan if isinstance(a, np.ndarray)]


def test_cached_plan_arrays_are_read_only(plans):
    novel = _novel_set(np.random.default_rng(19))
    spec = EpisodeSpec(n_way=4, k_shot=2, num_episodes=3, retrain_epochs=2, seed=1)
    run_episodes(_frozen_model(), novel, spec)
    arrays = _plan_arrays(plans(tuple(s.label for s in novel), spec))
    assert plans.cache_info()[:2] == (1, 1)   # the plan run_episodes made
    assert len(arrays) == 4
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
