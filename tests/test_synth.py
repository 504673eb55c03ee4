"""Unit checks for the synthetic planted-signal generator."""

import hashlib

import numpy as np
import pytest

from clta import synth
from clta.errors import ConfigError
from clta.synth import SynthConfig, generate


def _small_cfg(**kw):
    # 9 classes split 6 / 2 / 1
    base = dict(num_classes=9, videos_per_class=6, d=24, t_min=8, t_max=16,
                window_len=4, seed=0)
    base.update(kw)
    return SynthConfig(**base)


@pytest.fixture
def no_distractors(monkeypatch):
    monkeypatch.setattr(synth, "_DISTRACTOR_RATE", 0.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(mode="nope")
    with pytest.raises(ConfigError):
        SynthConfig(t_min=4, window_len=6)
    with pytest.raises(ConfigError):
        SynthConfig(t_min=12, t_max=10)
    with pytest.raises(ConfigError):
        SynthConfig(num_classes=2)
    for videos in (0, -1):
        with pytest.raises(ConfigError, match="video per class"):
            SynthConfig(videos_per_class=videos)


def test_config_rejects_bad_sizes():
    # a prototype's residual is orthogonal to the shared direction: at d=2 it is
    # one of two vectors, so 3 classes cannot all differ; at d=1 it is zero
    for bad in (dict(d=0), dict(d=-3), dict(d=1), dict(d=2), dict(noise_std=-1.0),
                dict(noise_std=float("nan"))):
        with pytest.raises(ConfigError):
            SynthConfig(**bad)
    SynthConfig(d=3, noise_std=0.0)


def test_split_counts_partition_every_class_count_from_3():
    # the fixed fractions leave no split negative, so no count needs a check
    for classes in range(3, 100_001):
        n_train, n_val, n_test = SynthConfig(num_classes=classes).split_counts()
        assert min(n_train, n_val, n_test) >= 0 and n_train + n_val + n_test == classes, classes
    assert SynthConfig(num_classes=3).split_counts() == (2, 0, 1)
    assert SynthConfig().split_counts() == (20, 5, 5)


def test_generation_is_deterministic():
    a = generate(_small_cfg())
    b = generate(_small_cfg())
    assert len(a.sequences) == len(b.sequences)
    for x, y in zip(a.sequences, b.sequences):
        assert x.video_id == y.video_id and x.label == y.label
        assert np.array_equal(x.features, y.features)
    c = generate(_small_cfg(seed=1))
    assert not np.array_equal(a.sequences[0].features, c.sequences[0].features)


def test_counts_lengths_and_nonnegativity():
    cfg = _small_cfg()
    ds = generate(cfg)
    assert len(ds.sequences) == 9 * 6
    for s in ds.sequences:
        assert cfg.t_min <= s.T <= cfg.t_max
        assert s.d == cfg.d
        assert np.all(s.features >= 0.0)  # post-activation features


def test_max_length_is_pinned_into_the_training_split():
    cfg = _small_cfg()
    ds = generate(cfg)
    lengths = {name: [s.T for s in ds.split(name)] for name in ("train", "val", "test")}
    assert max(lengths["train"]) == cfg.t_max
    assert max(max(T) for T in lengths.values()) == cfg.t_max


def test_splits_partition_classes_disjointly():
    ds = generate(_small_cfg())
    labels = {name: {s.label for s in ds.split(name)} for name in ("train", "val", "test")}
    assert len(labels["train"]) == 6
    assert len(labels["val"]) == 2
    assert len(labels["test"]) == 1
    assert not labels["train"] & labels["val"]
    assert not labels["train"] & labels["test"]
    assert not labels["val"] & labels["test"]
    total = sum(len(v) for v in labels.values())
    assert total == 9


def test_prototypes_are_unit_with_bounded_cosine():
    ds = generate(_small_cfg())
    P = ds.prototypes
    assert P.shape == (9, 24)
    assert np.allclose(np.linalg.norm(P, axis=1), 1.0, atol=1e-12)
    G = P @ P.T
    off = G[~np.eye(9, dtype=bool)]
    assert np.all(off < 0.3)


def test_prototype_rejection_fails_in_tiny_dimension():
    # 30 prototypes with pairwise cosine < 0.3 do not fit in d=3
    with pytest.raises(ConfigError):
        generate(SynthConfig(d=3, seed=0))


def _detect_start(seq, cfg):
    """Locate the planted window by the cue projection of a sliding sum."""
    cue = np.full(cfg.d, 1.0 / np.sqrt(cfg.d))
    proj = seq.features @ cue
    sums = np.array([proj[s:s + cfg.window_len].sum()
                     for s in range(seq.T - cfg.window_len + 1)])
    return int(np.argmax(sums))


def test_instance_shifted_windows_move_between_videos(no_distractors):
    cfg = _small_cfg(noise_std=0.02)
    ds = generate(cfg)
    starts = [_detect_start(s, cfg) for s in ds.sequences]
    assert len(set(starts)) > 3  # positions vary across videos


def test_fixed_position_windows_share_one_fraction(no_distractors):
    cfg = _small_cfg(mode="fixed_position", noise_std=0.02)
    ds = generate(cfg)
    # same room (T - window_len) must imply the same start, across classes
    by_room: dict[int, set] = {}
    for s in ds.sequences:
        by_room.setdefault(s.T - cfg.window_len, set()).add(_detect_start(s, cfg))
    for room, starts in by_room.items():
        assert len(starts) == 1, f"room {room} has starts {starts}"
    # and the starts must be consistent with a single fraction of the room
    rooms = sorted(by_room)
    fracs_lo = max(( min(by_room[r]) - 0.5) / r for r in rooms if r > 0)
    fracs_hi = min((min(by_room[r]) + 0.5) / r for r in rooms if r > 0)
    assert fracs_lo <= fracs_hi  # a common fraction exists


def test_window_carries_the_class_prototype(no_distractors):
    cfg = _small_cfg(noise_std=0.02, signal_amp=1.0, cue_amp=0.2)
    ds = generate(cfg)
    hits = 0
    for s in ds.sequences:
        start = _detect_start(s, cfg)
        window = s.features[start:start + cfg.window_len].mean(axis=0)
        scores = ds.prototypes @ window
        c = int(s.label.removeprefix("class"))
        hits += int(np.argmax(scores) == c)
    assert hits / len(ds.sequences) > 0.95


def test_splits_hold_their_classes_and_videos():
    ds = generate(_small_cfg())
    counts = {name: (len({s.label for s in ds.split(name)}), len(ds.split(name)))
              for name in ("train", "val", "test")}
    assert counts == {"train": (6, 6 * 6), "val": (2, 2 * 6), "test": (1, 1 * 6)}
    assert sum(n for _, n in counts.values()) == len(ds.sequences)


# sha256 of generate(SynthConfig(seed=1, **_PINNED[name])): the float64 feature
# bytes, then the ids, the labels and "id,split" lines, each newline-terminated
_PINNED = {
    "instance_shifted": dict(mode="instance_shifted"),
    "fixed_position": dict(mode="fixed_position"),
    # the benchmark's tiny sizes
    "benchmark_tiny": dict(videos_per_class=7, t_min=6, t_max=12),
    # every video exactly one window long, one video a class
    "edge": dict(t_min=6, t_max=6, window_len=6, videos_per_class=1, mode="fixed_position"),
}
_DIGESTS = {
    "instance_shifted": dict(
        features="51bf37bd0e066eb49c608ebdc538fc9554e9a0f4d7d1ffc261b9d814235f8f2d",
        ids="eccba5aa46bed1d43f78ce7f02047646f1b9a9f6f20bd03a7970f15245bae79c",
        labels="d0ed91cfd85cb2e5c3cfe10037a0e4ba242eef99de6d66a0cd6ad1ab32cd3df1",
        splits="99bf01d770504af74950506f6b296203bb8d4a6a7ce50c595ebcd0a13eee5211"),
    "fixed_position": dict(
        features="6133e9abe618dcc999607cdc9e0115f2450795b10e8bf8033535f220d326ed1c",
        ids="eccba5aa46bed1d43f78ce7f02047646f1b9a9f6f20bd03a7970f15245bae79c",
        labels="d0ed91cfd85cb2e5c3cfe10037a0e4ba242eef99de6d66a0cd6ad1ab32cd3df1",
        splits="99bf01d770504af74950506f6b296203bb8d4a6a7ce50c595ebcd0a13eee5211"),
    "benchmark_tiny": dict(
        features="9d937d93ca0cab4f98e877afb8482881684911c3eca06aa3897968b1e7d5286b",
        ids="03ee908feb79a07b1077faf479843a16756ee249859321fb24761d479f663333",
        labels="baa33491b11ea1bf8b594fb90bb41b7b2d1f4ba1b148b974b0dc77f178d3a89a",
        splits="a6593101fce32694f62228417363c7647980a8effa353cd59b51ebd9bb9ffdc1"),
    "edge": dict(
        features="fda0e1f7a22b999a474b48ab3e0c77cf14e29a6c41ef328d61904983f50fe369",
        ids="d1e25daf322a8d32c746490b775a62cc93430d6bf30b520d36f903c37c9d7a15",
        labels="7f78f1b06dfe564053ac1dc5b3027d44bde9ddab7f269b0aa5e2b3fa208c7a4b",
        splits="66d391dd7993b61e97a6139b9401e47e72b776324d70b604aad25353a963d8d1"),
}


@pytest.mark.parametrize("name", sorted(_DIGESTS))
def test_generated_bytes_are_pinned(name):
    ds = generate(SynthConfig(seed=1, **_PINNED[name]))
    parts = dict(
        features=b"".join(s.features.tobytes() for s in ds.sequences),
        ids=b"".join(f"{s.video_id}\n".encode() for s in ds.sequences),
        labels=b"".join(f"{s.label}\n".encode() for s in ds.sequences),
        splits=b"".join(f"{s.video_id},{ds.split_of[s.video_id]}\n".encode()
                        for s in ds.sequences))
    assert {k: hashlib.sha256(v).hexdigest() for k, v in parts.items()} == _DIGESTS[name]
    # every video owns its features: no view into a block shared with other videos
    for s in ds.sequences:
        F = s.features
        assert F.dtype == np.float64 and F.flags.c_contiguous and F.base is None, s.video_id
