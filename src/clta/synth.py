"""Synthetic variable-length sequences with a planted class signal.

Each class owns a unit prototype direction. Background frames are rectified
Gaussian noise (post-activation backbone outputs are nonnegative); a short
window of frames gets signal_amp times the prototype added,
plus cue_amp times a class-independent cue direction (the analogue of a
generic "something is happening" signature that lets content-driven
attention localize windows of classes it never trained on). A sprinkling
of background frames carries the same cue at lower amplitude, standing in
for the mildly salient non-essential scenes of real videos. In
fixed_position mode the window sits at one fixed fraction of every video;
in instance_shifted mode it lands
uniformly at random per video, which is the regime where shared temporal
filters break down.

Splits partition the classes disjointly (meta-learning discipline).
"""

from dataclasses import dataclass

import numpy as np

from .attention import FrameSequence
from .errors import ConfigError

SPLITS = ("train", "val", "test")
MODES = ("instance_shifted", "fixed_position")
# Shares of the classes in the train and val splits; the test split takes the rest.
_TRAIN_FRAC, _VAL_FRAC = 20 / 30, 5 / 30
# Share of background frames that carry the weak cue, and its amplitude.
_DISTRACTOR_RATE, _DISTRACTOR_AMP = 0.25, 0.15
# Videos of a class that generate() draws and shapes at a time, in one scratch block.
_SCRATCH_VIDEOS = 8


@dataclass
class SynthConfig:
    num_classes: int = 30
    videos_per_class: int = 30
    d: int = 32
    t_min: int = 12
    t_max: int = 40
    window_len: int = 6
    signal_amp: float = 0.3
    cue_amp: float = 0.3
    noise_std: float = 0.12
    mode: str = "instance_shifted"   # instance_shifted | fixed_position
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not (self.t_min >= self.window_len >= 1):
            raise ConfigError(
                f"need t_min >= window_len >= 1, got {self.t_min}/{self.window_len}")
        if self.t_max < self.t_min:
            raise ConfigError(f"t_max {self.t_max} < t_min {self.t_min}")
        if self.num_classes < 3:
            raise ConfigError("need at least 3 classes (one per split)")
        if self.videos_per_class < 1:
            raise ConfigError(f"need at least 1 video per class, got {self.videos_per_class}")
        if self.d < 3:  # _prototypes draws 2 distinct prototypes at d=2, none at d=1
            raise ConfigError(f"feature dimension d must be >= 3, got {self.d}")
        if not self.noise_std >= 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")

    def split_counts(self):
        n_train = int(round(_TRAIN_FRAC * self.num_classes))
        n_val = int(round(_VAL_FRAC * self.num_classes))
        return n_train, n_val, self.num_classes - n_train - n_val


@dataclass
class Dataset:
    sequences: list[FrameSequence]
    split_of: dict[str, str]          # video_id -> train/val/test
    prototypes: np.ndarray            # (num_classes, d)

    def split(self, name: str) -> list[FrameSequence]:
        return [s for s in self.sequences if self.split_of[s.video_id] == name]


# Every prototype shares this much energy along the all-positive direction;
# it is the content cue that lets a trained detector fire on unseen classes.
_SHARED_FRAC = 0.05


def _prototypes(rng: np.random.Generator, num: int, d: int) -> np.ndarray:
    """Unit vectors with pairwise cosine < 0.3, enforced by rejection.

    Each prototype mixes a common nonnegative component with a class-specific
    signed residual orthogonal to it.
    """
    u = np.full(d, 1.0 / np.sqrt(d))
    protos: list[np.ndarray] = []
    attempts = 0
    while len(protos) < num:
        attempts += 1
        if attempts > 10 * num:
            raise ConfigError(
                f"could not draw {num} prototypes with cosine < 0.3 in d={d}; "
                f"increase d")
        q = rng.standard_normal(d)
        q -= (q @ u) * u
        q /= np.linalg.norm(q)
        p = np.sqrt(_SHARED_FRAC) * u + np.sqrt(1.0 - _SHARED_FRAC) * q
        if all(float(p @ r) < 0.3 for r in protos):
            protos.append(p)
    return np.stack(protos)


def generate(cfg: SynthConfig) -> Dataset:
    """Build the full labelled dataset, deterministic from cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    protos = _prototypes(rng, cfg.num_classes, cfg.d)
    cue = np.full(cfg.d, 1.0 / np.sqrt(cfg.d))
    n_train, n_val, _ = cfg.split_counts()

    # fixed_position plants every window at one dataset-level fraction so that
    # a filter bank shared across classes can align to it; per-class fractions
    # would leave nothing for shared filters to lock onto once the per-filter
    # summaries are fused
    fixed_frac = float(rng.uniform(0.0, 1.0))

    sequences: list[FrameSequence] = []
    split_of: dict[str, str] = {}
    distractor = _DISTRACTOR_AMP * cue
    # videos draw into their own rows of the block in rng's per-video order, are
    # shaped in one pass, and each gets an exact-size copy of its rows
    block = np.empty((min(_SCRATCH_VIDEOS, cfg.videos_per_class) * cfg.t_max, cfg.d))
    uniform = np.empty(len(block))
    for c in range(cfg.num_classes):
        label = f"class{c:03d}"
        split = "train" if c < n_train else ("val" if c < n_train + n_val else "test")
        planted = cfg.signal_amp * protos[c] + cfg.cue_amp * cue
        for first in range(0, cfg.videos_per_class, _SCRATCH_VIDEOS):
            videos = range(first, min(first + _SCRATCH_VIDEOS, cfg.videos_per_class))
            rows, starts = [0], []
            for v in videos:
                T = int(rng.integers(cfg.t_min, cfg.t_max + 1))
                # pin the dataset max length into the training split so Z covers every split
                if c == 0 and v == 0:
                    T = cfg.t_max
                rng.standard_normal(out=block[rows[-1]:rows[-1] + T])
                room = T - cfg.window_len
                if cfg.mode == "fixed_position":
                    starts.append(rows[-1] + int(round(fixed_frac * room)))
                else:
                    starts.append(rows[-1] + int(rng.integers(0, room + 1)))
                rng.random(out=uniform[rows[-1]:rows[-1] + T])
                rows.append(rows[-1] + T)
            F = block[:rows[-1]]
            # rng.normal(0.0, s) is 0.0 + s * z, which also turns z = -0.0 into 0.0
            F *= cfg.noise_std
            F += 0.0
            window = (np.array(starts)[:, None] + np.arange(cfg.window_len)).ravel()
            # weak distractor cues on scattered background frames: soft
            # position estimates get dragged toward them, hard ones do not
            hit = uniform[:rows[-1]] < _DISTRACTOR_RATE
            hit[window] = False
            np.add(F, distractor, out=F, where=hit[:, None])
            F[window] += planted
            # features model post-activation backbone outputs, so they are
            # nonnegative; this is what lets the attention width detector
            # push frame scores negative and sharpen the Gaussians
            np.maximum(F, 0.0, out=F)
            for v, lo, hi in zip(videos, rows, rows[1:]):
                vid = f"{label}_v{v:03d}"
                sequences.append(FrameSequence(F[lo:hi].copy(), label, vid))
                split_of[vid] = split
    return Dataset(sequences=sequences, split_of=split_of, prototypes=protos)
