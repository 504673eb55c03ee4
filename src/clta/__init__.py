"""Content-and-length based temporal attention for few-shot sequence
classification, with baseline attention mechanisms, a from-scratch trainer,
and an episodic evaluation harness."""

from .attention import AttentionTrace, FrameSequence, FusionSpec, fuse, soft_argmax
from .baselines import average_pool
from .classifiers import (CosineHead, SoftmaxHead, cosine_scores, predict,
                          softmax_logits)
from .episodes import (EpisodeResult, EpisodeSpec, EvalSummary, retrain_classifier,
                       run_episodes, sample_episode)
from .model import Model, ModelConfig, descriptor, loss_and_grads
from .numerics import cross_entropy, finite_diff_check, sigmoid, softmax_stable
from .synth import Dataset, SynthConfig, describe, generate
from .trainer import AdamState, TrainConfig, adam_step, lr_at, train

__version__ = "0.1.0"
