"""Full model assembly: attention + fusion + projection head + classifier.

Forward and backward are hand-chained per video. The backward returns a
gradient for every registered parameter, so the optimizer and the
finite-difference checker can treat the model as a black-box loss.
"""

import copy
from dataclasses import dataclass, asdict

import numpy as np

from . import attention as att
from . import baselines as bl
from . import classifiers as cls
from .errors import ConfigError, ShapeError, TrainingError
from .numerics import cross_entropy, cross_entropy_grad, relu

MODEL_KINDS = ("clta", "avg", "selfattn", "tsf", "sldg")
_BN_EPS = 1e-5
_BN_MOMENTUM = 0.99


@dataclass
class ModelConfig:
    kind: str = "clta"
    classifier: str = "softmax"        # softmax | cosine
    fusion: str = "average"            # average | soft_weight (sldg forces soft)
    num_gaussians: int = 6
    beta: float = 1e3
    Z: int = 1
    feature_dim: int = 16
    hidden: int = 64
    num_classes: int = 5
    projection_stage: str = "post"     # post | pre
    dropout: float = 0.9
    batch_norm: bool = False

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.classifier not in ("softmax", "cosine"):
            raise ConfigError(f"unknown classifier {self.classifier!r}")
        if self.fusion not in ("average", "soft_weight"):
            raise ConfigError(f"unknown fusion {self.fusion!r}")
        if self.projection_stage not in ("post", "pre"):
            raise ConfigError(f"unknown projection stage {self.projection_stage!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.beta <= 0:
            raise ConfigError(f"beta must be > 0, got {self.beta}")
        if self.num_gaussians < 1:
            raise ConfigError(f"need at least one attention head, got {self.num_gaussians}")
        if self.kind == "sldg":
            self.fusion = "soft_weight"


def _clta_forward(G, p, cfg):
    trace, cache = att.attend_forward(G, p["W_mean"], p["W_std"], cfg.beta, cfg.Z)
    return trace.summaries, cache


# kind -> (forward(G, params, cfg) -> (v, cache), backward(cache, dv, need_dG)
# -> (*dparams, dG), the names of dparams). Kernels are looked up on their
# module per call, so wrappers installed there (for timing) see the calls.
_ATTENTION = {
    "clta": (_clta_forward, lambda *a: att.attend_backward(*a), ("W_mean", "W_std")),
    "selfattn": (lambda G, p, cfg: bl.self_attention_forward(G, p["W_attn"]),
                 lambda *a: bl.self_attention_backward(*a), ("W_attn",)),
    "tsf": (lambda G, p, cfg: bl.tsf_forward(G, p["centers"], p["widths"], cfg.Z),
            lambda *a: bl.tsf_backward(*a), ("centers", "widths")),
    "sldg": (lambda G, p, cfg: bl.sldg_forward(G, p["scales"], cfg.Z),
             lambda *a: bl.sldg_backward(*a), ("scales",)),
}


class Model:
    """Parameter container plus per-video forward/backward."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        K, d, h, c = cfg.num_gaussians, cfg.feature_dim, cfg.hidden, cfg.num_classes
        attn_dim = h if cfg.projection_stage == "pre" else d
        p: dict[str, np.ndarray] = {}
        p["proj_W"] = rng.standard_normal((h, d)) / np.sqrt(d)
        p["proj_b"] = np.zeros(h)
        if cfg.kind == "clta":
            # keep beta * scores in the soft regime at init, otherwise the
            # soft-argmax saturates to an exact one-hot and W_mean gets no
            # gradient; norms grow during training, annealing it toward argmax
            p["W_mean"] = rng.standard_normal((K, attn_dim)) / (cfg.beta * np.sqrt(attn_dim))
            p["W_std"] = rng.standard_normal((K, attn_dim)) / np.sqrt(attn_dim)
        elif cfg.kind == "selfattn":
            p["W_attn"] = rng.standard_normal((K, attn_dim)) / np.sqrt(attn_dim)
        elif cfg.kind == "tsf":
            init = bl.tsf_init(K)
            p["centers"] = init.centers.copy()
            p["widths"] = init.widths.copy()
        elif cfg.kind == "sldg":
            p["scales"] = np.ones(K)
        if cfg.kind != "avg" and cfg.fusion == "soft_weight":
            p["soft_logits"] = np.zeros(K)
        if cfg.batch_norm:
            p["bn_gamma"] = np.ones(h)
            p["bn_beta"] = np.zeros(h)
        if cfg.classifier == "softmax":
            p["cls_W"] = np.zeros((h, c))
            p["cls_b"] = np.zeros(c)
        else:
            p["cls_proto"] = rng.standard_normal((c, h)) / np.sqrt(h)
            p["cls_temp"] = np.array([10.0])
        self.params = p
        # batch-norm running stats; treated as constants by the backward pass
        self.bn_mean = np.zeros(h)
        self.bn_var = np.ones(h)

    # -- persistence helpers -------------------------------------------------

    def clone(self) -> "Model":
        m = Model.__new__(Model)
        m.cfg = copy.deepcopy(self.cfg)
        m.params = {k: v.copy() for k, v in self.params.items()}
        m.bn_mean = self.bn_mean.copy()
        m.bn_var = self.bn_var.copy()
        return m

    def config_dict(self) -> dict:
        return asdict(self.cfg)

    @staticmethod
    def from_config(cfg_dict: dict, params: dict[str, np.ndarray]) -> "Model":
        cfg = ModelConfig(**cfg_dict)
        m = Model(cfg, np.random.default_rng(0))
        for k in m.params:
            if k not in params:
                raise ConfigError(f"checkpoint is missing parameter {k!r}")
            if params[k].shape != m.params[k].shape:
                raise ShapeError(
                    f"checkpoint parameter {k!r} has shape {params[k].shape}, "
                    f"expected {m.params[k].shape}")
        m.params = {k: np.asarray(params[k], dtype=np.float64) for k in m.params}
        return m

    # -- attention dispatch --------------------------------------------------

    def _attend(self, G: np.ndarray):
        """Run the configured attention over frames G. Returns (v, cache)."""
        forward, _, _ = _ATTENTION[self.cfg.kind]
        return forward(G, self.params, self.cfg)

    def _attend_backward(self, cache, dv, grads, need_dG):
        _, backward, names = _ATTENTION[self.cfg.kind]
        *dparams, dG = backward(cache, dv, need_dG)
        for name, d in zip(names, dparams):
            grads[name] += d
        return dG

    def _fusion_spec(self) -> att.FusionSpec:
        if self.cfg.kind != "avg" and self.cfg.fusion == "soft_weight":
            return att.FusionSpec(mode="soft_weight", soft_logits=self.params["soft_logits"])
        return att.FusionSpec(mode="average")

    # -- forward / backward ---------------------------------------------------

    def forward_video(self, F: np.ndarray, train: bool = False,
                      rng: np.random.Generator | None = None):
        """Compute class logits for one (T, d) feature matrix.

        Returns (logits, cache); pass the cache to backward_video.
        """
        F = np.asarray(F, dtype=np.float64)
        p, cfg = self.params, self.cfg
        cache: dict = {"F": F, "train": train}

        if cfg.projection_stage == "pre":
            x0 = F @ p["proj_W"].T + p["proj_b"]      # (T, h)
            G = relu(x0)
            cache["pre_x0"] = x0
        else:
            G = F

        if cfg.kind == "avg":
            V = bl.average_pool(G)
            cache["T"] = G.shape[0]
        else:
            v, acache = self._attend(G)
            spec = self._fusion_spec()
            V = att.fusion_weights(spec, v.shape[0]) @ v
            cache["v"] = v
            cache["attn"] = acache

        if cfg.projection_stage == "post":
            x0 = p["proj_W"] @ V + p["proj_b"]
            r = relu(x0)
            cache["post_x0"] = x0
            cache["V_in"] = V
        else:
            r = V

        if cfg.batch_norm:
            if train:
                self.bn_mean = _BN_MOMENTUM * self.bn_mean + (1 - _BN_MOMENTUM) * r
                self.bn_var = _BN_MOMENTUM * self.bn_var + (1 - _BN_MOMENTUM) * (r - self.bn_mean) ** 2
            denom = np.sqrt(self.bn_var + _BN_EPS)
            rhat = (r - self.bn_mean) / denom
            y1 = p["bn_gamma"] * rhat + p["bn_beta"]
            cache["bn_rhat"] = rhat
            cache["bn_denom"] = denom
        else:
            y1 = r

        if train and cfg.dropout > 0.0:
            if rng is None:
                raise ConfigError("training-mode forward with dropout needs an rng")
            mask = (rng.random(y1.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
            y = y1 * mask
            cache["drop_mask"] = mask
        else:
            y = y1

        cache["y"] = y
        if cfg.classifier == "softmax":
            head = cls.SoftmaxHead(W=p["cls_W"], bias=p["cls_b"])
            logits = cls.softmax_logits(y, head)
        else:
            head = cls.CosineHead(W_proto=p["cls_proto"], temperature=float(p["cls_temp"][0]))
            logits = cls.cosine_logits(y, head)
        return logits, cache

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.params.items()}

    def backward_video(self, cache: dict, dlogits: np.ndarray,
                       grads: dict[str, np.ndarray] | None = None):
        """Accumulate parameter gradients for one video into grads."""
        p, cfg = self.params, self.cfg
        if grads is None:
            grads = self.zero_grads()
        y = cache["y"]

        if cfg.classifier == "softmax":
            head = cls.SoftmaxHead(W=p["cls_W"], bias=p["cls_b"])
            dW, db, dy = cls.softmax_logits_backward(y, head, dlogits)
            grads["cls_W"] += dW
            grads["cls_b"] += db
        else:
            head = cls.CosineHead(W_proto=p["cls_proto"], temperature=float(p["cls_temp"][0]))
            dW, dtemp, dy = cls.cosine_logits_backward(y, head, dlogits)
            grads["cls_proto"] += dW
            grads["cls_temp"] += np.array([dtemp])

        if "drop_mask" in cache:
            dy1 = dy * cache["drop_mask"]
        else:
            dy1 = dy

        if cfg.batch_norm:
            grads["bn_gamma"] += dy1 * cache["bn_rhat"]
            grads["bn_beta"] += dy1
            dr = dy1 * p["bn_gamma"] / cache["bn_denom"]
        else:
            dr = dy1

        if cfg.projection_stage == "post":
            dx0 = dr * (cache["post_x0"] > 0)
            grads["proj_W"] += np.outer(dx0, cache["V_in"])
            grads["proj_b"] += dx0
            dV = p["proj_W"].T @ dx0
        else:
            dV = dr

        need_dG = cfg.projection_stage == "pre"
        if cfg.kind == "avg":
            dG = np.tile(dV / cache["T"], (cache["T"], 1)) if need_dG else None
        else:
            v = cache["v"]
            spec = self._fusion_spec()
            dv, dsl = att.fuse_backward(v, spec, dV)
            if dsl is not None:
                grads["soft_logits"] += dsl
            dG = self._attend_backward(cache["attn"], dv, grads, need_dG)

        if need_dG:
            dx0 = dG * (cache["pre_x0"] > 0)        # (T, h)
            grads["proj_W"] += dx0.T @ cache["F"]
            grads["proj_b"] += dx0.sum(axis=0)
        return grads


def descriptor(model: Model, F: np.ndarray) -> np.ndarray:
    """Eval-mode classifier input for one video (frozen attention + head)."""
    _, cache = model.forward_video(F, train=False)
    return cache["y"]


def loss_and_grads(model: Model, batch, train: bool = False,
                   rng: np.random.Generator | None = None):
    """Mean cross-entropy and mean gradients over [(F, target), ...]."""
    if not batch:
        raise ConfigError("empty batch")
    grads = model.zero_grads()
    total = 0.0
    for F, target in batch:
        logits, cache = model.forward_video(F, train=train, rng=rng)
        loss = cross_entropy(logits, target)
        if not np.isfinite(loss):
            raise TrainingError("non-finite loss during batch evaluation")
        total += loss
        model.backward_video(cache, cross_entropy_grad(logits, target) / len(batch), grads)
    return total / len(batch), grads
