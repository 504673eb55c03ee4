"""Full model assembly: attention + fusion + projection head + classifier.

Forward and backward are hand-chained over a stack of videos padded to one
length with a frame mask (one video is a stack of one), and the backward
sums a gradient for every registered parameter over the stack, so the
optimizer and the finite-difference checker can treat the model as a
black-box loss.
"""

from dataclasses import dataclass, asdict

import numpy as np

from . import attention as att
from . import baselines as bl
from . import classifiers as cls
from .errors import ConfigError, ShapeError, TrainingError
from .numerics import cross_entropy, cross_entropy_grad, relu, sum_outer

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.99


def _clta_init(rng, K, attn_dim, cfg):
    # keep beta * scores in the soft regime at init, otherwise the soft-argmax
    # saturates to an exact one-hot and W_mean gets no gradient; norms grow
    # during training, annealing it toward argmax
    return {"W_mean": rng.standard_normal((K, attn_dim)) / (cfg.beta * np.sqrt(attn_dim)),
            "W_std": rng.standard_normal((K, attn_dim)) / np.sqrt(attn_dim)}


def _clta_forward(G, p, cfg, mask):
    trace, cache = att.attend_forward(G, p["W_mean"], p["W_std"], cfg.beta, cfg.Z, mask)
    return trace.summaries, cache


def _avg_forward(G, p, cfg, mask):
    # one summary, with every frame of a video weighted 1/T; fusing one summary is exact
    e = mask[..., None, :] / mask.sum(axis=-1)[..., None, None]
    return bl.average_pool(G, mask)[..., None, :], {"mask": mask, "e": e}


def _avg_backward(cache, dv, need_dG):
    mask = cache["mask"]
    return (mask[..., None] * (dv / mask.sum(axis=-1)[..., None, None]) if need_dG else None,)


# kind -> (init(rng, K, attn_dim, cfg) -> params, forward(G, params, cfg, mask)
# -> (summaries v (..., K, d), one for avg, cache), backward(cache, dv, need_dG)
# -> (*dparams, dG-or-None), the names of dparams). Kernels are looked up on
# their module per call, so wrappers installed there (for timing) see the calls.
_KINDS = {
    "clta": (_clta_init, _clta_forward, lambda *a: att.attend_backward(*a), ("W_mean", "W_std")),
    "avg": (lambda rng, K, attn_dim, cfg: {}, _avg_forward, _avg_backward, ()),
    "selfattn": (lambda rng, K, attn_dim, cfg:
                 {"W_attn": rng.standard_normal((K, attn_dim)) / np.sqrt(attn_dim)},
                 lambda G, p, cfg, mask: bl.self_attention_forward(G, p["W_attn"], mask),
                 lambda *a: bl.self_attention_backward(*a), ("W_attn",)),
    "tsf": (lambda rng, K, attn_dim, cfg: bl.tsf_init(K),
            lambda G, p, cfg, mask: bl.tsf_forward(G, p["centers"], p["widths"], cfg.Z, mask),
            lambda *a: bl.tsf_backward(*a), ("centers", "widths")),
    "sldg": (lambda rng, K, attn_dim, cfg: {"scales": np.ones(K)},
             lambda G, p, cfg, mask: bl.sldg_forward(G, p["scales"], cfg.Z, mask),
             lambda *a: bl.sldg_backward(*a), ("scales",)),
}
MODEL_KINDS = tuple(_KINDS)


@dataclass
class ModelConfig:
    kind: str = "clta"
    classifier: str = "softmax"        # softmax | cosine
    fusion: str = "average"            # average | soft_weight (sldg forces soft, avg average)
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
        # sldg always weighs its heads; avg has one summary, nothing to weigh
        self.fusion = {"sldg": "soft_weight", "avg": "average"}.get(self.kind, self.fusion)


class Model:
    """Parameter container plus forward/backward over a stack of videos."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        K, d, h, c = cfg.num_gaussians, cfg.feature_dim, cfg.hidden, cfg.num_classes
        attn_dim = h if cfg.projection_stage == "pre" else d
        p: dict[str, np.ndarray] = {}
        p["proj_W"] = rng.standard_normal((h, d)) / np.sqrt(d)
        p["proj_b"] = np.zeros(h)
        p.update(_KINDS[cfg.kind][0](rng, K, attn_dim, cfg))
        if cfg.fusion == "soft_weight":
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

    def config_dict(self) -> dict:
        return asdict(self.cfg)

    @staticmethod
    def from_config(cfg_dict: dict, params: dict[str, np.ndarray]) -> "Model":
        try:
            cfg = ModelConfig(**cfg_dict)
        except TypeError as exc:
            raise ConfigError(f"bad checkpoint model config: {exc}") from None
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

    # -- fusion and classifier head -------------------------------------------

    def _fusion_spec(self) -> att.FusionSpec:
        if self.cfg.fusion == "soft_weight":
            return att.FusionSpec(mode="soft_weight", soft_logits=self.params["soft_logits"])
        return att.FusionSpec(mode="average")

    def _head(self):
        """The classifier head over the params, and their names in field order."""
        p = self.params
        if self.cfg.classifier == "softmax":
            return cls.SoftmaxHead(W=p["cls_W"], bias=p["cls_b"]), ("cls_W", "cls_b")
        return (cls.CosineHead(W_proto=p["cls_proto"], temperature=p["cls_temp"]),
                ("cls_proto", "cls_temp"))

    # -- forward / backward ---------------------------------------------------

    def forward_video(self, F: np.ndarray, train: bool = False,
                      rng: np.random.Generator | None = None,
                      mask: np.ndarray | None = None):
        """Compute class logits (c,) for one (T, d) feature matrix, or (B, c)
        for a stack (B, T, d) zero-padded to T with a frame mask (B, T).

        Returns (logits, cache); pass the cache to backward_video.
        """
        one = np.ndim(F) == 2
        F = np.asarray(F, dtype=np.float64).reshape((-1,) + np.shape(F)[-2:])
        mask = att.frame_mask(F, mask)
        p, cfg = self.params, self.cfg
        cache: dict = {"F": F, "mask": mask, "train": train}

        if cfg.projection_stage == "pre":
            x0 = F @ p["proj_W"].T + p["proj_b"]      # (B, T, h)
            G = relu(x0)
            cache["pre_x0"] = x0
        else:
            G = F

        v, cache["attn"] = _KINDS[cfg.kind][1](G, p, cfg, mask)
        V = att.fusion_weights(self._fusion_spec(), v.shape[-2]) @ v
        cache["v"] = v

        if cfg.projection_stage == "post":
            x0 = V @ p["proj_W"].T + p["proj_b"]      # (B, h)
            r = relu(x0)
            cache["post_x0"] = x0
            cache["V_in"] = V
        else:
            r = V

        if cfg.batch_norm:
            if train:
                # running stats move one video at a time; each is normalized by its own update
                mean, var = np.empty_like(r), np.empty_like(r)
                for i, row in enumerate(r):
                    self.bn_mean = _BN_MOMENTUM * self.bn_mean + (1 - _BN_MOMENTUM) * row
                    self.bn_var = _BN_MOMENTUM * self.bn_var + (1 - _BN_MOMENTUM) * (row - self.bn_mean) ** 2
                    mean[i], var[i] = self.bn_mean, self.bn_var
            else:
                mean, var = self.bn_mean, self.bn_var
            denom = np.sqrt(var + _BN_EPS)
            rhat = (r - mean) / denom
            y1 = p["bn_gamma"] * rhat + p["bn_beta"]
            cache["bn_rhat"] = rhat
            cache["bn_denom"] = denom
        else:
            y1 = r

        y = y1
        if train and cfg.dropout > 0.0:
            if rng is None:
                raise ConfigError("training-mode forward with dropout needs an rng")
            cache["drop_mask"] = (rng.random(y1.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
            y = y1 * cache["drop_mask"]

        cache["y"] = y
        logits = cls.head_logits(y, self._head()[0])
        return (logits[0] if one else logits), cache

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.params.items()}

    def backward_video(self, cache: dict, dlogits: np.ndarray,
                       grads: dict[str, np.ndarray] | None = None):
        """Accumulate parameter gradients, summed over the cached stack, into grads."""
        p, cfg = self.params, self.cfg
        if grads is None:
            grads = self.zero_grads()
        y = cache["y"]
        dlogits = np.reshape(dlogits, (len(y), -1))

        head, names = self._head()
        *dhead, dy = cls.head_logits_backward(y, head, dlogits)
        for name, d in zip(names, dhead):
            grads[name] += d

        dy1 = dy * cache.get("drop_mask", 1.0)
        if cfg.batch_norm:
            grads["bn_gamma"] += (dy1 * cache["bn_rhat"]).sum(axis=0)
            grads["bn_beta"] += dy1.sum(axis=0)
            dr = dy1 * p["bn_gamma"] / cache["bn_denom"]
        else:
            dr = dy1

        if cfg.projection_stage == "post":
            dx0 = dr * (cache["post_x0"] > 0)
            grads["proj_W"] += dx0.T @ cache["V_in"]
            grads["proj_b"] += dx0.sum(axis=0)
            dV = dx0 @ p["proj_W"]
        else:
            dV = dr

        dv, dsl = att.fuse_backward(cache["v"], self._fusion_spec(), dV)
        if dsl is not None:
            grads["soft_logits"] += dsl
        *dparams, dG = _KINDS[cfg.kind][2](cache["attn"], dv, cfg.projection_stage == "pre")
        for name, d in zip(_KINDS[cfg.kind][3], dparams):
            grads[name] += d

        if dG is not None:
            dx0 = dG * (cache["pre_x0"] > 0)        # (B, T, h)
            grads["proj_W"] += sum_outer(dx0, cache["F"])
            grads["proj_b"] += dx0.sum(axis=(0, 1))
        return grads


# Videos padded into one forward pass. 64 ran train epochs 5-8% faster but
# raised peak memory by up to 5.3% over one video a pass; 32, by at most 1.8%.
_CHUNK = 32


def _padded_chunks(pairs):
    """Yield (F (B, T, d), mask (B, T), targets (B,)) for consecutive chunks of
    up to _CHUNK (F, target) pairs, each zero-padded to its longest video."""
    for lo in range(0, len(pairs), _CHUNK):
        videos, targets = zip(*pairs[lo:lo + _CHUNK])
        lens = np.array([len(F) for F in videos])
        mask = np.arange(lens.max()) < lens[:, None]
        F = np.zeros(mask.shape + videos[0].shape[-1:])
        F[mask] = np.concatenate(videos)
        yield F, mask, np.array(targets)


def descriptor(model: Model, F: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Eval-mode classifier input (frozen attention + head): (h,) for one (T, d)
    video, (B, h) for a stack (B, T, d) zero-padded with a frame mask (B, T)."""
    y = model.forward_video(F, train=False, mask=mask)[1]["y"]
    return y[0] if np.ndim(F) == 2 else y


def loss_and_grads(model: Model, batch, train: bool = False,
                   rng: np.random.Generator | None = None):
    """Mean cross-entropy and mean gradients over [(F, target), ...]."""
    if not batch:
        raise ConfigError("empty batch")
    grads = model.zero_grads()
    total = 0.0
    for F, mask, y in _padded_chunks(batch):
        logits, cache = model.forward_video(F, train=train, rng=rng, mask=mask)
        loss = cross_entropy(logits, y)
        if not np.all(np.isfinite(loss)):
            raise TrainingError("non-finite loss during batch evaluation")
        total += loss.sum()
        model.backward_video(cache, cross_entropy_grad(logits, y) / len(batch), grads)
    return total / len(batch), grads
