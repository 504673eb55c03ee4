"""Full model assembly: attention + fusion + projection head + classifier.

Forward and backward are hand-chained over a stack of videos padded to one
length with a frame mask, and the backward sums a gradient for every
registered parameter over the stack, so the optimizer and the
finite-difference checker can treat the model as a black-box loss.
"""

from dataclasses import dataclass, asdict

import numpy as np

from . import attention as att
from . import baselines as bl
from . import classifiers as cls
from .errors import ConfigError, ShapeError, TrainingError
from .numerics import cross_entropy, relu, sum_outer


def _clta_init(rng, K, attn_dim, cfg):
    # keep beta * scores in the soft regime at init, otherwise the soft-argmax
    # saturates to an exact one-hot and W_mean gets no gradient; norms grow
    # during training, annealing it toward argmax
    return {"W_mean": rng.standard_normal((K, attn_dim)) / (cfg.beta * np.sqrt(attn_dim)),
            "W_std": rng.standard_normal((K, attn_dim)) / np.sqrt(attn_dim)}


# kind -> (init(rng, K, attn_dim, cfg) -> params, forward(G, params, cfg, mask) -> cache,
# backward(cache, de, dG-or-None) -> (*dparams, dG-or-None), the names of dparams).
# A kind only weighs frames: its cache's e (..., K, T) is the one record of the pass,
# which forward_video pools once as v = e @ G. Its backward gets de, the gradient on e,
# and adds its score path to the pooling's dG; avg has no parameters and no backward.
# Kernels are looked up on their module per call, so wrappers installed there see them.
_KINDS = {
    "clta": (_clta_init,
             lambda G, p, cfg, mask: att.attend_forward(G, p["W_mean"], p["W_std"],
                                                        cfg.beta, cfg.Z, mask),
             lambda *a: att.attend_backward(*a), ("W_mean", "W_std")),
    # every frame of a video weighted 1/T; fusing its one summary is exact
    "avg": (lambda rng, K, attn_dim, cfg: {},
            lambda G, p, cfg, mask: {"e": mask[..., None, :] / mask.sum(axis=-1)[..., None, None]},
            None, ()),
    "selfattn": (lambda rng, K, attn_dim, cfg:
                 {"W_attn": rng.standard_normal((K, attn_dim)) / np.sqrt(attn_dim)},
                 lambda G, p, cfg, mask: bl.self_attention_forward(G, p["W_attn"], mask),
                 lambda *a: bl.self_attention_backward(*a), ("W_attn",)),
    "tsf": (lambda rng, K, attn_dim, cfg: bl.tsf_init(K),
            lambda G, p, cfg, mask: bl.tsf_forward(p["centers"], p["widths"], cfg.Z, mask),
            lambda *a: bl.tsf_backward(*a), ("centers", "widths")),
    "sldg": (lambda rng, K, attn_dim, cfg: {"scales": np.ones(K)},
             lambda G, p, cfg, mask: bl.sldg_forward(p["scales"], cfg.Z, mask),
             lambda *a: bl.sldg_backward(*a), ("scales",)),
}
MODEL_KINDS = tuple(_KINDS)
CLASSIFIERS, PROJECTION_STAGES = ("softmax", "cosine"), ("pre", "post")


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
    dropout: float = 0.0
    batch_norm: bool = False           # removed: False is the one legal value

    def __post_init__(self):
        for label, value, allowed in (
                ("model kind", self.kind, MODEL_KINDS),
                ("classifier", self.classifier, CLASSIFIERS),
                ("fusion", self.fusion, ("average", "soft_weight")),
                ("projection stage", self.projection_stage, PROJECTION_STAGES)):
            if value not in allowed:
                raise ConfigError(f"unknown {label} {value!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.batch_norm is not False:
            raise ConfigError(f"batch norm is no longer supported (batch_norm={self.batch_norm!r})")
        # one range for beta, a factor 1e8 inside the float64 limits: the init's
        # W_mean, standard-normal draws times 1 / (beta * sqrt(attn_dim)), and that
        # divisor stay finite for any array-sized attn_dim. JSON gives NaN and
        # Infinity as floats (outside every range), true as a bool, a string, and
        # a long run of digits as an int, which compares with a float exactly
        beta = self.beta
        if (isinstance(beta, bool) or not isinstance(beta, (int, float, np.integer, np.floating))
                or not 1e-300 <= beta <= 1e300):
            raise ConfigError(f"beta must be a number in [1e-300, 1e300], got {beta!r}")
        for name in ("num_gaussians", "Z", "feature_dim", "hidden", "num_classes"):
            size = getattr(self, name)
            # JSON gives true as a bool, which is an int subclass but no size
            if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {size!r}")
            if size < 1:
                raise ConfigError(f"{name} must be >= 1, got {size}")
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
        if cfg.classifier == "softmax":
            p["cls_W"] = np.zeros((h, c))
            p["cls_b"] = np.zeros(c)
        else:
            p["cls_proto"] = rng.standard_normal((c, h)) / np.sqrt(h)
            p["cls_temp"] = np.array([cls.INIT_TEMPERATURE])
        self.params = p
        # the removed batch norm's running stats; only benchmarks/ reads or sets them
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

    # -- classifier head --------------------------------------------------------

    def _head(self):
        """The classifier head over the params, and their names in field order."""
        p = self.params
        if self.cfg.classifier == "softmax":
            return cls.SoftmaxHead(W=p["cls_W"], bias=p["cls_b"]), ("cls_W", "cls_b")
        return (cls.CosineHead(W_proto=p["cls_proto"], temperature=p["cls_temp"]),
                ("cls_proto", "cls_temp"))

    # -- forward / backward ---------------------------------------------------

    def forward_video(self, F: np.ndarray, mask: np.ndarray,
                      rng: np.random.Generator | None = None):
        """Compute class logits (B, c) for a stack (B, T, d) zero-padded to T with a
        frame mask (B, T), with dropout masks drawn from rng when it is given and
        cfg.dropout > 0. Returns (logits, cache) for backward_video."""
        F = np.asarray(F, dtype=np.float64)
        p, cfg = self.params, self.cfg
        if F.shape[-1] != cfg.feature_dim:
            raise ShapeError(f"feature dim {F.shape[-1]} does not match the model's "
                             f"feature_dim {cfg.feature_dim}")
        if F.shape[-2] > cfg.Z:
            raise ConfigError(f"sequence length {F.shape[-2]} exceeds Z={cfg.Z}")
        cache: dict = {"F": F}

        if cfg.projection_stage == "pre":
            x0 = F @ p["proj_W"].T + p["proj_b"]      # (B, T, h)
            G = relu(x0)
            cache["pre_x0"] = x0
        else:
            G = F

        cache["attn"] = _KINDS[cfg.kind][1](G, p, cfg, mask)
        v = cache["attn"]["e"] @ G                    # (B, K, d)
        # soft_logits is a parameter exactly when the config fuses with soft weights
        V = att.fusion_weights(p.get("soft_logits"), v.shape[-2]) @ v
        cache["G"], cache["v"] = G, v

        if cfg.projection_stage == "post":
            x0 = V @ p["proj_W"].T + p["proj_b"]      # (B, h)
            y = relu(x0)
            cache["post_x0"] = x0
            cache["V_in"] = V
        else:
            y = V

        if rng is not None and cfg.dropout > 0.0:
            cache["drop_mask"] = (rng.random(y.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
            y = y * cache["drop_mask"]

        cache["y"] = y
        logits, cache["cos"] = cls.head_forward(y, self._head()[0])
        return logits, cache

    def backward_video(self, cache: dict, dlogits: np.ndarray, grads: dict[str, np.ndarray]):
        """Accumulate gradients for dlogits (B, c), summed over the stack, into grads."""
        p, cfg = self.params, self.cfg
        y = cache["y"]

        head, names = self._head()
        *dhead, dy = cls.head_logits_backward(y, head, dlogits, cache["cos"])
        for name, d in zip(names, dhead):
            grads[name] += d

        dr = dy * cache.get("drop_mask", 1.0)
        if cfg.projection_stage == "post":
            dx0 = dr * (cache["post_x0"] > 0)
            grads["proj_W"] += dx0.T @ cache["V_in"]
            grads["proj_b"] += dx0.sum(axis=0)
            dV = dx0 @ p["proj_W"]
        else:
            dV = dr

        dv, dsl = att.fuse_backward(cache["v"], p.get("soft_logits"), dV)
        if dsl is not None:
            grads["soft_logits"] += dsl
        # the pooling v = e @ G, once for every kind: dG in the pre stage, de for parameters
        _, _, backward, names = _KINDS[cfg.kind]
        e, G = cache["attn"]["e"], cache["G"]
        dG = np.swapaxes(e, -1, -2) @ dv if cfg.projection_stage == "pre" else None
        if names:
            *dparams, dG = backward(cache["attn"], dv @ np.swapaxes(G, -1, -2), dG)
            for name, d in zip(names, dparams):
                grads[name] += d

        if dG is not None:
            dx0 = dG * (cache["pre_x0"] > 0)        # (B, T, h)
            grads["proj_W"] += sum_outer(dx0, cache["F"])
            grads["proj_b"] += dx0.sum(axis=(0, 1))


# Videos padded into one forward pass, in length order so a chunk holds little
# padding. 64 beat 32 on train epochs and cost 1.0 to 1.6 MB of peak memory.
_CHUNK = 64


def _padded_chunks(pairs):
    """Yield (F (B, T, d), mask (B, T), targets (B,)) for chunks of up to _CHUNK
    (F, target) pairs in stable length order, each padded to its longest video.
    F is float64: here stored float32 features become float64, exactly."""
    dims = sorted({F.shape[-1] for F, _ in pairs})
    if len(dims) > 1:
        raise ShapeError(f"videos of feature dims {dims} cannot share a batch")
    lens = np.array([len(F) for F, _ in pairs])
    order = np.argsort(lens, kind="stable")
    for lo in range(0, len(pairs), _CHUNK):
        idx = order[lo:lo + _CHUNK]
        F = np.zeros((len(idx), lens[idx[-1]], pairs[idx[0]][0].shape[-1]))
        for k, i in enumerate(idx):
            F[k, :lens[i]] = pairs[i][0]
        yield F, np.arange(F.shape[1]) < lens[idx, None], np.array([pairs[i][1] for i in idx])
        del F  # no name, row views included, holds this stack when the next is made


def descriptor(model: Model, F: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Classifier input without dropout (frozen attention + head), (B, h) for a
    stack (B, T, d) with a frame mask (B, T). With no mask every frame counts,
    and a lone (T, d) video is a stack of one: it gives (1, h)."""
    if mask is None:
        F = np.reshape(F, (-1,) + np.shape(F)[-2:])
        mask = np.ones(F.shape[:2], dtype=bool)
    return model.forward_video(F, mask)[1]["y"]


def loss_and_grads(model: Model, batch, rng: np.random.Generator | None = None):
    """(mean cross-entropy, mean gradients, correct) over [(F, target), ...], with
    dropout from rng if given; correct counts the videos this same pass classifies right."""
    if not batch:
        raise ConfigError("empty batch")
    grads = {k: np.zeros_like(v) for k, v in model.params.items()}
    total, correct = 0.0, 0
    for F, mask, y in _padded_chunks(batch):
        logits, cache = model.forward_video(F, mask, rng)
        loss, dlogits = cross_entropy(logits, y)
        if not np.all(np.isfinite(loss)):
            raise TrainingError("non-finite loss during batch evaluation")
        total += loss.sum()
        correct += int((logits.argmax(axis=-1) == y).sum())
        model.backward_video(cache, dlogits / len(batch), grads)
        del F, cache  # one padded chunk and its forward cache alive at a time
    return total / len(batch), grads, correct
