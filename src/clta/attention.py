"""Content-and-length based Gaussian temporal attention.

Per video, each of the K attention heads learns a Gaussian over the
normalized frame axis t/Z. The mean comes from a soft-argmax over the dot
products of frames with a mean-learning row, the standard deviation from
the sigmoid-summed dot products with a std-learning row. The resulting
weights aggregate the frames into K video-level summaries, which a fusion
step combines into one descriptor. The tsf and sldg baselines pool through
the same Gaussian kernel and differ only in where mu and sigma come from.

Frame indices are 1-based inside all formulas; Z is the dataset-wide max
sequence length, frozen from the training split.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .numerics import sigmoid, sigmoid_grad, softmax_backward, softmax_stable

# Below this log-weight the Gaussian is clamped to keep weights strictly
# positive; the gradient is treated as zero in the clamped region.
_LOG_FLOOR = -700.0

# Learned sigmas are floored here (in t/Z units) so a std detector that
# drives every sigmoid to zero cannot collapse the Gaussian to zero width;
# the gradient is treated as zero at the floor.
_SIGMA_FLOOR = 1e-3


@dataclass
class FrameSequence:
    """One video: a (T, d) float64 feature matrix plus optional label."""

    features: np.ndarray
    label: str | None = None
    video_id: str = ""

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1 or self.features.shape[1] < 1:
            raise ShapeError(f"features must be (T>=1, d>=1), got {self.features.shape}")
        if not np.all(np.isfinite(self.features)):
            raise NumericError(f"non-finite features in video {self.video_id!r}")

    @property
    def T(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass
class AttentionTrace:
    """Everything the attention step computed, for inspection and CSV dumps."""

    mu: np.ndarray           # (K,) in [1/Z, T/Z]
    sigma: np.ndarray        # (K,) in [_SIGMA_FLOOR, T/Z]
    raw_weights: np.ndarray  # (K, T), entries in (0, 1]
    norm_weights: np.ndarray  # (K, T), rows sum to 1
    summaries: np.ndarray    # (K, d)


@dataclass
class FusionSpec:
    """How the K summaries become one descriptor."""

    mode: str = "average"  # "average" | "soft_weight"
    soft_logits: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("average", "soft_weight"):
            raise ConfigError(f"unknown fusion mode {self.mode!r}")
        if self.mode == "soft_weight":
            if self.soft_logits is None:
                raise ConfigError("soft_weight fusion requires soft_logits")
            self.soft_logits = np.asarray(self.soft_logits, dtype=np.float64)


def soft_argmax(scores: np.ndarray, beta: float) -> float:
    """Differentiable argmax: expectation of the 1-based index under
    softmax(beta * scores). Result lies in [1, T]."""
    if beta <= 0:
        raise ConfigError(f"beta must be > 0, got {beta}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ShapeError("scores must be a nonempty vector")
    p = softmax_stable(beta * scores)
    idx = np.arange(1, scores.size + 1, dtype=np.float64)
    return float(p @ idx)


def gaussian_pool_forward(F: np.ndarray, mu: np.ndarray, sigma: np.ndarray, Z: int,
                          scale: np.ndarray | None = None):
    """Pool frames F (T, d) through K Gaussians over t/Z, t=1..T.

    Head k weighs frame t by a = exp(max(-((t/Z - mu_k)/sigma_k)^2 / 2,
    _LOG_FLOOR)), softmaxes scale_k * a (or a) over frames and averages the
    frames with the result. Returns (v (K, d), cache).
    """
    pos = np.arange(1, F.shape[0] + 1, dtype=np.float64) / Z    # (T,)
    u = (pos[None, :] - mu[:, None]) / sigma[:, None]             # (K, T)
    g = -0.5 * u * u
    a = np.exp(np.maximum(g, _LOG_FLOOR))
    e = softmax_stable(a if scale is None else scale[:, None] * a, axis=1)
    v = e @ F
    return v, dict(F=F, pos=pos, u=u, a=a, e=e, clamped=g < _LOG_FLOOR,
                   mu=mu, sigma=sigma, scale=scale)


def gaussian_pool_backward(cache: dict, dv: np.ndarray, need_dF: bool = False):
    """Backprop through gaussian_pool_forward for upstream dv (K, d).

    Returns (dmu, dsigma, dscale-or-None, dF-or-None); dF covers only the
    pooling path, not how mu and sigma were made from F.
    """
    F, e, a, u = cache["F"], cache["e"], cache["a"], cache["u"]
    sigma, scale = cache["sigma"], cache["scale"]
    de = dv @ F.T                                    # (K, T)
    dq = softmax_backward(e, de, axis=1)
    dscale = None if scale is None else (dq * a).sum(axis=1)
    dg = (dq if scale is None else dq * scale[:, None]) * a
    dg[cache["clamped"]] = 0.0
    du = dg * (-u)
    dmu = (du * (-1.0 / sigma[:, None])).sum(axis=1)     # (K,)
    dsigma = (du * (-u / sigma[:, None])).sum(axis=1)    # (K,)
    dF = e.T @ dv if need_dF else None
    return dmu, dsigma, dscale, dF


def attend_forward(F: np.ndarray, W_mean: np.ndarray, W_std: np.ndarray,
                   beta: float, Z: int):
    """Vectorized-over-K attention forward. Returns (trace, cache)."""
    F = np.asarray(F, dtype=np.float64)
    if F.ndim != 2:
        raise ShapeError(f"F must be (T, d), got shape {F.shape}")
    if F.shape[1] != W_mean.shape[1] or F.shape[1] != W_std.shape[1]:
        raise ShapeError(
            f"feature dim {F.shape[1]} does not match matrices "
            f"{W_mean.shape} / {W_std.shape}")
    if beta <= 0:
        raise ConfigError(f"beta must be > 0, got {beta}")
    T = F.shape[0]
    if T > Z:
        raise ConfigError(f"sequence length {T} exceeds Z={Z}")
    idx = np.arange(1, T + 1, dtype=np.float64)

    scores_m = F @ W_mean.T                          # (T, K)
    p = softmax_stable(beta * scores_m, axis=0)      # soft-argmax distribution
    mu = (idx @ p) / Z                               # (K,)

    scores_s = F @ W_std.T                           # (T, K)
    sg = sigmoid(scores_s)
    sigma_raw = sg.sum(axis=0) / Z                   # (K,)
    floor = min(_SIGMA_FLOOR, 0.5 * T / Z)
    sigma = np.maximum(sigma_raw, floor)

    v, cache = gaussian_pool_forward(F, mu, sigma, Z)
    trace = AttentionTrace(mu=mu, sigma=sigma, raw_weights=cache["a"],
                           norm_weights=cache["e"], summaries=v)
    cache.update(p=p, sg=sg, sigma_floored=sigma_raw < floor, beta=beta, Z=Z,
                 W_mean=W_mean, W_std=W_std)
    return trace, cache


def attend_backward(cache: dict, dv: np.ndarray, need_dF: bool = False):
    """Backprop through attend_forward.

    dv: (K, d) upstream gradient on the summaries.
    Returns (dW_mean, dW_std, dF-or-None).
    """
    F, p, sg, pos = cache["F"], cache["p"], cache["sg"], cache["pos"]
    beta, Z = cache["beta"], cache["Z"]
    dmu, dsigma, _, dF = gaussian_pool_backward(cache, dv, need_dF)
    dsigma[cache["sigma_floored"]] = 0.0

    # mean path: mu = (idx @ p) / Z, p = softmax(beta * F W_mean^T) over frames
    dp = dmu[None, :] * (pos[:, None])                   # idx/Z == pos
    dsm = beta * softmax_backward(p, dp, axis=0)         # (T, K)
    dW_mean = dsm.T @ F
    if need_dF:
        dF = dF + dsm @ cache["W_mean"]

    # std path: sigma = sum_t sigmoid(F W_std^T) / Z
    dss = (dsigma[None, :] / Z) * sigmoid_grad(sg)       # (T, K)
    dW_std = dss.T @ F
    if need_dF:
        dF = dF + dss @ cache["W_std"]

    return dW_mean, dW_std, dF


def fusion_weights(spec: FusionSpec, K: int) -> np.ndarray:
    if spec.mode == "average":
        return np.full(K, 1.0 / K)
    if spec.soft_logits.shape != (K,):
        raise ShapeError(f"soft_logits shape {spec.soft_logits.shape} != ({K},)")
    return softmax_stable(spec.soft_logits)


def fuse(trace: AttentionTrace, spec: FusionSpec) -> np.ndarray:
    """Combine the K summaries into one descriptor V."""
    s = fusion_weights(spec, trace.summaries.shape[0])
    return s @ trace.summaries


def fuse_backward(v: np.ndarray, spec: FusionSpec, dV: np.ndarray):
    """Returns (dv, d_soft_logits-or-None) for the fusion step."""
    K = v.shape[0]
    s = fusion_weights(spec, K)
    dv = s[:, None] * dV[None, :]
    dlogits = None
    if spec.mode == "soft_weight":
        ds = v @ dV
        dlogits = softmax_backward(s, ds)
    return dv, dlogits
