"""Content-and-length based Gaussian temporal attention.

Per video, each of the K attention heads learns a Gaussian over the
normalized frame axis t/Z. The mean comes from soft_argmax, the one
soft-argmax of the package, over the dot products of frames with a
mean-learning row, the standard deviation from the sigmoid-summed dot
products with a std-learning row. That width is what "length-based" means:
a soft frame count, sum_t sigmoid / Z, it scales with a video's length T,
and on the synthetic data a trained model narrows it as the planted window
widens. The resulting weights e pool the frames into K video-level
summaries e @ F, which a fusion step combines into one descriptor. The
tsf and sldg baselines weigh frames through the same Gaussian kernel and
differ only in where mu and sigma come from.

A kernel only weighs frames; Model.forward_video pools them. It returns its
cache, the one record of a pass: mu and sigma (..., K), raw weights a and
normalized weights e (..., K, T). Its backward takes (cache, de) and returns
the gradients of its parameters; the frames get none. A kernel writes only
arrays it allocated, and leaves its inputs and the cache it is given untouched.

Frame indices are 1-based inside all formulas; Z is the dataset-wide max
sequence length, frozen from the training split. Every kernel takes only what
Model.forward_video passes, a float64 stack (..., T, d) padded to a common T
and its frame mask (..., T): padded frames get no weight, and each video's
length sets its sigma floor.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError
from .numerics import (_sum_frames, sigmoid, sigmoid_grad, softmax_backward, softmax_stable,
                       sum_outer)

# Below this log-weight the Gaussian is clamped to keep weights strictly
# positive; the gradient is treated as zero in the clamped region.
_LOG_FLOOR = -700.0

# Learned sigmas are floored here (in t/Z units) so a std detector that
# drives every sigmoid to zero cannot collapse the Gaussian to zero width;
# the gradient is treated as zero at the floor.
_SIGMA_FLOOR = 1e-3


@dataclass
class FrameSequence:
    """One video: a (T, d) feature matrix plus optional label. A float32 matrix,
    as read from a feature file, stays float32; any other input becomes float64."""

    features: np.ndarray
    label: str | None = None
    video_id: str = ""

    def __post_init__(self):
        keep = getattr(self.features, "dtype", None) == np.float32
        self.features = np.asarray(self.features, dtype=np.float32 if keep else np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1 or self.features.shape[1] < 1:
            raise ShapeError(f"features must be (T>=1, d>=1), got {self.features.shape}")
        if not np.isfinite(self.features).all():
            raise NumericError(f"non-finite features in video {self.video_id!r}")

    @property
    def T(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def soft_argmax(scores: np.ndarray, beta: float, mask: np.ndarray):
    """Differentiable argmax over frames: the expected 1-based frame index under
    p = softmax(beta * scores) over each video's own frames.

    scores are nonempty float64 (..., T, K), K heads per video; mask is the frame
    mask (..., T); beta is in ModelConfig's range, which ModelConfig checks.
    Returns (index (..., K) in [1, T], p shaped like scores). Raises NumericError
    where beta * scores overflows on a frame of the mask: clipping would turn an
    argmax into a tie."""
    with np.errstate(over="ignore"):
        z = beta * scores
    # padded frames are almost always finite too, which spares the masked gather
    if not np.isfinite(z).all() and not np.isfinite(z[mask]).all():
        raise NumericError(f"beta={beta} times the frame scores is not finite; lower beta")
    np.copyto(z, -np.inf, where=~mask[..., None])
    p = softmax_stable(z, axis=-2, out=z)
    return np.arange(1, scores.shape[-2] + 1, dtype=np.float64) @ p, p


def gaussian_pool_forward(mu: np.ndarray, sigma: np.ndarray, Z: int, mask: np.ndarray,
                          scale: np.ndarray | None = None):
    """Weights of K Gaussians over t/Z on the frames of mask (..., T).

    Head k weighs frame t by a = exp(max(-((t/Z - mu_k)/sigma_k)^2 / 2,
    _LOG_FLOOR)) and softmaxes scale_k * a (or a) over frames into e; mu, sigma
    are (..., K). Returns the cache, with a and e (..., K, T).
    """
    pos = np.arange(1, mask.shape[-1] + 1, dtype=np.float64) / Z      # (T,)
    u = np.subtract(pos, mu[..., None])                                # (..., K, T)
    u /= sigma[..., None]
    g = -0.5 * u
    g *= u
    clamped = g < _LOG_FLOOR
    a = np.exp(np.maximum(g, _LOG_FLOOR, out=g), out=g)
    e = a.copy() if scale is None else scale[:, None] * a
    np.copyto(e, -np.inf, where=~mask[..., None, :])
    softmax_stable(e, axis=-1, out=e)
    return dict(pos=pos, u=u, a=a, e=e, clamped=clamped, mu=mu, sigma=sigma, scale=scale)


def gaussian_pool_backward(cache: dict, de: np.ndarray):
    """Backprop through gaussian_pool_forward for upstream de (..., K, T).

    Returns (dmu, dsigma, dscale-or-None summed over the stack).
    """
    e, a, u = cache["e"], cache["a"], cache["u"]
    sigma, scale = cache["sigma"], cache["scale"]
    dq = softmax_backward(e, de, axis=-1)
    dscale = None if scale is None else (dq * a).sum(axis=-1).reshape(-1, len(scale)).sum(axis=0)
    # dq becomes dg, then du, then du * -1/sigma; nu is -u, then -u/sigma times du
    if scale is not None:
        dq *= scale[:, None]
    dq *= a
    np.copyto(dq, 0.0, where=cache["clamped"])
    nu = np.negative(u)
    dq *= nu
    nu /= sigma[..., None]
    nu *= dq
    dsigma = nu.sum(axis=-1)                                   # (..., K)
    dq *= -1.0 / sigma[..., None]
    return dq.sum(axis=-1), dsigma, dscale


def attend_forward(F: np.ndarray, W_mean: np.ndarray, W_std: np.ndarray,
                   beta: float, Z: int, mask: np.ndarray):
    """Attention forward, vectorized over K and the stack. Returns the cache; its
    mu, sigma, a and e are the one record of the pass.

    F is a float64 stack (..., T, d) with frame mask (..., T), T <= Z and d the
    width of W_mean (K, d) and W_std (K, d), and beta is in ModelConfig's range:
    ModelConfig and Model.forward_video check these, and the kernel trusts them."""
    index, p = soft_argmax(F @ W_mean.T, beta, mask)          # (..., K), (..., T, K)
    mu = index / Z

    sg = sigmoid(F @ W_std.T)                                 # (..., T, K)
    np.copyto(sg, 0.0, where=~mask[..., None])
    sigma_raw = _sum_frames(sg) / Z                           # (..., K)
    floor = np.minimum(_SIGMA_FLOOR, 0.5 * mask.sum(axis=-1) / Z)[..., None]
    sigma = np.maximum(sigma_raw, floor)

    cache = gaussian_pool_forward(mu, sigma, Z, mask)
    cache.update(F=F, p=p, sg=sg, sigma_floored=sigma_raw < floor, beta=beta, Z=Z)
    return cache


def attend_backward(cache: dict, de: np.ndarray):
    """Backprop through attend_forward for the upstream gradient de (..., K, T)
    on the weights e. Returns (dW_mean, dW_std), summed over the stack.
    """
    F, p, sg, pos = cache["F"], cache["p"], cache["sg"], cache["pos"]
    beta, Z = cache["beta"], cache["Z"]
    dmu, dsigma, _ = gaussian_pool_backward(cache, de)
    dsigma[cache["sigma_floored"]] = 0.0

    # mean path: mu = (idx @ p) / Z, p = softmax(beta * F W_mean^T) over frames
    dsm = softmax_backward(p, dmu[..., None, :] * pos[:, None], axis=-2)   # idx/Z == pos
    dsm *= beta                                          # (..., T, K)

    # std path: sigma = sum_t sigmoid(F W_std^T) / Z; padded frames have sg = 0
    dss = sigmoid_grad(sg)
    dss *= dsigma[..., None, :] / Z                      # (..., T, K)
    return sum_outer(dsm, F), sum_outer(dss, F)


def fusion_weights(soft_logits: np.ndarray | None, K: int) -> np.ndarray:
    """Weights (K,) of the K summaries: 1/K each without soft_logits, else their
    softmax. soft_logits is (K,), as Model makes it and Model.from_config checks."""
    if soft_logits is None:
        return np.full(K, 1.0 / K)
    return softmax_stable(soft_logits)


def fuse_backward(v: np.ndarray, soft_logits: np.ndarray | None, dV: np.ndarray):
    """Returns (dv, d_soft_logits-or-None summed over the stack) for fusion."""
    K = v.shape[-2]
    s = fusion_weights(soft_logits, K)
    dv = s[:, None] * dV[..., None, :]
    dlogits = None
    if soft_logits is not None:
        ds = (v @ dV[..., None])[..., 0]
        dlogits = softmax_backward(s, ds).reshape(-1, K).sum(axis=0)
    return dv, dlogits
