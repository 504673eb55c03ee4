"""Comparison temporal-attention mechanisms evaluated on the same inputs.

selfattn - one learning matrix, softmaxed per-frame dot products.
tsf      - shared trainable Gaussians, rescaled only by video length.
sldg     - length-defined Gaussians with a trainable scale per head.

tsf and sldg weigh frames through the same Gaussian kernel as clta
(attention.gaussian_pool_forward); their weights depend only on
(T, parameters), so their forwards take no frames: two same-length videos
always receive identical weights, regardless of contents. As for the
attention kernels, a forward returns its cache, whose e (..., K, T) the
model pools, and a backward takes (cache, de) and returns the tuple of its
parameters' gradients, summed over the stack. Plain frame
averaging, avg, needs no kernel: model._KINDS gives each frame weight 1/T.
"""

import numpy as np

from .attention import gaussian_pool_backward, gaussian_pool_forward
from .numerics import sigmoid, softmax_backward, softmax_stable, softplus, sum_outer


def tsf_init(K: int) -> dict[str, np.ndarray]:
    """Initial tsf parameters: "centers" (K,), mapped through tanh to a
    fraction of the length, and "widths" (K,), mapped through softplus."""
    # evenly spaced seeds in [-1, 1]; widths so the effective std ~ 1/(2K)
    centers = np.linspace(-1.0, 1.0, K) if K > 1 else np.zeros(1)
    return {"centers": centers, "widths": np.full(K, np.log(np.expm1(1.0 / (2 * K))))}


def self_attention_forward(F: np.ndarray, W: np.ndarray, mask: np.ndarray):
    """Per-head softmax over frame scores f_t . w_k. Returns the cache. F's
    width is W's (K, d), as Model.forward_video checks."""
    scores = np.where(mask[..., None, :], W @ np.swapaxes(F, -1, -2), -np.inf)
    e = softmax_stable(scores, axis=-1)       # (..., K, T)
    return dict(F=F, e=e, a=scores)


def self_attention_backward(cache, de):
    dscores = np.swapaxes(softmax_backward(cache["e"], de, axis=-1), -1, -2)   # (..., T, K)
    return (sum_outer(dscores, cache["F"]),)


def tsf_forward(centers: np.ndarray, widths: np.ndarray, Z: int, mask: np.ndarray):
    """Shared Gaussian filters, positions/widths rescaled by each video's T/Z."""
    frac = (mask.sum(axis=-1) / Z)[..., None]
    th = np.tanh(centers)
    mu = (th + 1.0) / 2.0 * frac           # (..., K)
    sigma = softplus(widths) * frac         # (..., K)
    cache = gaussian_pool_forward(mu, sigma, Z, mask)
    cache.update(th=th, widths=widths, frac=frac)
    return cache


def tsf_backward(cache, de):
    dmu, dsigma, _ = gaussian_pool_backward(cache, de)
    dcenters = sum_outer(cache["frac"], dmu)[0] * (1.0 - cache["th"] ** 2) / 2.0
    dwidths = sum_outer(cache["frac"], dsigma)[0] * sigmoid(cache["widths"])
    return dcenters, dwidths


def sldg_schedule(T, K: int, Z: int):
    """Length-defined means/stds (..., K) for lengths T (...): evenly spaced
    fractions, std = half-spacing."""
    T = np.asarray(T, dtype=np.float64)[..., None]
    k = np.arange(1, K + 1, dtype=np.float64)
    mu = (k - 0.5) / K * T / Z
    sigma = np.ones(K) * (T / (2.0 * K * Z))
    return mu, sigma


def sldg_forward(scales: np.ndarray, Z: int, mask: np.ndarray):
    mu, sigma = sldg_schedule(mask.sum(axis=-1), scales.shape[0], Z)
    return gaussian_pool_forward(mu, sigma, Z, mask, scales)


def sldg_backward(cache, de):
    return gaussian_pool_backward(cache, de)[2:]   # (dscales,)
