"""Comparison temporal-attention mechanisms evaluated on the same inputs.

avg      - plain frame averaging, no attention parameters.
selfattn - one learning matrix, softmaxed per-frame dot products.
tsf      - shared trainable Gaussians, rescaled only by video length.
sldg     - length-defined Gaussians with a trainable scale per head.

tsf and sldg pool through the same Gaussian kernel as clta
(attention.gaussian_pool_forward); their weights depend only on
(T, parameters): two same-length videos always receive identical weights,
regardless of contents. Each takes frames and a mask as the attention
kernels do.
"""

import numpy as np

from .errors import ShapeError
from .attention import frame_mask, gaussian_pool_backward, gaussian_pool_forward
from .numerics import sigmoid, softmax_backward, softmax_stable, softplus, sum_outer


def tsf_init(K: int) -> dict[str, np.ndarray]:
    """Initial tsf parameters: "centers" (K,), mapped through tanh to a
    fraction of the length, and "widths" (K,), mapped through softplus."""
    # evenly spaced seeds in [-1, 1]; widths so the effective std ~ 1/(2K)
    centers = np.linspace(-1.0, 1.0, K) if K > 1 else np.zeros(1)
    return {"centers": centers, "widths": np.full(K, np.log(np.expm1(1.0 / (2 * K))))}


def average_pool(F: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Mean over each video's own frames of F (..., T, d)."""
    F = np.asarray(F, dtype=np.float64)
    if F.ndim < 2 or F.shape[-2] < 1:
        raise ShapeError(f"expected (..., T>=1, d) frames, got {F.shape}")
    mask = frame_mask(F, mask)[..., None]
    return np.where(mask, F, 0.0).sum(axis=-2) / mask.sum(axis=-2)


def self_attention_forward(F: np.ndarray, W: np.ndarray, mask: np.ndarray | None = None):
    """Per-head softmax over frame scores f_t . w_k. Returns (v, cache)."""
    F = np.asarray(F, dtype=np.float64)
    if F.shape[-1] != W.shape[1]:
        raise ShapeError(f"feature dim {F.shape[-1]} != matrix cols {W.shape[1]}")
    scores = np.where(frame_mask(F, mask)[..., None, :], W @ np.swapaxes(F, -1, -2), -np.inf)
    e = softmax_stable(scores, axis=-1)       # (..., K, T)
    v = e @ F                                 # (..., K, d)
    return v, dict(F=F, W=W, e=e, a=scores)


def self_attention_backward(cache, dv, need_dF=False):
    F, W, e = cache["F"], cache["W"], cache["e"]
    de = dv @ np.swapaxes(F, -1, -2)
    dscores = softmax_backward(e, de, axis=-1)
    dW = sum_outer(np.swapaxes(dscores, -1, -2), F)
    dF = np.swapaxes(e, -1, -2) @ dv + np.swapaxes(dscores, -1, -2) @ W if need_dF else None
    return dW, dF


def tsf_forward(F: np.ndarray, centers: np.ndarray, widths: np.ndarray, Z: int,
                mask: np.ndarray | None = None):
    """Shared Gaussian filters, positions/widths rescaled by each video's T/Z."""
    F = np.asarray(F, dtype=np.float64)
    frac = (frame_mask(F, mask).sum(axis=-1) / Z)[..., None]
    th = np.tanh(centers)
    mu = (th + 1.0) / 2.0 * frac           # (..., K)
    sigma = softplus(widths) * frac         # (..., K)
    v, cache = gaussian_pool_forward(F, mu, sigma, Z, mask=mask)
    cache.update(th=th, widths=widths, frac=frac)
    return v, cache


def tsf_backward(cache, dv, need_dF=False):
    dmu, dsigma, _, dF = gaussian_pool_backward(cache, dv, need_dF)
    dcenters = sum_outer(cache["frac"], dmu)[0] * (1.0 - cache["th"] ** 2) / 2.0
    dwidths = sum_outer(cache["frac"], dsigma)[0] * sigmoid(cache["widths"])
    return dcenters, dwidths, dF


def sldg_schedule(T, K: int, Z: int):
    """Length-defined means/stds (..., K) for lengths T (...): evenly spaced
    fractions, std = half-spacing."""
    T = np.asarray(T, dtype=np.float64)[..., None]
    k = np.arange(1, K + 1, dtype=np.float64)
    mu = (k - 0.5) / K * T / Z
    sigma = np.ones(K) * (T / (2.0 * K * Z))
    return mu, sigma


def sldg_forward(F: np.ndarray, scales: np.ndarray, Z: int, mask: np.ndarray | None = None):
    F = np.asarray(F, dtype=np.float64)
    mu, sigma = sldg_schedule(frame_mask(F, mask).sum(axis=-1), scales.shape[0], Z)
    return gaussian_pool_forward(F, mu, sigma, Z, scale=scales, mask=mask)


def sldg_backward(cache, dv, need_dF=False):
    _, _, dscales, dF = gaussian_pool_backward(cache, dv, need_dF)
    return dscales, dF
