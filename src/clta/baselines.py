"""Comparison temporal-attention mechanisms evaluated on the same inputs.

avg      - plain frame averaging, no attention parameters.
selfattn - one learning matrix, softmaxed per-frame dot products.
tsf      - shared trainable Gaussians, rescaled only by video length.
sldg     - length-defined Gaussians with a trainable scale per head.

tsf and sldg pool through the same Gaussian kernel as clta
(attention.gaussian_pool_forward); their weights depend only on
(T, parameters): two same-length videos always receive identical weights,
regardless of contents.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .attention import gaussian_pool_backward, gaussian_pool_forward
from .numerics import sigmoid, softmax_backward, softmax_stable, softplus


@dataclass
class TsfParams:
    centers: np.ndarray  # (K,), mapped through tanh to a fraction of length
    widths: np.ndarray   # (K,), mapped through softplus


def tsf_init(K: int) -> TsfParams:
    # evenly spaced seeds in [-1, 1]; widths so the effective std ~ 1/(2K)
    centers = np.linspace(-1.0, 1.0, K) if K > 1 else np.zeros(1)
    w0 = np.log(np.expm1(1.0 / (2 * K)))
    return TsfParams(centers=centers, widths=np.full(K, w0))


def average_pool(F: np.ndarray) -> np.ndarray:
    F = np.asarray(F, dtype=np.float64)
    if F.ndim != 2 or F.shape[0] < 1:
        raise ShapeError(f"expected (T>=1, d) matrix, got {F.shape}")
    return F.mean(axis=0)


def self_attention_forward(F: np.ndarray, W: np.ndarray):
    """Per-head softmax over frame scores f_t . w_k. Returns (v, cache)."""
    F = np.asarray(F, dtype=np.float64)
    if F.shape[1] != W.shape[1]:
        raise ShapeError(f"feature dim {F.shape[1]} != matrix cols {W.shape[1]}")
    scores = W @ F.T              # (K, T)
    e = softmax_stable(scores, axis=1)
    v = e @ F                     # (K, d)
    return v, dict(F=F, W=W, e=e, a=scores)


def self_attention_backward(cache, dv, need_dF=False):
    F, W, e = cache["F"], cache["W"], cache["e"]
    de = dv @ F.T
    dscores = softmax_backward(e, de, axis=1)
    dW = dscores @ F
    dF = e.T @ dv + dscores.T @ W if need_dF else None
    return dW, dF


def tsf_forward(F: np.ndarray, centers: np.ndarray, widths: np.ndarray, Z: int):
    """Shared Gaussian filters, positions/widths rescaled by T/Z."""
    F = np.asarray(F, dtype=np.float64)
    frac = F.shape[0] / Z
    th = np.tanh(centers)
    mu = (th + 1.0) / 2.0 * frac           # (K,)
    sigma = softplus(widths) * frac         # (K,)
    v, cache = gaussian_pool_forward(F, mu, sigma, Z)
    cache.update(th=th, widths=widths, frac=frac)
    return v, cache


def tsf_backward(cache, dv, need_dF=False):
    dmu, dsigma, _, dF = gaussian_pool_backward(cache, dv, need_dF)
    dcenters = dmu * (1.0 - cache["th"] ** 2) / 2.0 * cache["frac"]
    dwidths = dsigma * sigmoid(cache["widths"]) * cache["frac"]
    return dcenters, dwidths, dF


def sldg_schedule(T: int, K: int, Z: int):
    """Length-defined means/stds: evenly spaced fractions, std = half-spacing."""
    k = np.arange(1, K + 1, dtype=np.float64)
    mu = (k - 0.5) / K * T / Z
    sigma = np.full(K, T / (2.0 * K * Z))
    return mu, sigma


def sldg_forward(F: np.ndarray, scales: np.ndarray, Z: int):
    F = np.asarray(F, dtype=np.float64)
    mu, sigma = sldg_schedule(F.shape[0], scales.shape[0], Z)
    return gaussian_pool_forward(F, mu, sigma, Z, scale=scales)


def sldg_backward(cache, dv, need_dF=False):
    _, _, dscales, dF = gaussian_pool_backward(cache, dv, need_dF)
    return dscales, dF
