"""Softmax (linear) and cosine-similarity classification heads, for one
descriptor (h,) or rows (..., n, h); the backward passes take rows."""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass
class SoftmaxHead:
    W: np.ndarray      # (..., h, c)
    bias: np.ndarray   # (c,), or (..., 1, c) for stacked heads


@dataclass
class CosineHead:
    W_proto: np.ndarray  # (..., c, h), row i is the prototype of class i
    temperature: float | np.ndarray = 10.0   # scalar, (1,) or (..., 1, 1)


def softmax_logits(V: np.ndarray, head: SoftmaxHead) -> np.ndarray:
    V = np.asarray(V, dtype=np.float64)
    if head.W.shape[-2] != V.shape[-1] or head.W.shape[-1] != head.bias.shape[-1]:
        raise ShapeError(f"head shapes {head.W.shape}/{head.bias.shape} vs input {V.shape}")
    return V @ head.W + head.bias


def softmax_logits_backward(V, head: SoftmaxHead, dlogits, need_dV: bool = True):
    """Returns (dW, dbias, dV-or-None) for rows V (..., n, h), summed over the rows."""
    dW = np.swapaxes(V, -1, -2) @ dlogits
    dbias = dlogits.sum(axis=-2).reshape(head.bias.shape)
    dV = dlogits @ np.swapaxes(head.W, -1, -2) if need_dV else None
    return dW, dbias, dV


def _cosine(V: np.ndarray, head: CosineHead):
    """(scores, |V|, unit prototypes w, |W_proto|) for descriptors V; norms keep dims.
    A zero norm counts as 1: a zero descriptor or prototype scores 0, with finite gradients."""
    nv, nw = (np.sqrt(np.einsum("...i,...i->...", X, X))[..., None] for X in (V, head.W_proto))
    nv, nw = (np.where(n == 0.0, 1.0, n) for n in (nv, nw))
    w = head.W_proto / nw
    return (V @ np.swapaxes(w, -1, -2)) / nv, nv, w, nw


def cosine_scores(V: np.ndarray, head: CosineHead) -> np.ndarray:
    """Cosine similarities in [-1, 1]; scale by temperature for logits."""
    return _cosine(np.asarray(V, dtype=np.float64), head)[0]


def cosine_logits(V: np.ndarray, head: CosineHead) -> np.ndarray:
    return head.temperature * cosine_scores(V, head)


def cosine_logits_backward(V, head: CosineHead, dlogits, need_dV: bool = True):
    """Returns (dW_proto, dtemperature, dV-or-None) for rows V (..., n, h)."""
    V = np.asarray(V, dtype=np.float64)
    s, nv, w, nw = _cosine(V, head)                     # s: (..., n, c)
    ds = head.temperature * dlogits
    dss = ds * s
    dtemp = (dlogits * s).sum(axis=(-2, -1)).reshape(np.shape(head.temperature))
    # d s_nc / d w_c = (V_n / |V_n| - s_nc w_c) / |w_c|, summed over the rows n
    dW = (np.swapaxes(ds / nv, -1, -2) @ V - dss.sum(axis=-2)[..., None] * w) / nw
    # d s_nc / d V_n = (w_c - s_nc V_n / |V_n|) / |V_n|
    dV = (ds @ w - dss.sum(axis=-1, keepdims=True) * V / nv) / nv if need_dV else None
    return dW, dtemp, dV


def head_logits(V: np.ndarray, head) -> np.ndarray:
    """Logits of a softmax or a cosine head."""
    return (softmax_logits if isinstance(head, SoftmaxHead) else cosine_logits)(V, head)


def head_logits_backward(V, head, dlogits, need_dV: bool = True):
    """(gradient of each head parameter in field order..., dV-or-None) of either head."""
    backward = softmax_logits_backward if isinstance(head, SoftmaxHead) else cosine_logits_backward
    return backward(V, head, dlogits, need_dV)


def predict(logits: np.ndarray) -> int:
    """Argmax class; ties broken toward the lowest index."""
    logits = np.asarray(logits)
    if logits.size == 0:
        raise ShapeError("predict on empty logits")
    return int(np.argmax(logits))
