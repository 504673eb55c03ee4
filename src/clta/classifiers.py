"""Softmax (linear) and cosine-similarity classification heads over float64
rows of descriptors (..., n, h): the model's (B, h), and the episode fit's
(E, n, h) for E stacked heads. Each backward takes its forward's values.

The head forwards and backwards take optional out= arrays, which receive the
logits or the parameter gradients instead of new arrays, with the same bits."""

from dataclasses import dataclass

import numpy as np

INIT_TEMPERATURE = 10.0   # a cosine head's starting temperature, in the model and episode fits


@dataclass
class SoftmaxHead:
    W: np.ndarray      # (..., h, c)
    bias: np.ndarray   # (c,), or (..., 1, c) for stacked heads


@dataclass
class CosineHead:
    W_proto: np.ndarray  # (..., c, h), row i is the prototype of class i
    temperature: np.ndarray   # (1,), or (..., 1, 1) for stacked heads


def softmax_logits(V: np.ndarray, head: SoftmaxHead, out=None) -> np.ndarray:
    """V's rows are as wide as W's (..., h, c), and bias has W's c: Model builds
    the head from its config, Model.from_config checks a loaded one, and the
    episode fit makes one per descriptor width."""
    logits = np.matmul(V, head.W, out=out)
    logits += head.bias
    return logits


def softmax_logits_backward(V, head: SoftmaxHead, dlogits, need_dV: bool = True, out=None):
    """Returns (dW, dbias, dV-or-None) for rows V (..., n, h), summed over the rows;
    out, when given, is (dW, dbias) to write them to."""
    dW, dbias = (None, None) if out is None else out
    dW = np.matmul(np.swapaxes(V, -1, -2), dlogits, out=dW)
    # numpy adds a row axis that is not last in sequence, and a leading one of a
    # contiguous copy fastest, in the same sequence: the same bits in less time
    nd = dlogits.ndim
    rows = np.ascontiguousarray(dlogits.transpose(nd - 2, *range(nd - 2), nd - 1))
    dbias = rows.sum(axis=0, out=None if dbias is None else dbias.reshape(rows.shape[1:]))
    dV = dlogits @ np.swapaxes(head.W, -1, -2) if need_dV else None
    return dW, dbias.reshape(head.bias.shape), dV


def row_norms(X: np.ndarray) -> np.ndarray:
    """|X| over the last axis, keeping it; a zero norm counts as 1."""
    n = np.sqrt(np.einsum("...i,...i->...", X, X))[..., None]
    return np.where(n == 0.0, 1.0, n)


def _cosine(V: np.ndarray, head: CosineHead, nv=None):
    """(scores, |V|, unit prototypes w, |W_proto|) for descriptors V; norms keep dims.
    nv is row_norms(V), computed when None. A zero norm counts as 1: a zero
    descriptor or prototype scores 0, with finite gradients."""
    nv = row_norms(V) if nv is None else nv
    nw = row_norms(head.W_proto)
    w = head.W_proto / nw
    return (V @ np.swapaxes(w, -1, -2)) / nv, nv, w, nw


def cosine_logits_backward(V, head: CosineHead, dlogits, cos, need_dV: bool = True,
                           out=None):
    """Returns (dW_proto, dtemperature, dV-or-None) for rows V (..., n, h);
    cos is the forward's (scores, |V|, w, |W_proto|), and out, when given, is
    (dW_proto, dtemperature) to write the first two to."""
    s, nv, w, nw = cos   # s: (..., n, c)
    dW, dtemp = (None, None) if out is None else out
    ds = head.temperature * dlogits
    dss = ds * s
    dtemp = (dlogits * s).sum(axis=(-2, -1),
                              out=None if dtemp is None else dtemp.reshape(s.shape[:-2]))
    dtemp = dtemp.reshape(head.temperature.shape)
    # d s_nc / d w_c = (V_n / |V_n| - s_nc w_c) / |w_c|, summed over the rows n
    dW = np.divide(np.swapaxes(ds / nv, -1, -2) @ V - dss.sum(axis=-2)[..., None] * w, nw,
                   out=dW)
    # d s_nc / d V_n = (w_c - s_nc V_n / |V_n|) / |V_n|
    dV = (ds @ w - dss.sum(axis=-1, keepdims=True) * V / nv) / nv if need_dV else None
    return dW, dtemp, dV


def head_forward(V: np.ndarray, head, out=None, nv=None):
    """(logits, cos) of either head: cos is _cosine's values, or None for softmax.
    nv is a cosine head's row_norms(V), computed when None."""
    if isinstance(head, SoftmaxHead):
        return softmax_logits(V, head, out), None
    cos = _cosine(V, head, nv)
    return np.multiply(head.temperature, cos[0], out=out), cos


def head_logits_backward(V, head, dlogits, cos, need_dV: bool = True, out=None):
    """(gradient of each head parameter in field order..., dV-or-None) of either
    head; cos is head_forward's, and out, when given, holds one array per
    parameter to write its gradient to."""
    if isinstance(head, SoftmaxHead):
        return softmax_logits_backward(V, head, dlogits, need_dV, out)
    return cosine_logits_backward(V, head, dlogits, cos, need_dV, out)
