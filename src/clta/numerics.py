"""Stable scalar/vector primitives and a finite-difference gradient checker.

All math runs in float64. softmax and sigmoid have gradient helpers the model
chains by hand; callers apply relu's and softplus's gradients (a positive mask,
sigmoid) themselves, and cross_entropy returns its loss and gradient at once.
"""

import numpy as np

from .errors import ConfigError, NumericError, ShapeError


def softmax_stable(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax with max-subtraction; safe for entries up to ~1e308.

    numpy reduces a short axis slowly, so the (exact) max runs over the leading
    axis of a contiguous copy with the softmax axis moved first, and so does
    the rest unless that axis is last and at least 8 long: numpy sums a short
    last axis, or any other, in sequence as it does a leading one (same bits),
    but a last axis of 8 or more pairwise.

    out, when given, receives the result and may be x itself."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ShapeError("softmax of empty input")
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"axis {axis} out of range for a {x.ndim}-d input")
    axis %= x.ndim
    first = (axis, *range(axis), *range(axis + 1, x.ndim))   # np.moveaxis(x, axis, 0)
    ez = np.ascontiguousarray(x.transpose(first))   # may be x itself
    top = ez.max(axis=0)
    if axis == x.ndim - 1 and x.shape[-1] >= 8:
        ez = np.exp(x - top[..., None])
        return np.divide(ez, ez.sum(axis=-1, keepdims=True), out=out)
    ez = ez - top           # a new array, so the rest can work in place
    np.exp(ez, out=ez)
    ez /= ez.sum(axis=0)
    back = ez.transpose(*range(1, axis + 1), 0, *range(axis + 1, x.ndim))
    if out is None:
        return np.ascontiguousarray(back)
    np.copyto(out, back)
    return out


def softmax_backward(p: np.ndarray, dp: np.ndarray, axis: int = -1) -> np.ndarray:
    """Grad of softmax output p w.r.t. its input, applied to upstream dp."""
    inner = (p * dp).sum(axis=axis, keepdims=True)
    return p * (dp - inner)


def sigmoid(x):
    """Logistic function, stable for large |x|: 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) below, in one pass with e = e^-|x|, which never overflows."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))   # -|x|, but a nan keeps its sign bit
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid_grad(s):
    """Derivative of sigmoid expressed through its output s."""
    return s * (1.0 - s)


def cross_entropy(logits: np.ndarray, target):
    """(loss, dlogits) per row of logits (..., c) with targets (...), from one
    max, exp and sum. loss is the negative log softmax probability of the
    target, log(sum exp z) - z[target] with z = logits - max; dlogits =
    softmax(logits) - onehot(target), with softmax_stable's bits."""
    logits, t = np.asarray(logits, dtype=np.float64), np.asarray(target)
    if logits.ndim < 1 or logits.shape[-1] == 0:
        raise ShapeError("cross_entropy expects nonempty rows of logits")
    if np.any((t < 0) | (t >= logits.shape[-1])):
        raise IndexError(f"target {target} out of range for {logits.shape[-1]} classes")
    z = logits - logits.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    total = ez.sum(axis=-1, keepdims=True)
    loss = -(np.take_along_axis(z, t[..., None], axis=-1) - np.log(total))[..., 0]
    ez /= total
    ez -= np.eye(logits.shape[-1])[t]
    return loss, ez


def sum_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over rows r of outer(a[r], b[r]) for stacks a (..., p), b (..., q)."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softplus(x):
    x = np.asarray(x, dtype=np.float64)
    return np.logaddexp(0.0, x)


def finite_diff_check(loss_fn, params: dict[str, np.ndarray], eps: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    loss_fn(params) must return (loss, grads) with grads keyed like params.
    Returns the max over all entries of
        |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    if not 1e-6 <= eps <= 1e-4:
        raise ConfigError(f"eps {eps} outside [1e-6, 1e-4]")
    loss0, grads = loss_fn(params)
    if not np.isfinite(loss0):
        raise NumericError("loss is non-finite at the base point")
    worst = 0.0
    for name, p in params.items():
        if name not in grads:
            raise KeyError(f"no analytic gradient for parameter {name!r}")
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != np.shape(p):
            raise ShapeError(f"gradient shape {g.shape} != param shape {np.shape(p)} for {name!r}")
        flat = np.asarray(p, dtype=np.float64).reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp, _ = loss_fn(params)
            flat[i] = orig - eps
            lm, _ = loss_fn(params)
            flat[i] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise NumericError(f"non-finite loss while perturbing {name!r}[{i}]")
            numeric = (lp - lm) / (2.0 * eps)
            analytic = gflat[i]
            err = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
            worst = max(worst, err)
    return worst
