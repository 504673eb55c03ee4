"""Stable scalar/vector primitives and a finite-difference gradient checker.

All math runs in float64. Every primitive here has a matching analytic
gradient helper so the rest of the model can chain them by hand.
"""

import numpy as np

from .errors import NumericError, ShapeError


def softmax_stable(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax with max-subtraction; safe for entries up to ~1e308."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ShapeError("softmax of empty input")
    z = x - np.max(x, axis=axis, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=axis, keepdims=True)


def softmax_backward(p: np.ndarray, dp: np.ndarray, axis: int = -1) -> np.ndarray:
    """Grad of softmax output p w.r.t. its input, applied to upstream dp."""
    inner = (p * dp).sum(axis=axis, keepdims=True)
    return p * (dp - inner)


def log_softmax(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    z = x - np.max(x)
    return z - np.log(np.exp(z).sum())


def sigmoid(x):
    """Logistic function, branch-stable for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def sigmoid_grad(s):
    """Derivative of sigmoid expressed through its output s."""
    return s * (1.0 - s)


def cross_entropy(logits: np.ndarray, target: int) -> float:
    """Negative log softmax probability of the target class."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1 or logits.size == 0:
        raise ShapeError("cross_entropy expects a nonempty vector of logits")
    if not 0 <= target < logits.size:
        raise IndexError(f"target {target} out of range for {logits.size} classes")
    return float(-log_softmax(logits)[target])


def cross_entropy_grad(logits: np.ndarray, target: int) -> np.ndarray:
    """d loss / d logits = softmax(logits) - onehot(target)."""
    g = softmax_stable(np.asarray(logits, dtype=np.float64))
    g[target] -= 1.0
    return g


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
        raise ValueError(f"eps {eps} outside [1e-6, 1e-4]")
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
