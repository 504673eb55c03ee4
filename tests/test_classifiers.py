"""Unit checks for the softmax and cosine heads."""

import numpy as np
import pytest

from clta.classifiers import (CosineHead, SoftmaxHead, cosine_logits,
                              cosine_logits_backward, cosine_scores, predict,
                              softmax_logits, softmax_logits_backward)
from clta.errors import ShapeError


def test_softmax_logits_linear():
    rng = np.random.default_rng(0)
    W = rng.normal(size=(4, 3))
    b = rng.normal(size=3)
    V = rng.normal(size=4)
    logits = softmax_logits(V, SoftmaxHead(W=W, bias=b))
    assert np.allclose(logits, W.T @ V + b, atol=1e-15)
    with pytest.raises(ShapeError):
        softmax_logits(np.zeros(5), SoftmaxHead(W=W, bias=b))


def _fd_check(loss, analytic, arrays, tol=1e-7, eps=1e-6):
    """Central differences of loss() over every entry of each array."""
    for arr, grad in zip(arrays, analytic):
        assert np.shape(grad) == arr.shape
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + eps
            lp = loss()
            arr[idx] = orig - eps
            lm = loss()
            arr[idx] = orig
            assert abs(np.asarray(grad)[idx] - (lp - lm) / (2 * eps)) < tol


def test_softmax_backward_fd():
    # rows of descriptors share one head: its gradients sum over the rows
    rng = np.random.default_rng(1)
    W = rng.normal(size=(4, 3))
    b = rng.normal(size=3)
    V = rng.normal(size=(5, 4))
    dlog = rng.normal(size=(5, 3))
    grads = softmax_logits_backward(V, SoftmaxHead(W=W, bias=b), dlog)
    _fd_check(lambda: float((softmax_logits(V, SoftmaxHead(W=W, bias=b)) * dlog).sum()),
              grads, (W, b, V))


def test_cosine_scores_range_and_scale_invariance():
    rng = np.random.default_rng(2)
    head = CosineHead(W_proto=rng.normal(size=(5, 6)), temperature=10.0)
    V = rng.normal(size=6)
    s = cosine_scores(V, head)
    assert np.all(s >= -1.0 - 1e-12) and np.all(s <= 1.0 + 1e-12)
    assert np.allclose(s, cosine_scores(3.7 * V, head), atol=1e-12)
    assert np.allclose(cosine_logits(V, head), 10.0 * s, atol=1e-12)


def test_cosine_self_similarity_is_maximal():
    rng = np.random.default_rng(3)
    protos = rng.normal(size=(4, 6))
    head = CosineHead(W_proto=protos)
    for i in range(4):
        s = cosine_scores(protos[i], head)
        assert abs(s[i] - 1.0) < 1e-12
        assert np.argmax(s) == i


def test_cosine_degenerate_inputs():
    # the ReLU projection can produce an all-zero descriptor
    head = CosineHead(W_proto=np.ones((2, 3)))
    assert np.array_equal(cosine_scores(np.zeros(3), head), np.zeros(2))
    protos = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0]])
    assert np.allclose(cosine_scores(np.ones(3), CosineHead(W_proto=protos)),
                       [0.0, 5.0 / (3.0 * np.sqrt(3.0))], rtol=0, atol=1e-15)
    V = np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 0.5]])
    for g in cosine_logits_backward(V, CosineHead(protos, np.array([7.0])), np.ones((2, 2))):
        assert np.all(np.isfinite(g))


def test_cosine_backward_fd():
    rng = np.random.default_rng(4)
    protos = rng.normal(size=(3, 4))
    V = rng.normal(size=(5, 4))
    temp = np.array([7.0])
    dlog = rng.normal(size=(5, 3))
    grads = cosine_logits_backward(V, CosineHead(protos, temp), dlog)
    _fd_check(lambda: float((cosine_logits(V, CosineHead(protos, temp)) * dlog).sum()),
              grads, (protos, temp, V))
    # a zero row scores 0 whatever the head, so it adds nothing to the head's
    # gradients; the cosine has no gradient in V there, so dV is not checked
    V[2] = 0.0
    grads = cosine_logits_backward(V, CosineHead(protos, temp), dlog)
    _fd_check(lambda: float((cosine_logits(V, CosineHead(protos, temp)) * dlog).sum()),
              grads[:2], (protos, temp))


@pytest.mark.parametrize("kind", ["softmax", "cosine"])
def test_stacked_heads_backward_fd(kind):
    # E heads with stacked parameters, each scoring its own rows
    rng = np.random.default_rng(5)
    E, n, h, c = 3, 4, 5, 2
    V = rng.normal(size=(E, n, h))
    dlog = rng.normal(size=(E, n, c))
    if kind == "softmax":
        params = (rng.normal(size=(E, h, c)), rng.normal(size=(E, 1, c)))
        make, logits, backward = SoftmaxHead, softmax_logits, softmax_logits_backward
    else:
        params = (rng.normal(size=(E, c, h)), rng.uniform(5, 10, size=(E, 1, 1)))
        make, logits, backward = CosineHead, cosine_logits, cosine_logits_backward
    grads = backward(V, make(*params), dlog)
    _fd_check(lambda: float((logits(V, make(*params)) * dlog).sum()), grads, (*params, V))
    # each head's gradients come from its own rows only
    for e in range(E):
        one = backward(V[e], make(*(p[e] for p in params)), dlog[e])
        for got, want in zip(grads, one):
            assert np.allclose(got[e], want, rtol=0, atol=1e-12)


def test_predict_argmax_and_ties():
    assert predict(np.array([0.1, 0.9, 0.3])) == 1
    assert predict(np.array([0.5, 0.5])) == 0  # tie toward the lowest index
    with pytest.raises(ShapeError):
        predict(np.array([]))
