"""Unit checks for the softmax and cosine heads."""

import numpy as np
import pytest

from clta.classifiers import (CosineHead, SoftmaxHead, cosine_logits_backward, head_forward,
                              head_logits_backward, row_norms, softmax_logits,
                              softmax_logits_backward)


def test_softmax_logits_linear():
    rng = np.random.default_rng(0)
    W = rng.normal(size=(4, 3))
    b = rng.normal(size=3)
    V = rng.normal(size=(1, 4))
    logits = softmax_logits(V, SoftmaxHead(W=W, bias=b))
    assert np.allclose(logits, V @ W + b, atol=1e-15)


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


def _logits(V, head):
    return head_forward(V, head)[0]


def _cosine_scores(V, head):
    """The similarities in [-1, 1] that a cosine head scales by its temperature."""
    return head_forward(V, head)[1][0]


def test_cosine_scores_range_and_scale_invariance():
    rng = np.random.default_rng(2)
    head = CosineHead(W_proto=rng.normal(size=(5, 6)), temperature=np.array([10.0]))
    V = rng.normal(size=(1, 6))
    s = _cosine_scores(V, head)
    assert np.all(s >= -1.0 - 1e-12) and np.all(s <= 1.0 + 1e-12)
    assert np.allclose(s, _cosine_scores(3.7 * V, head), atol=1e-12)
    assert np.array_equal(_logits(V, head), 10.0 * s)


def test_cosine_self_similarity_is_maximal():
    rng = np.random.default_rng(3)
    protos = rng.normal(size=(4, 6))
    head = CosineHead(W_proto=protos, temperature=np.array([10.0]))
    for i in range(4):
        s = _cosine_scores(protos[i, None], head)[0]
        assert abs(s[i] - 1.0) < 1e-12
        assert np.argmax(s) == i


def test_cosine_degenerate_inputs():
    # the ReLU projection can produce an all-zero descriptor
    head = CosineHead(W_proto=np.ones((2, 3)), temperature=np.array([10.0]))
    assert np.array_equal(_cosine_scores(np.zeros((1, 3)), head), np.zeros((1, 2)))
    protos = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0]])
    head = CosineHead(W_proto=protos, temperature=np.array([7.0]))
    assert np.allclose(_cosine_scores(np.ones((1, 3)), head),
                       [[0.0, 5.0 / (3.0 * np.sqrt(3.0))]], rtol=0, atol=1e-15)
    V = np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 0.5]])
    for g in cosine_logits_backward(V, head, np.ones((2, 2)), head_forward(V, head)[1]):
        assert np.all(np.isfinite(g))


def test_cosine_backward_fd():
    rng = np.random.default_rng(4)
    protos = rng.normal(size=(3, 4))
    V = rng.normal(size=(5, 4))
    temp = np.array([7.0])
    dlog = rng.normal(size=(5, 3))
    grads = cosine_logits_backward(V, CosineHead(protos, temp), dlog,
                                   head_forward(V, CosineHead(protos, temp))[1])
    _fd_check(lambda: float((_logits(V, CosineHead(protos, temp)) * dlog).sum()),
              grads, (protos, temp, V))
    # a zero row scores 0 whatever the head, so it adds nothing to the head's
    # gradients; the cosine has no gradient in V there, so dV is not checked
    V[2] = 0.0
    grads = cosine_logits_backward(V, CosineHead(protos, temp), dlog,
                                   head_forward(V, CosineHead(protos, temp))[1])
    _fd_check(lambda: float((_logits(V, CosineHead(protos, temp)) * dlog).sum()),
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
        make = SoftmaxHead
    else:
        params = (rng.normal(size=(E, c, h)), rng.uniform(5, 10, size=(E, 1, 1)))
        make = CosineHead

    def backward(V, head, dlog):
        return head_logits_backward(V, head, dlog, head_forward(V, head)[1])

    grads = backward(V, make(*params), dlog)
    _fd_check(lambda: float((_logits(V, make(*params)) * dlog).sum()), grads, (*params, V))
    # each head's gradients come from its own rows only
    for e in range(E):
        one = backward(V[e], make(*(p[e] for p in params)), dlog[e])
        for got, want in zip(grads, one):
            assert np.allclose(got[e], want, rtol=0, atol=1e-12)


def test_softmax_bias_gradient_is_the_plain_row_sum_bit_for_bit():
    # one head over (n, c) and stacked heads over (E, n, c), n on both sides of 8
    rng = np.random.default_rng(8)
    for lead in ((), (40,)):
        for n in range(1, 41):
            V, dlog = rng.normal(size=lead + (n, 6)), rng.normal(0, 3, size=lead + (n, 5))
            head = SoftmaxHead(W=np.zeros(lead + (6, 5)), bias=np.zeros(lead + (1,) * bool(lead) + (5,)))
            dbias = softmax_logits_backward(V, head, dlog, need_dV=False)[1]
            assert np.array_equal(dbias.view(np.uint64),
                                  dlog.sum(axis=-2).reshape(head.bias.shape).view(np.uint64))


@pytest.mark.parametrize("kind", ["softmax", "cosine"])
def test_heads_write_into_given_arrays_with_the_same_bits(kind):
    # stacked heads as the episode fit steps them: out= arrays for the logits
    # and each gradient, and a cosine head's |V| computed beforehand
    rng = np.random.default_rng(12)
    E, n, h, c = 4, 6, 5, 3
    V = rng.normal(size=(E, n, h))
    V[:, 0] = 0.0
    if kind == "softmax":
        head = SoftmaxHead(rng.normal(size=(E, h, c)), rng.normal(size=(E, 1, c)))
    else:
        head = CosineHead(rng.normal(size=(E, c, h)), rng.uniform(5, 10, size=(E, 1, 1)))
    dlog = rng.normal(size=(E, n, c))
    logits, cos = head_forward(V, head)
    want = head_logits_backward(V, head, dlog, cos, need_dV=False)
    out = np.empty((E, n, c))
    got, cos = head_forward(V, head, out=out, nv=None if cos is None else row_norms(V))
    assert got is out and np.array_equal(got.view(np.uint64), logits.view(np.uint64))
    grads = tuple(np.full_like(p, np.nan) for p in vars(head).values())
    res = head_logits_backward(V, head, dlog, cos, need_dV=False, out=grads)
    assert res[-1] is None
    for r, g, w in zip(res, grads, want):
        assert np.shares_memory(r, g)
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
