"""Property tests: broadcasting gradients agree with central differences.

Shapes are drawn at random, so every broadcast pattern (missing leading
axes, size-1 axes on either side, equal shapes) comes up. The runs are
derandomized, so a failure reproduces on every run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from seedcast import tensor as T
from tests_helpers import grad_check_many

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100, database=None)


@st.composite
def _operand(draw, full):
    """A shape that broadcasts to ``full``: a suffix of it with some axes set to 1."""
    keep = draw(st.integers(0, len(full)))
    return tuple(1 if draw(st.booleans()) else s for s in full[len(full) - keep:])


_FULL = st.lists(st.integers(2, 4), min_size=1, max_size=4).map(tuple)


@st.composite
def broadcast_pair(draw):
    """Two shapes that broadcast together."""
    full = draw(_FULL)
    return draw(_operand(full)), draw(_operand(full))


@st.composite
def broadcast_target(draw):
    """A shape and a broadcast result of it, every axis of which is wider than 1."""
    full = draw(_FULL)
    return draw(_operand(full)), full


def _arrays(seed, *shapes):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=s) for s in shapes]


def _grad_errors(op, a, b, seed):
    """Reverse-mode vs central-difference errors of sum(op(a, b) * mix)."""
    ta = T.Tensor(a, requires_grad=True)
    tb = T.Tensor(b, requires_grad=True)
    mix = T.Tensor(np.random.default_rng(seed + 1).normal(size=op(ta, tb).shape))
    return grad_check_many(lambda: (op(ta, tb) * mix).sum(), [ta, tb], eps=1e-6)


def _unbroadcast_oracle(grad, shape):
    """Sum the leading axes that broadcasting added, then every axis it stretched."""
    extra = grad.ndim - len(shape)
    grad = grad.sum(axis=tuple(range(extra)))
    for i, s in enumerate(shape):
        if s == 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


@PROPERTY
@given(broadcast_target(), st.integers(0, 2**31))
def test_unbroadcast_is_the_adjoint_of_broadcast(shapes, seed):
    shape, out_shape = shapes
    x, g = _arrays(seed, shape, out_shape)
    back = T._unbroadcast(g, shape)
    assert back.shape == shape
    assert np.allclose(back, _unbroadcast_oracle(g, shape), rtol=0, atol=1e-12)
    # <broadcast(x), g> == <x, unbroadcast(g)>
    lhs = float((np.broadcast_to(x, out_shape) * g).sum())
    assert abs(lhs - float((x * back).sum())) <= 1e-10 * max(1.0, abs(lhs))


@PROPERTY
@given(broadcast_pair(), st.integers(0, 2**31))
def test_add_gradients(shapes, seed):
    a, b = _arrays(seed, *shapes)
    assert _grad_errors(T.add, a, b, seed).max(initial=0.0) < 1e-7


@PROPERTY
@given(broadcast_pair(), st.integers(0, 2**31))
def test_mul_gradients(shapes, seed):
    a, b = _arrays(seed, *shapes)
    assert _grad_errors(T.mul, a, b, seed).max(initial=0.0) < 1e-7


@PROPERTY
@given(broadcast_pair(), st.integers(0, 2**31))
def test_div_gradients(shapes, seed):
    a, b = _arrays(seed, *shapes)
    b = np.where(b >= 0, 1.0, -1.0) * (0.5 + np.abs(b))  # |b| >= 0.5: away from the pole
    assert _grad_errors(T.div, a, b, seed).max(initial=0.0) < 1e-6


@PROPERTY
@given(broadcast_pair(), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2**31))
def test_matmul_gradients(batch, m, k, n, seed):
    a, b = _arrays(seed, batch[0] + (m, k), batch[1] + (k, n))
    assert _grad_errors(T.matmul, a, b, seed).max(initial=0.0) < 1e-7
