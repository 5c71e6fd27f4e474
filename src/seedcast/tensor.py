"""Dense float64 tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array plus an optional gradient accumulator. The
output of an op that needs a gradient points to a small tape node: links to
its parents, a backward closure and the gradient in flight, but not the
output array. Each closure keeps only the arrays its formula reads, and
shapes or flags otherwise, so an output that no backward reads is freed as
soon as the forward drops it. ``backward()`` walks the nodes in reverse
topological order, sums gradients across fan-out, and releases each node's
saved arrays once its closure has run, so a second ``backward()`` through
the graph raises. Broadcasting follows numpy's rules for size-1/leading
axes; anything that does not broadcast raises ShapeError up front.
"""

from __future__ import annotations

import numbers

import numpy as np

from . import fft as _fft
from .errors import InputError, ShapeError

_GRAD_ENABLED = True

# Work over a batch runs in blocks whose largest intermediate fits in this many
# bytes: a no-tape forward in blocks of windows, a graph stage in blocks of its
# leading axis. Temporaries then stay in cache and small beside the tape,
# whatever the batch size.
_BLOCK_BYTES = 1 << 20


class no_grad:
    """Context manager: ops inside build no tape (pure evaluation)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def grad_enabled() -> bool:
    """True when ops record a tape, i.e. outside every ``no_grad`` block."""
    return _GRAD_ENABLED


class _Node:
    """One taped op: links to its parents, its backward closure, its gradient in flight.

    A link is the parent's own ``_Node``, the parent itself when it is a leaf
    that needs a gradient (so ``backward()`` can write its ``grad``), or None
    when the parent needs no gradient. The node does not hold the op's output.
    """

    __slots__ = ("parents", "backward", "grad")

    def __init__(self, parents, backward):
        self.parents = parents
        self.backward = backward
        self.grad = None


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None  # the tape node of the op that made this tensor, when taped

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def zero_grad(self):
        self.grad = None

    # -- autodiff -----------------------------------------------------------

    def backward(self, seed: np.ndarray | None = None):
        if seed is None:
            if self.data.size != 1:
                raise ShapeError(
                    f"backward() needs a scalar output or explicit seed, got shape {self.shape}"
                )
            seed = np.ones_like(self.data)
        seed = np.asarray(seed, dtype=np.float64)
        if seed.shape != self.shape:
            raise ShapeError(f"backward() seed has shape {seed.shape}, the output {self.shape}")
        self.grad = seed
        if self._node is None:
            return
        topo: list[_Node] = []
        visited = set()
        stack = [(self._node, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if type(p) is _Node and id(p) not in visited:
                    stack.append((p, False))
        self._node.grad = seed
        for node in reversed(topo):
            if node.grad is None:
                continue
            for link, g in zip(node.parents, node.backward(node.grad)):
                if g is None or link is None:
                    continue
                # Fan-out sums; grads are never mutated in place, so sharing is safe.
                link.grad = g if link.grad is None else link.grad + g
            # Release the node: dropping its closure frees the arrays it saved.
            node.parents = ()
            node.backward = _released
            node.grad = None

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_ensure(other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_ensure(other), self)

    def __neg__(self):
        return neg(self)

    def __getitem__(self, idx):
        return take(self, idx)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 or isinstance(shape[0], int) else shape[0])

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis, keepdims)


def _released(g):
    raise InputError(
        "backward() through a graph that an earlier backward() released; "
        "run the forward again to build a new one"
    )


def _ensure(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, (numbers.Number, np.ndarray, list, tuple)):
        return Tensor(x)
    raise TypeError(f"cannot treat {type(x).__name__} as Tensor")


def _link(t: Tensor):
    """What a tape node keeps of parent ``t`` (see ``_Node``)."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def _node(data: np.ndarray, parents, backward) -> Tensor:
    """The output of an op over ``parents``, taped when any of them needs a gradient.

    ``backward(g)`` maps the output's gradient to one gradient per parent, in
    order, with None for a parent that keeps none. It must capture only the
    arrays its formula reads, never a Tensor, so that the tape keeps no more.
    Ops with a hand-written backward outside this module build their output
    through here too.
    """
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(tuple(_link(p) for p in parents), backward)
    return out


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum ``grad`` over the axes along which an operand of ``shape`` was broadcast."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _wanted(parents, *grads):
    """A backward that runs, and keeps the arrays of, only the gradients a parent needs.

    ``grads[i](g)`` maps the output's gradient to parent i's. The function of
    a parent that needs no gradient is dropped here, and with it every array
    that only it reads.
    """
    grads = [f if p.requires_grad else None for p, f in zip(parents, grads)]
    return lambda g: tuple(None if f is None else f(g) for f in grads)


def _check_broadcast(a: Tensor, b: Tensor, opname: str):
    if a.data.shape == b.data.shape:
        return
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} do not broadcast") from None


# -- elementwise binary ops ---------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    _check_broadcast(a, b, "add")
    sa, sb = a.shape, b.shape
    return _node(a.data + b.data, (a, b), _wanted(
        (a, b), lambda g: _unbroadcast(g, sa), lambda g: _unbroadcast(g, sb)))


def sub(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    _check_broadcast(a, b, "sub")
    sa, sb = a.shape, b.shape
    return _node(a.data - b.data, (a, b), _wanted(
        (a, b), lambda g: _unbroadcast(g, sa), lambda g: _unbroadcast(-g, sb)))


def mul(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    _check_broadcast(a, b, "mul")
    ad, bd, sa, sb = a.data, b.data, a.shape, b.shape
    return _node(ad * bd, (a, b), _wanted(
        (a, b), lambda g: _unbroadcast(g * bd, sa), lambda g: _unbroadcast(g * ad, sb)))


def div(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    _check_broadcast(a, b, "div")
    ad, bd, sa, sb = a.data, b.data, a.shape, b.shape
    return _node(ad / bd, (a, b), _wanted(
        (a, b), lambda g: _unbroadcast(g / bd, sa),
        lambda g: _unbroadcast(-g * ad / (bd * bd), sb)))


# -- elementwise unary ops ----------------------------------------------------


def neg(a) -> Tensor:
    a = _ensure(a)
    return _node(-a.data, (a,), lambda g: (-g,))


def sqrt(a) -> Tensor:
    a = _ensure(a)
    out = np.sqrt(a.data)
    return _node(out, (a,), lambda g: (g * 0.5 / out,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))``, computed in one new array."""
    s = np.negative(x)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def sigmoid(a) -> Tensor:
    a = _ensure(a)
    out = _sigmoid(a.data)
    return _node(out, (a,), lambda g: (g * out * (1.0 - out),))


def _silu(x: np.ndarray) -> np.ndarray:
    """``x * sigmoid(x)``, computed in one new array."""
    s = _sigmoid(x)
    s *= x
    return s


def _silu_grad(g: np.ndarray, x: np.ndarray, s: np.ndarray, out=None) -> np.ndarray:
    """The gradient of ``x * sigmoid(x)`` for upstream ``g``, given ``s = sigmoid(x)``.

    The same arithmetic, in the same order, as a SiLU that kept its sigmoid.
    ``s`` is overwritten, and so is ``out`` (which may be ``g``) when given.
    """
    out = np.multiply(g, s, out=out)
    d = np.subtract(1.0, s, out=s)
    d *= x
    d += 1.0
    out *= d
    return out


def xlogx(a, tiny: float = 1e-300) -> Tensor:
    """x*log(x) with the 0*log(0) -> 0 limit; gradient clamped to 0 there."""
    a = _ensure(a)
    pos = a.data > tiny
    logx = np.log(np.where(pos, a.data, 1.0))
    out = np.where(pos, a.data * logx, 0.0)
    return _node(out, (a,), lambda g: (g * np.where(pos, logx + 1.0, 0.0),))


# -- shape ops ----------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = _ensure(a)
    shape = tuple(shape) if not isinstance(shape, int) else (shape,)
    sa = a.shape
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(sa),))


def swapaxes(a, i: int, j: int) -> Tensor:
    """Swap axes ``i`` and ``j``; the backward swaps them back."""
    a = _ensure(a)
    return _node(np.swapaxes(a.data, i, j), (a,), lambda g: (np.swapaxes(g, i, j),))


def take(a, idx) -> Tensor:
    """Basic indexing (ints/slices/ellipsis); no repeated advanced indices."""
    a = _ensure(a)
    sa = a.shape

    def _bw(g):
        full = np.zeros(sa)
        full[idx] += g
        return (full,)

    return _node(a.data[idx], (a,), _bw)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_ensure(t) for t in tensors]
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def _bw(g):
        sl = [slice(None)] * g.ndim
        grads = []
        for i in range(len(offsets) - 1):
            sl[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(sl)])
        return tuple(grads)

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tensors, _bw)


# -- reductions ----------------------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _ensure(a)
    sa = a.shape

    def _bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, sa),)

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), _bw)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _ensure(a)
    sa = a.shape
    count = a.size if axis is None else np.prod([sa[ax] for ax in np.atleast_1d(axis)])

    def _bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, sa) / count,)

    return _node(a.data.mean(axis=axis, keepdims=keepdims), (a,), _bw)


# -- linear algebra -------------------------------------------------------------


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b`` for a (K, N) weight: one 2-D product over the collapsed batch axes."""
    k, n = w.shape
    out = (x.reshape(-1, k) @ w).reshape(x.shape[:-1] + (n,))
    out += b
    return out


def _affine_grads(g, x, w, b_shape, need):
    """The gradients of ``_affine(x, w, b)`` for upstream ``g``, as ``linear`` takes them.

    Returns (x, w, b) gradients, None where ``need`` says no; ``x`` is read
    only for the weight's.
    """
    k, n = w.shape
    g2 = g.reshape(-1, n)
    return ((g2 @ w.T).reshape(g.shape[:-1] + (k,)) if need[0] else None,
            x.reshape(-1, k).T @ g2 if need[1] else None,
            _unbroadcast(g, b_shape) if need[2] else None)


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` as one node, for a (K, N) weight and a bias that broadcasts to the output.

    The node keeps ``w``, and ``x`` where ``w`` needs a gradient; its
    gradients are those of the matmul-then-add chain, computed the same way.
    """
    x, w, b = _ensure(x), _ensure(w), _ensure(b)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear needs (..., K) @ (K, N) operands, got {x.shape} @ {w.shape}")
    shape = x.shape[:-1] + (w.shape[1],)
    try:
        fits = np.broadcast_shapes(shape, b.shape) == shape
    except ValueError:
        fits = False
    if not fits:
        raise ShapeError(f"linear: bias {b.shape} does not broadcast to the output {shape}")
    wd, sb, need = w.data, b.shape, (x.requires_grad, w.requires_grad, b.requires_grad)
    xd = x.data if need[1] else None
    return _node(_affine(x.data, wd, b.data), (x, w, b),
                 lambda g: _affine_grads(g, xd, wd, sb, need))


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """exp-normalization along ``axis`` with max-subtraction, in one new array."""
    e = x - x.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def softmax(a, axis: int = -1) -> Tensor:
    """Row-stochastic exp-normalization, computed with max-subtraction."""
    a = _ensure(a)
    out = _softmax(a.data, axis)

    def _bw(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _node(out, (a,), _bw)


# -- Fourier transform ------------------------------------------------------------


def dft_real(a) -> tuple[Tensor, Tensor]:
    """Differentiable DFT of a real tensor along its last axis.

    Returns (re, im), each shaped like the input. The backward pass is the
    adjoint DFT: grad_x = Re(DFT(conj(G))) for upstream G = g_re + i*g_im.
    """
    a = _ensure(a)
    re, im = _fft.fft_real_raw(a.data)

    def _bw(g):
        hr, _ = _fft.fft_complex(g[0], -g[1])
        return (hr,)

    stacked = _node(np.stack([re, im]), (a,), _bw)
    return take(stacked, 0), take(stacked, 1)

