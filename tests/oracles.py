"""The op chains that the fused ops replaced, kept as oracles for them.

Each function here builds its result from elementary tensor ops, one tape
node per step, exactly as the production code did before it fused the chain
into one node with a hand-written backward. ``ORACLES`` names the binding
site of each fused op, so a test can monkeypatch the chains back in.
"""

import numpy as np

from seedcast import attention as A
from seedcast import graph as G
from seedcast import model as M
from seedcast import tensor as T
from seedcast.errors import ShapeError
from tests_helpers import graph_weights, weights_graph


def matmul(a, b):
    """``a @ b`` as one tape node, the product step of the chains below."""
    a, b = T._ensure(a), T._ensure(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise ShapeError(f"matmul batch dimensions do not broadcast: {a.shape} @ {b.shape}") from None
    ad, bd, sa, sb = a.data, b.data, a.shape, b.shape

    if b.ndim == 2:
        # Plain weight matrix: collapse batch dims into one DGEMM each way.
        k, n = sb
        a2 = ad.reshape(-1, k)
        return T._node((a2 @ bd).reshape(sa[:-1] + (n,)), (a, b), T._wanted(
            (a, b), lambda g: (g.reshape(-1, n) @ bd.T).reshape(sa),
            lambda g: ad.reshape(-1, k).T @ g.reshape(-1, n)))

    return T._node(ad @ bd, (a, b), T._wanted(
        (a, b), lambda g: T._unbroadcast(g @ np.swapaxes(bd, -1, -2), sa),
        lambda g: T._unbroadcast(np.swapaxes(ad, -1, -2) @ g, sb)))


def linear(x, w, b):
    return matmul(x, w) + b


def layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc / T.sqrt(var + eps) * gamma + beta


def silu(a):
    """x * sigmoid(x) as one tape node that keeps its input and its sigmoid."""
    ad = a.data
    s = 1.0 / (1.0 + np.exp(-ad))
    return T._node(ad * s, (a,), lambda g: (g * s * (1.0 + ad * (1.0 - s)),))


def merge_heads(x):
    """(..., H, N, dk) -> (..., N, H*dk) as a swapaxes node and a reshape node."""
    h, n, dk = x.shape[-3], x.shape[-2], x.shape[-1]
    return T.swapaxes(x, -3, -2).reshape(x.shape[:-3] + (n, h * dk))


def temporal_attention(tokens, params):
    h = params.heads
    d = tokens.shape[-1]
    q = A.split_heads(T.linear(tokens, params.wq, params.bq), h)
    k = A.split_heads(matmul(tokens, params.wk), h)
    v = A.split_heads(T.linear(tokens, params.wv, params.bv), h)
    scores = matmul(q, T.swapaxes(k, -1, -2)) * (1.0 / np.sqrt(d // h))
    attn = T.softmax(scores, axis=-1)
    return T.linear(merge_heads(matmul(attn, v)), params.wo, params.bo)


def gcn(window, graph, weight):
    weights = graph_weights(graph)
    xh = A.split_heads(window, weights.shape[-3])
    agg = matmul(weights, xh)
    return window + merge_heads(silu(matmul(agg, weight)))


def feed_forward(h, w1, b1, w2, b2):
    return T.linear(silu(T.linear(h, w1, b1)), w2, b2)


def stack(tensors, axis=0):
    """np.stack as one tape node, a step of the window chain below."""
    tensors = [T._ensure(t) for t in tensors]
    n = len(tensors)
    return T._node(np.stack([t.data for t in tensors], axis=axis), tensors,
                   lambda g: tuple(np.take(g, i, axis=axis) for i in range(n)))


def maximum(a, b):
    """Elementwise max as one tape node, a step of the max-pool chain below.

    On ties the gradient routes to the first argument.
    """
    a, b = T._ensure(a), T._ensure(b)
    T._check_broadcast(a, b, "maximum")
    ad, bd, sa, sb = a.data, b.data, a.shape, b.shape
    need_a, need_b = a.requires_grad, b.requires_grad

    def _bw(g):
        mask = (ad >= bd).astype(np.float64)
        return (T._unbroadcast(g * mask, sa) if need_a else None,
                T._unbroadcast(g * (1.0 - mask), sb) if need_b else None)

    return T._node(np.maximum(ad, bd), (a, b), _bw)


def make_windows(tokens):
    c, n, d = tokens.shape[-3], tokens.shape[-2], tokens.shape[-1]
    prev = tokens[..., :, : n - 1, :]
    nxt = tokens[..., :, 1:, :]
    paired = T.swapaxes(stack([prev, nxt], axis=-2), -4, -3)  # (..., K, C, 2, D)
    return paired.reshape(paired.shape[:-3] + (2 * c, d))


def signed_distance(window, q, heads):
    xh = A.split_heads(window, heads)
    return matmul(matmul(xh, q), T.swapaxes(xh, -1, -2))


def pool_windows(gcn_out, mode="mean"):
    k2, n2, d = gcn_out.shape[-3], gcn_out.shape[-2], gcn_out.shape[-1]
    c = n2 // 2
    e = gcn_out.reshape(gcn_out.shape[:-2] + (c, 2, d))  # (..., K, C, 2, D)
    slot0 = e[..., :, :, 0, :]
    slot1 = e[..., :, :, 1, :]
    first = slot0[..., :1, :, :]
    last = slot1[..., k2 - 1 : k2, :, :]
    a = slot1[..., : k2 - 1, :, :]
    b = slot0[..., 1:, :, :]
    mid = (a + b) * 0.5 if mode == "mean" else maximum(a, b)
    stacked = T.concat([first, mid, last], axis=-3)  # (..., N, C, D)
    return T.swapaxes(stacked, -3, -2)


def tanh(a):
    """tanh as one tape node that keeps its output, a step of the tanh-L1 chain below."""
    out = np.tanh(a.data)
    return T._node(out, (a,), lambda g: (g * (1.0 - out * out),))


def absolute(a):
    """|a| as one tape node, a step of the tanh-L1 chain below."""
    ad = a.data
    return T._node(np.abs(ad), (a,), lambda g: (g * np.sign(ad),))


# The graph builders and KNN take and give graphs whose weights are a chain of nodes;
# the builders read their scores as they are and leave ``rebuild`` unused.


def tanh_l1_graph(scores, rebuild=None):
    th = tanh(scores)
    denom = absolute(th).sum(axis=-1, keepdims=True)
    guard = (denom.data == 0.0).astype(np.float64)
    return weights_graph(th / (denom + T.Tensor(guard)))


def sign_softmax_graph(scores, rebuild=None):
    sign = T.Tensor(np.where(scores.data >= 0.0, 1.0, -1.0))
    return weights_graph(T.softmax(scores * sign, axis=-1) * sign)


def plain_softmax_graph(scores, rebuild=None):
    return weights_graph(T.softmax(scores, axis=-1))


def knn_sparsify(graph, k):
    weights = graph_weights(graph)
    mask = knn_mask(weights.data, k)
    return weights_graph(weights * T.Tensor(mask.astype(np.float64)), mask)


def knn_mask(weights, k):
    """The KNN retention mask, with the cumulative-sum tie fill run on every row."""
    n = weights.shape[-1]
    absw = np.abs(weights)
    absw[np.isnan(absw)] = -1.0
    idx = np.arange(n)
    absw[..., idx, idx] = np.inf
    kth = np.partition(absw, n - k, axis=-1)[..., n - k : n - k + 1]
    above = absw > kth
    tie = absw == kth
    room = k - above.sum(axis=-1, keepdims=True)
    return above | (tie & (np.cumsum(tie, axis=-1, dtype=np.int32) <= room))


# (namespace, attribute, oracle): every place the production code looks a fused op up.
ORACLES = (
    (T, "linear", linear),
    (M, "layer_norm", layer_norm),
    (G.GRAPH_BUILDERS, "tanh", tanh_l1_graph),
    (G.GRAPH_BUILDERS, "softmax", sign_softmax_graph),
    (G.GRAPH_BUILDERS, "plain", plain_softmax_graph),
    (G, "knn_sparsify", knn_sparsify),
    (M, "temporal_attention", temporal_attention),
    (G, "gcn", gcn),
    (M, "feed_forward", feed_forward),
    (G, "make_windows", make_windows),
    (G, "signed_distance", signed_distance),
    (G, "pool_windows", pool_windows),
)


def install(monkeypatch):
    """Route every production call of a fused op to its oracle chain."""
    for where, name, oracle in ORACLES:
        if isinstance(where, dict):
            monkeypatch.setitem(where, name, oracle)
        else:
            monkeypatch.setattr(where, name, oracle)
