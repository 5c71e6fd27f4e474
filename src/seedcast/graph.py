"""Context spatial extraction: signed graphs over local spatio-temporal windows.

Adjacent patch pairs of all variables form local windows of 2C nodes. A
learnable bilinear distance scores every node pair per head; scores become
signed edge weights (softmax- or tanh-normalized, sign preserved, unlike a
plain softmax which erases negative correlation), get KNN-sparsified by
magnitude, drive a one-layer graph convolution, and the two views of each
patch are pooled back onto the patch grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import _merge_heads, _split_heads, split_heads
from .errors import ConfigError, ShapeError

@dataclass
class SignedGraph:
    """Per-head signed adjacency (..., H, n, n); masked entries are exactly zero."""

    weights: T.Tensor
    mask: np.ndarray | None = None  # bool retention mask once KNN-sparsified


def default_knn_k(n: int) -> int:
    """Edges kept per node without ``knn_k``: half of n rounded up, at least 2, at most n."""
    return min(n, max(2, -(-n // 2)))


def make_windows(tokens: T.Tensor) -> T.Tensor:
    """(..., C, N, D) -> (..., N-1, 2C, D): stride-1 windows of 2 adjacent patches.

    Node order inside window k is [var0@k, var0@k+1, var1@k, var1@k+1, ...].
    """
    c, n, d = tokens.shape[-3], tokens.shape[-2], tokens.shape[-1]
    if n < 2:
        raise ConfigError(f"need at least 2 patches for local windows, got {n}")
    prev = tokens[..., :, : n - 1, :]
    nxt = tokens[..., :, 1:, :]
    paired = T.swapaxes(T.stack([prev, nxt], axis=-2), -4, -3)  # (..., K, C, 2, D)
    return paired.reshape(paired.shape[:-3] + (2 * c, d))


def signed_distance(window: T.Tensor, q: T.Tensor, heads: int) -> T.Tensor:
    """Bilinear scores s_ij = x_i Q x_j^T per head: (..., n, D) -> (..., H, n, n).

    The (d_h, d_h) form Q is shared across heads and unconstrained, so the
    scores (and the graph) are generally asymmetric. The heads split D evenly.
    """
    d = window.shape[-1]
    if d % heads != 0:
        raise ConfigError(f"graph heads ({heads}) must divide feature width ({d})")
    d_h = d // heads
    if q.shape[-1] != d_h or q.shape[-2] != d_h:
        raise ShapeError(f"distance form is {q.shape}, expected trailing ({d_h}, {d_h})")
    xh = split_heads(window, heads)  # (..., H, n, d_h)
    return T.matmul(T.matmul(xh, q), T.swapaxes(xh, -1, -2))


def sign_softmax_graph(scores: T.Tensor) -> SignedGraph:
    """Row softmax over |s|, re-signed by sign(s); sign(0) counts as +."""
    sign = np.where(scores.data >= 0.0, 1.0, -1.0)
    mag = scores * T.Tensor(sign)
    weights = T.softmax(mag, axis=-1) * T.Tensor(sign)
    return SignedGraph(weights)


def tanh_l1_graph(scores: T.Tensor) -> SignedGraph:
    """tanh(s) normalized by the row L1 norm; all-zero rows stay all-zero.

    One tape node that keeps the scores and the row norms, not its output.
    Its backward recomputes tanh from the scores and takes the derivative of
    the tanh, |.|, row-sum and division chain in that chain's own order.
    """
    sd = scores.data
    th = np.tanh(sd)
    denom = np.abs(th).sum(axis=-1, keepdims=True)
    denom += denom == 0.0  # an all-zero row divides by 1
    weights = np.divide(th, denom, out=th)

    def _bw(g):
        th = np.tanh(sd)
        g_denom = (-g * th / (denom * denom)).sum(axis=-1, keepdims=True)
        g_th = g / denom + np.broadcast_to(g_denom, th.shape) * np.sign(th)
        return (g_th * (1.0 - th * th),)

    return SignedGraph(T._node(weights, (scores,), _bw))


def plain_softmax_graph(scores: T.Tensor) -> SignedGraph:
    """Ordinary softmax on raw scores: nonnegative weights, signs erased."""
    return SignedGraph(T.softmax(scores, axis=-1))


GRAPH_BUILDERS = {
    "tanh": tanh_l1_graph,
    "softmax": sign_softmax_graph,
    "plain": plain_softmax_graph,
}


def knn_sparsify(graph: SignedGraph, k: int) -> SignedGraph:
    """Keep the k largest-|weight| entries per row (self always kept, counted).

    Ties break toward the lower column index. The bool mask is a constant of
    the forward pass, applied in one tape node: gradients flow only through
    retained entries.
    """
    n = graph.weights.shape[-1]
    if not 1 <= k <= n:
        raise ConfigError(f"knn k must be in [1, {n}], got {k}")
    absw = np.abs(graph.weights.data)
    absw[np.isnan(absw)] = -1.0  # NaN ranks last, as in a sort
    idx = np.arange(n)
    absw[..., idx, idx] = np.inf  # self-edge ranks first
    # Keep everything at or above the k-th largest |w|. Every row keeps at
    # least k entries that way, so more than k per row on average means some
    # row ties past its room; there, keep the lowest column indices.
    # A copy of the k-th column, so that the partitioned array is freed at once.
    kth = np.partition(absw, n - k, axis=-1)[..., n - k : n - k + 1].copy()
    mask = absw >= kth
    if np.count_nonzero(mask) > k * (mask.size // n):
        above = absw > kth
        tie = mask & ~above
        room = k - above.sum(axis=-1, keepdims=True)
        mask = above | (tie & (np.cumsum(tie, axis=-1, dtype=np.int32) <= room))
    del absw
    w = graph.weights
    return SignedGraph(T._node(w.data * mask, (w,), lambda g: (g * mask,)), mask)


def gcn(window: T.Tensor, graph: SignedGraph, weight: T.Tensor) -> T.Tensor:
    """One signed graph convolution with residual: x + silu(G @ x_h @ W_h) per head.

    ``weight`` holds the (H, d_h, d_h) per-head transforms W_h. The head split
    of ``window`` stays a taped view; the convolution after it is one tape
    node with parents ``(graph.weights, x_h, weight)`` that keeps only those
    three arrays. Its backward recomputes ``G @ x_h``, ``@ W_h`` and the
    sigmoid, and takes the chain's derivative in that chain's own order.
    """
    d = window.shape[-1]
    heads = graph.weights.shape[-3]
    if d % heads != 0:
        raise ConfigError(f"gcn heads ({heads}) must divide feature width ({d})")
    xh = split_heads(window, heads)  # (..., H, n, d_h)
    gd, xd, wd = graph.weights.data, xh.data, weight.data
    need_g, need_x, need_w = graph.weights.requires_grad, xh.requires_grad, weight.requires_grad

    def _bw(g):
        agg = gd @ xd
        pre = agg @ wd
        g = T._silu_grad(_split_heads(g, heads), pre, T._sigmoid(pre))
        g_w = T._unbroadcast(np.swapaxes(agg, -1, -2) @ g, wd.shape) if need_w else None
        g_agg = g @ np.swapaxes(wd, -1, -2)
        return (T._unbroadcast(g_agg @ np.swapaxes(xd, -1, -2), gd.shape) if need_g else None,
                T._unbroadcast(np.swapaxes(gd, -1, -2) @ g_agg, xd.shape) if need_x else None,
                g_w)

    conv = T._node(_merge_heads(T._silu(gd @ xd @ wd)), (graph.weights, xh, weight), _bw)
    return window + conv


def pool_windows(gcn_out: T.Tensor, mode: str = "mean") -> T.Tensor:
    """All patches at once: (..., K, 2C, D) window outputs -> (..., C, N, D)."""
    k2, n2, d = gcn_out.shape[-3], gcn_out.shape[-2], gcn_out.shape[-1]
    c = n2 // 2
    e = gcn_out.reshape(gcn_out.shape[:-2] + (c, 2, d))  # (..., K, C, 2, D)
    slot0 = e[..., :, :, 0, :]  # (..., K, C, D): view of patches 0..N-2
    slot1 = e[..., :, :, 1, :]  # view of patches 1..N-1
    first = slot0[..., :1, :, :]
    last = slot1[..., k2 - 1 : k2, :, :]
    a = slot1[..., : k2 - 1, :, :]  # patches 1..N-2 sit in two windows each;
    b = slot0[..., 1:, :, :]  # with a single window (N = 2) both are empty
    mid = (a + b) * 0.5 if mode == "mean" else T.maximum(a, b)
    stacked = T.concat([first, mid, last], axis=-3)  # (..., N, C, D)
    return T.swapaxes(stacked, -3, -2)  # (..., C, N, D)


def node_layout(mode: str, c: int, n: int) -> tuple[int, int]:
    """(graphs, nodes per graph) that spatial ``mode`` lays C variables x N patches out as.

    "local": one window per adjacent patch pair, over both patches of every
    variable; "same_step": one window per patch over the C variables (no
    temporal context); "global": one window over all C*N patches.
    """
    layouts = {"local": (n - 1, 2 * c), "same_step": (n, c), "global": (1, c * n)}
    if mode not in layouts:
        raise ConfigError(f"unknown spatial mode {mode!r}")
    return layouts[mode]


@dataclass
class SpatialParams:
    """Everything the context extractor needs besides the tokens."""

    q: T.Tensor  # (d_h, d_h) bilinear distance form
    gcn_weight: T.Tensor  # (H, d_h, d_h) per-head GCN transforms
    heads: int
    graph_variant: str = "tanh"  # a GRAPH_BUILDERS key
    knn_k: int | None = None
    pool: str = "mean"
    mode: str = "local"  # a node_layout mode

    def params(self) -> list[T.Tensor]:
        return [self.q, self.gcn_weight]


def context_spatial_extract(tokens: T.Tensor, p: SpatialParams) -> T.Tensor:
    """Full spatial pathway: node layout -> signed graph -> KNN -> GCN -> layout undone.

    "local" pools the overlapping windows back onto the patch grid; "global"
    keeps every edge of its single window.
    """
    c, n, d = tokens.shape[-3], tokens.shape[-2], tokens.shape[-1]
    graphs, n_nodes = node_layout(p.mode, c, n)
    k = p.knn_k if p.knn_k is not None else default_knn_k(n_nodes)
    if p.mode == "local":
        nodes = make_windows(tokens)  # (..., N-1, 2C, D)
    elif p.mode == "same_step":
        nodes = T.swapaxes(tokens, -3, -2)  # (..., N, C, D)
    else:
        nodes = tokens.reshape(tokens.shape[:-3] + (graphs, n_nodes, d))  # (..., 1, C*N, D)
        k = n_nodes  # every edge kept
    scores = signed_distance(nodes, p.q, p.heads)
    graph = knn_sparsify(GRAPH_BUILDERS[p.graph_variant](scores), k)
    out = gcn(nodes, graph, p.gcn_weight)
    if p.mode == "local":
        return pool_windows(out, p.pool)
    if p.mode == "same_step":
        return T.swapaxes(out, -3, -2)
    return out.reshape(tokens.shape)
