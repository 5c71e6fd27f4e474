"""Context spatial extraction: signed graphs over local spatio-temporal windows.

Adjacent patch pairs of all variables form local windows of 2C nodes. A
learnable bilinear distance scores every node pair per head; scores become
signed edge weights (softmax- or tanh-normalized, sign preserved, unlike a
plain softmax which erases negative correlation), get KNN-sparsified by
magnitude, drive a one-layer graph convolution, and the two views of each
patch are pooled back onto the patch grid.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import _merge_heads, _split_heads, split_heads
from .errors import ConfigError, ShapeError

# Block ``b`` of a graph's weights, rebuilt as a new array, with ``grad(g, out)``:
# the map from its gradient ``g``, which it may overwrite, to its scores' in ``out``.
Rebuilt = tuple[np.ndarray, Callable[[np.ndarray, np.ndarray], None]]


@dataclass
class SignedGraph:
    """Per-head signed adjacency (..., H, n, n), a view over its scores one block at a time.

    A block is a slice of the leading axis (see ``_blocks``); masked entries
    are exactly zero. ``block(b)`` reads block ``b`` of the weights in the
    forward. ``rebuild(b)`` builds it again, bit for bit, from arrays the
    tape keeps anyway, with its backward. No tape node keeps a graph:
    ``gcn``'s links straight to ``scores``.
    """

    scores: T.Tensor
    block: Callable[[slice], np.ndarray]
    rebuild: Callable[[slice], Rebuilt]
    mask: np.ndarray | None = None  # bool retention mask once KNN-sparsified


def _blocks(a: np.ndarray, parts: int = 1) -> list[slice]:
    """Slices of a (..., H, n, n) graph's first axis, each ``tensor._BLOCK_BYTES / parts`` of it.

    The graph stages run block by block into full-size outputs, so their
    temporaries stay in cache and small beside the tape. A graph without axes
    before its heads is one block; the last block may be shorter.
    """
    if a.ndim < 4:
        return [slice(None)]
    rows = a.shape[0]
    step = max(1, T._BLOCK_BYTES * rows // (parts * max(a.nbytes, 1)))
    return [slice(i, i + step) for i in range(0, max(rows, 1), step)]


def default_knn_k(n: int) -> int:
    """Edges kept per node without ``knn_k``: half of n rounded up, at least 2, at most n."""
    return min(n, max(2, -(-n // 2)))


def make_windows(tokens: T.Tensor) -> T.Tensor:
    """(..., C, N, D) -> (..., N-1, 2C, D): stride-1 windows of 2 adjacent patches.

    Node order inside window k is [var0@k, var0@k+1, var1@k, var1@k+1, ...].
    One tape node with parents ``(tokens, tokens)``: it returns the gradients
    of the earlier and the later patch of each pair separately, so
    ``backward()`` adds them to the tokens' other gradients one at a time,
    in the order of the slice chain it replaces. One summed gradient would
    round differently.
    """
    x = tokens.data
    c, n, d = x.shape[-3:]
    if n < 2:
        raise ConfigError(f"need at least 2 patches for local windows, got {n}")
    shape, lead = x.shape, x.shape[:-3]
    paired = np.empty(lead + (n - 1, c, 2, d))
    paired[..., 0, :] = np.swapaxes(x[..., :, : n - 1, :], -3, -2)
    paired[..., 1, :] = np.swapaxes(x[..., :, 1:, :], -3, -2)

    def _bw(g):
        g = np.swapaxes(g.reshape(lead + (n - 1, c, 2, d)), -4, -3)  # (..., C, K, 2, D)
        g_prev, g_next = np.zeros(shape), np.zeros(shape)
        g_prev[..., : n - 1, :] += g[..., 0, :]
        g_next[..., 1:, :] += g[..., 1, :]
        return g_prev, g_next

    return T._node(paired.reshape(lead + (n - 1, 2 * c, d)), (tokens, tokens), _bw)


def signed_distance(window: T.Tensor, q: T.Tensor, heads: int) -> T.Tensor:
    """Bilinear scores s_ij = x_i Q x_j^T per head: (..., n, D) -> (..., H, n, n).

    The (d_h, d_h) form Q is shared across heads and unconstrained, so the
    scores (and the graph) are generally asymmetric. The heads split D evenly.
    One tape node that keeps the window and Q; its backward recomputes
    ``x_h Q`` and takes the derivative of the head split, the two products and
    the transpose in that chain's own order.
    """
    d = window.shape[-1]
    if d % heads != 0:
        raise ConfigError(f"graph heads ({heads}) must divide feature width ({d})")
    d_h = d // heads
    if q.shape[-1] != d_h or q.shape[-2] != d_h:
        raise ShapeError(f"distance form is {q.shape}, expected trailing ({d_h}, {d_h})")
    xh, qd = _split_heads(window.data, heads), q.data  # (..., H, n, d_h)
    need_x, need_q = window.requires_grad, q.requires_grad

    def _bw(g):
        x2 = xh.reshape(-1, d_h)  # one copy of x_h, for both products that read it
        xq = (x2 @ qd).reshape(xh.shape)
        g_xq = g @ xh
        g_q = x2.T @ g_xq.reshape(-1, d_h) if need_q else None
        del x2
        if not need_x:
            return None, g_q
        # x_h feeds both factors: the left one's gradient first, then the right one's.
        g_xh = (g_xq.reshape(-1, d_h) @ qd.T).reshape(xh.shape)
        g_xh = g_xh + np.swapaxes(np.swapaxes(xq, -1, -2) @ g, -1, -2)
        return _merge_heads(g_xh), g_q

    return T._node(_project(xh, qd) @ np.swapaxes(xh, -1, -2), (window, q), _bw)


def _project(xh: np.ndarray, q: np.ndarray) -> np.ndarray:
    """x_h Q, one 2-D product over the collapsed batch axes."""
    return (xh.reshape(-1, q.shape[-1]) @ q).reshape(xh.shape)


def rebuild_scores(window: np.ndarray, q: np.ndarray, heads: int) -> Callable[[slice], np.ndarray]:
    """``rebuild(b)``: block ``b`` of ``signed_distance``'s scores over these arrays, again.

    A new array from the same two products, so the same bits. It reads only
    the window and Q, which that node keeps, so a graph builder can keep it
    instead of a graph.
    """
    xh = _split_heads(window, heads)
    return lambda b: _project(xh[b], q) @ np.swapaxes(xh[b], -1, -2)


# The graph builders compute their weights block by block for the forward and
# keep only ``rebuild`` (a new array of a block of the scores, which they may
# overwrite) and per-row values. Each rebuilt block's backward takes the
# derivative of the builder's op chain in that chain's own order.


def _sign_soft(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sign(s), with sign(0) = +, and the row softmax of |s|."""
    sign = np.where(s >= 0.0, 1.0, -1.0)
    return sign, T._softmax(s * sign)


def sign_softmax_graph(scores: T.Tensor, rebuild: Callable[[slice], np.ndarray]) -> SignedGraph:
    """Row softmax over |s|, re-signed by sign(s); sign(0) counts as +."""
    s = scores.data
    w = np.empty(s.shape)
    for b in _blocks(s):
        sign, soft = _sign_soft(s[b])
        np.multiply(soft, sign, out=w[b])

    def again(b):
        sign, soft = _sign_soft(rebuild(b))
        return soft * sign, lambda g, out: np.multiply(
            T._softmax_grad(soft, g * sign, out=out), sign, out=out)

    return SignedGraph(scores, lambda b: w[b], again)


def tanh_l1_graph(scores: T.Tensor, rebuild: Callable[[slice], np.ndarray]) -> SignedGraph:
    """tanh(s) normalized by the row L1 norm; all-zero rows stay all-zero.

    Keeps the row norms. The rebuilt block's backward runs in its output and
    one scratch block.
    """
    s = scores.data
    w, denom = np.empty(s.shape), np.empty(s.shape[:-1] + (1,))
    for b in _blocks(s):
        th, d = np.tanh(s[b], out=w[b]), denom[b]
        np.abs(th).sum(axis=-1, keepdims=True, out=d)
        d += d == 0.0  # an all-zero row divides by 1
        th /= d

    def again(b):
        s_b, d = rebuild(b), denom[b]
        th = np.tanh(s_b, out=s_b)

        def grad(g, out):
            t = g * th
            t /= -(d * d)  # the sign of -g * th / denom², carried by the divisor
            g_denom = t.sum(axis=-1, keepdims=True)
            gt = np.divide(g, d, out=out)
            gt += np.multiply(np.sign(th, out=t), g_denom, out=t)
            np.multiply(th, th, out=t)
            gt *= np.subtract(1.0, t, out=t)

        return th / d, grad

    return SignedGraph(scores, lambda b: w[b], again)


def plain_softmax_graph(scores: T.Tensor, rebuild: Callable[[slice], np.ndarray]) -> SignedGraph:
    """Ordinary softmax on raw scores: nonnegative weights, signs erased."""
    s = scores.data
    w = np.empty(s.shape)
    for b in _blocks(s):
        w[b] = T._softmax(s[b])

    def again(b):
        soft = T._softmax(rebuild(b))
        return soft.copy(), lambda g, out: T._softmax_grad(soft, g, out=out)

    return SignedGraph(scores, lambda b: w[b], again)


GRAPH_BUILDERS = {
    "tanh": tanh_l1_graph,
    "softmax": sign_softmax_graph,
    "plain": plain_softmax_graph,
}


def knn_sparsify(graph: SignedGraph, k: int) -> SignedGraph:
    """Keep the k largest-|weight| entries per row (self always kept, counted).

    Ties break toward the lower column index. The bool mask is a constant of
    the forward pass, found block by block and applied to each block read or
    rebuilt: gradients flow only through retained entries.
    """
    n = graph.scores.shape[-1]
    if not 1 <= k <= n:
        raise ConfigError(f"knn k must be in [1, {n}], got {k}")
    block, rebuild = graph.block, graph.rebuild
    mask = np.empty(graph.scores.shape, dtype=bool)
    idx = np.arange(n)
    for b in _blocks(graph.scores.data):
        absw = np.abs(block(b))
        absw[np.isnan(absw)] = -1.0  # NaN ranks last, as in a sort
        absw[..., idx, idx] = np.inf  # self-edge ranks first
        # Keep everything at or above the k-th largest |w|. Every row keeps at
        # least k entries that way, so more than k per row on average means some
        # row ties past its room; there, keep the lowest column indices.
        # A copy of the k-th column, so that the sorted block is freed at once.
        kth = np.sort(absw, axis=-1)[..., n - k : n - k + 1].copy()
        kept = np.greater_equal(absw, kth, out=mask[b])
        if np.count_nonzero(kept) > k * (kept.size // n):
            above = absw > kth
            tie = kept & ~above
            room = k - above.sum(axis=-1, keepdims=True)
            np.logical_or(above, tie & (np.cumsum(tie, axis=-1, dtype=np.int32) <= room),
                          out=kept)

    def again(b):
        w, grad = rebuild(b)
        m = mask[b]
        w *= m
        return w, lambda g, out: grad(np.multiply(g, m, out=g), out)

    return SignedGraph(graph.scores, lambda b: block(b) * mask[b], again, mask)


def gcn(window: T.Tensor, graph: SignedGraph, weight: T.Tensor) -> T.Tensor:
    """One signed graph convolution with residual: x + silu(G @ x_h @ W_h) per head.

    ``weight`` holds the (H, d_h, d_h) per-head transforms W_h. The head split
    of ``window`` stays a taped view; the convolution after it is one tape
    node with parents ``(graph.scores, x_h, weight)`` that keeps ``x_h``,
    ``W`` and ``graph.rebuild``, and no graph. Forward and backward run block
    by block into full-size outputs. The backward rebuilds each block of the
    graph, recomputes ``G @ x_h``, ``@ W_h`` and the sigmoid, takes the
    chain's derivative in that chain's own order, and hands the graph's
    gradient to the block's own backward into the scores'. It holds several
    graph-sized blocks at once, so its blocks are a quarter of the forward's.
    ``W``'s per-window gradients fill one full array, summed over the batch
    axes once.
    """
    d = window.shape[-1]
    scores = graph.scores
    heads = scores.shape[-3]
    if d % heads != 0:
        raise ConfigError(f"gcn heads ({heads}) must divide feature width ({d})")
    xh = split_heads(window, heads)  # (..., H, n, d_h)
    if scores.shape[:-2] != xh.shape[:-2]:
        raise ShapeError(f"gcn graph {scores.shape} does not fit head-split nodes {xh.shape}")
    rebuild, xd, wd, s_shape = graph.rebuild, xh.data, weight.data, scores.shape
    need_s, need_x, need_w = scores.requires_grad, xh.requires_grad, weight.requires_grad
    conv = np.empty(window.shape)
    conv_h = _split_heads(conv, heads)  # a view: each block's heads land merged in conv
    for b in _blocks(scores.data):
        conv_h[b] = T._silu(graph.block(b) @ xd[b] @ wd)
    blocks = _blocks(scores.data, 4)

    def _bw(g):
        g = _split_heads(g, heads)
        g_s = np.empty(s_shape) if need_s else None
        g_x = np.empty(xd.shape) if need_x else None
        g_w = np.empty(xd.shape[:-2] + wd.shape[-2:]) if need_w else None
        for b in blocks:
            gb, grad = rebuild(b)
            agg = gb @ xd[b]
            pre = agg @ wd
            g_pre = T._silu_grad(g[b], pre, T._sigmoid(pre))
            if need_w:
                np.matmul(np.swapaxes(agg, -1, -2), g_pre, out=g_w[b])
            g_agg = g_pre @ np.swapaxes(wd, -1, -2)
            if need_s:
                grad(g_agg @ np.swapaxes(xd[b], -1, -2), g_s[b])
            if need_x:
                np.matmul(np.swapaxes(gb, -1, -2), g_agg, out=g_x[b])
        return g_s, g_x, T._unbroadcast(g_w, wd.shape) if need_w else None

    return window + T._node(conv, (scores, xh, weight), _bw)


def pool_windows(gcn_out: T.Tensor, mode: str = "mean") -> T.Tensor:
    """All patches at once: (..., K, 2C, D) window outputs -> (..., C, N, D).

    Patch 0 comes from window 0, patch N-1 from window K-1, and every patch
    between from the two windows it sits in, by mean or max. One tape node
    that keeps, for max, which window won; its backward scatters each part
    of the gradient back where the slices of the pooled chain came from.
    """
    shape = gcn_out.shape
    k2, n2, d = shape[-3:]
    split = shape[:-2] + (n2 // 2, 2, d)
    e = gcn_out.data.reshape(split)  # (..., K, C, 2, D)
    first, last = e[..., :1, :, 0, :], e[..., k2 - 1 :, :, 1, :]
    a = e[..., : k2 - 1, :, 1, :]  # patches 1..N-2 sit in two windows each;
    b = e[..., 1:, :, 0, :]  # with a single window (N = 2) both are empty
    if mode == "mean":
        mid = (a + b) * 0.5
    else:
        mid, a_wins = np.maximum(a, b), a >= b
    stacked = np.concatenate([first, mid, last], axis=-3)  # (..., N, C, D)

    def _bw(g):
        g = np.swapaxes(g, -3, -2)  # (..., N, C, D)
        g_mid = g[..., 1 : k2, :, :]
        if mode == "mean":
            g_a = g_b = g_mid * 0.5
        else:
            wins = a_wins.astype(np.float64)
            g_a, g_b = g_mid * wins, g_mid * (1.0 - wins)
        out = np.zeros(split)
        out[..., :1, :, 0, :] += g[..., :1, :, :]
        out[..., 1:, :, 0, :] += g_b
        out[..., : k2 - 1, :, 1, :] += g_a
        out[..., k2 - 1 :, :, 1, :] += g[..., k2:, :, :]
        return (out.reshape(shape),)

    return T._node(np.swapaxes(stacked, -3, -2), (gcn_out,), _bw)  # (..., C, N, D)


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
    # The builder rebuilds its scores for the backward from the window and Q. Unnamed,
    # the scores and the graph are freed once the convolution returns.
    rebuild = rebuild_scores(nodes.data, p.q.data, p.heads)
    out = gcn(nodes, knn_sparsify(GRAPH_BUILDERS[p.graph_variant](
        signed_distance(nodes, p.q, p.heads), rebuild), k), p.gcn_weight)
    if p.mode == "local":
        return pool_windows(out, p.pool)
    if p.mode == "same_step":
        return T.swapaxes(out, -3, -2)
    return out.reshape(tokens.shape)
