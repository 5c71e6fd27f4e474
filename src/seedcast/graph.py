"""Context spatial extraction: signed graphs over local spatio-temporal windows.

Adjacent patch pairs of all variables form local windows of 2C nodes. A
learnable bilinear distance scores every node pair per head; scores become
signed edge weights (softmax- or tanh-normalized, sign preserved, unlike a
plain softmax which erases negative correlation), get KNN-sparsified by
magnitude, drive a one-layer graph convolution, and the two views of each
patch are pooled back onto the patch grid.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import _merge_heads, _split_heads, split_heads
from .errors import ConfigError, ShapeError

@dataclass
class Scores:
    """What the graph stages keep of a graph's scores instead of the scores.

    ``again(b, xh)``: block ``b`` of them, rebuilt from that block of the
    head-split window ``gcn`` convolves, and what ``sink`` reads besides.
    ``sink()``: a new ``(put, done)``; ``put(b, g, extra)`` takes block ``b``
    of their gradient, and ``done(xh_of)`` gives one per tensor of ``links``,
    reading block ``b`` of the head-split window again as ``xh_of(b)``.
    """

    shape: tuple[int, ...]
    links: tuple[T.Tensor, ...]
    again: Callable[[slice, np.ndarray], tuple[np.ndarray, object]]
    sink: Callable[[], tuple[Callable, Callable]]


@dataclass
class SignedGraph:
    """Per-head signed adjacency (..., H, n, n), one block of its leading axis at a time.

    A block is a slice of the leading axis (see ``_blocks``); masked entries
    are exactly zero. ``block(b)`` reads block ``b`` of the weights in the
    forward. ``rebuild(b, s)`` builds it again as a new array, bit for bit,
    from that block ``s`` of the scores, with ``grad(g, out)``: the map from
    its gradient ``g``, which it may overwrite, to the scores' in ``out``
    (which may be ``g``). No tape node keeps a graph or its scores: ``gcn``'s
    node links to what the scores were made from.
    """

    scores: Scores
    block: Callable[[slice], np.ndarray]
    rebuild: Callable[[slice, np.ndarray], tuple[np.ndarray, Callable]]
    mask: np.ndarray | None = None  # bool retention mask once KNN-sparsified


def _blocks(shape: tuple[int, ...], parts: int = 1) -> list[slice]:
    """Slices of a (..., H, n, n) graph's first axis, each ``tensor._BLOCK_BYTES / parts`` of it.

    The graph stages run block by block into full-size outputs, so their
    temporaries stay in cache and small beside the tape. A graph without axes
    before its heads is one block; the last block may be shorter.
    """
    if len(shape) < 4:
        return [slice(None)]
    rows = shape[0]
    step = max(1, T._BLOCK_BYTES * rows // (parts * max(8 * math.prod(shape), 1)))
    return [slice(i, i + step) for i in range(0, max(rows, 1), step)]


def default_knn_k(n: int) -> int:
    """Edges kept per node without ``knn_k``: half of n rounded up, at least 2, at most n."""
    return min(n, max(2, -(-n // 2)))


def _pair(x: np.ndarray) -> np.ndarray:
    """``make_windows`` on an array: (..., C, N, D) -> (..., N-1, 2C, D), a new array."""
    c, n, d = x.shape[-3:]
    lead = x.shape[:-3]
    paired = np.empty(lead + (n - 1, c, 2, d))
    paired[..., 0, :] = np.swapaxes(x[..., :, : n - 1, :], -3, -2)
    paired[..., 1, :] = np.swapaxes(x[..., :, 1:, :], -3, -2)
    return paired.reshape(lead + (n - 1, 2 * c, d))


def make_windows(tokens: T.Tensor) -> T.Tensor:
    """(..., C, N, D) -> (..., N-1, 2C, D): stride-1 windows of 2 adjacent patches.

    Node order inside window k is [var0@k, var0@k+1, var1@k, var1@k+1, ...].
    One tape node with parents ``(tokens, tokens)``: it returns the gradients
    of the earlier and the later patch of each pair separately, so
    ``backward()`` adds them to the tokens' other gradients one at a time,
    in the order of the slice chain it replaces. One summed gradient would
    round differently. No node keeps the windows: ``gcn`` rebuilds a block
    ``b`` of them from ``tokens[b]`` with ``_pair``.
    """
    x = tokens.data
    c, n, d = x.shape[-3:]
    if n < 2:
        raise ConfigError(f"need at least 2 patches for local windows, got {n}")
    shape, lead = x.shape, x.shape[:-3]

    def _bw(g):
        g = np.swapaxes(g.reshape(lead + (n - 1, c, 2, d)), -4, -3)  # (..., C, K, 2, D)
        g_prev, g_next = np.zeros(shape), np.zeros(shape)
        g_prev[..., : n - 1, :] += g[..., 0, :]
        g_next[..., 1:, :] += g[..., 1, :]
        return g_prev, g_next

    return T._node(_pair(x), (tokens, tokens), _bw)


def signed_distance(window: T.Tensor, q: T.Tensor, heads: int) -> T.Tensor:
    """Bilinear scores s_ij = x_i Q x_j^T per head: (..., n, D) -> (..., H, n, n).

    The (d_h, d_h) form Q is shared across heads and unconstrained, so the
    scores (and the graph) are generally asymmetric. The heads split D evenly.
    One tape node that keeps the window and Q; its backward runs the
    derivative that ``rebuild_scores`` hands the graph stages, block by block.
    """
    d = window.shape[-1]
    if d % heads != 0:
        raise ConfigError(f"graph heads ({heads}) must divide feature width ({d})")
    d_h = d // heads
    if q.shape[-1] != d_h or q.shape[-2] != d_h:
        raise ShapeError(f"distance form is {q.shape}, expected trailing ({d_h}, {d_h})")
    xh, qd = _split_heads(window.data, heads), q.data  # (..., H, n, d_h)
    sink = rebuild_scores(window, q, heads).sink

    def _bw(g):
        put, done = sink()
        for b in _blocks(g.shape, 4):
            put(b, g[b], (xh[b], _project(xh[b], qd)))
        return done(xh.__getitem__)

    return T._node(_project(xh, qd) @ np.swapaxes(xh, -1, -2), (window, q), _bw)


def _project(xh: np.ndarray, q: np.ndarray) -> np.ndarray:
    """x_h Q, one 2-D product over the collapsed batch axes."""
    return (xh.reshape(-1, q.shape[-1]) @ q).reshape(xh.shape)


def rebuild_scores(window: T.Tensor, q: T.Tensor, heads: int) -> Scores:
    """``signed_distance(window, q, heads)``'s scores as the graph stages keep them.

    ``again`` rebuilds a block with the same two products, so the same bits.
    ``sink`` takes the distance's derivative one block at a time: ``g @ x_h``
    into a window-sized array, and the window's gradient, the right-hand term
    ``g^T (x_h Q)`` plus the left-hand ``(g @ x_h) Q^T``; then Q's as one
    product over every block, reading the window's blocks again. Those are
    the whole-array derivative's products and sums, so the same bits.
    """
    w_shape, d_h = window.shape, window.shape[-1] // heads
    shape = w_shape[:-2] + (heads, w_shape[-2], d_h)  # the head-split window's
    qd, need_x, need_q = q.data, window.requires_grad, q.requires_grad

    def again(b, xh):
        xq = _project(xh, qd)
        return xq @ np.swapaxes(xh, -1, -2), (xh, xq)

    def sink():
        g_xq, blocks = np.empty(shape), []
        g_win = np.empty(w_shape) if need_x else None

        def put(b, g, extra):
            xh, xq = extra
            blocks.append(b)
            np.matmul(g, xh, out=g_xq[b])
            if need_x:  # x_h feeds both factors: the left one's gradient, plus the right one's
                left = _project(g_xq[b], qd.T)
                left += np.swapaxes(np.swapaxes(xq, -1, -2) @ g, -1, -2)
                _split_heads(g_win, heads)[b] = left  # lands merged

        def done(xh_of):
            if not need_q:
                return g_win, None
            x2 = np.empty(shape)  # x_h again, for Q's gradient as one product
            for b in blocks:
                x2[b] = xh_of(b)
            return g_win, x2.reshape(-1, d_h).T @ g_xq.reshape(-1, d_h)

        return put, done

    return Scores(shape[:-1] + (w_shape[-2],), (window, q), again, sink)


# The graph builders compute their weights block by block for the forward and
# keep only per-row values; ``rebuild(b, s)`` works in a new block ``s`` of the
# scores, which it may overwrite. Each rebuilt block's backward takes the
# derivative of the builder's op chain in that chain's own order.


def _sign_soft(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sign(s), with sign(0) = +, and the row softmax of |s|."""
    sign = np.where(s >= 0.0, 1.0, -1.0)
    return sign, T._softmax(s * sign)


def sign_softmax_graph(scores: T.Tensor, source: Scores) -> SignedGraph:
    """Row softmax over |s|, re-signed by sign(s); sign(0) counts as +."""
    s = scores.data
    w = np.empty(s.shape)
    for b in _blocks(s.shape):
        sign, soft = _sign_soft(s[b])
        np.multiply(soft, sign, out=w[b])

    def again(b, s_b):
        sign, soft = _sign_soft(s_b)
        return soft * sign, lambda g, out: np.multiply(
            T._softmax_grad(soft, g * sign, out=out), sign, out=out)

    return SignedGraph(source, lambda b: w[b], again)


def tanh_l1_graph(scores: T.Tensor, source: Scores) -> SignedGraph:
    """tanh(s) normalized by the row L1 norm; all-zero rows stay all-zero.

    Keeps the row norms. The rebuilt block's backward runs in its output and
    one scratch block.
    """
    s = scores.data
    w, denom = np.empty(s.shape), np.empty(s.shape[:-1] + (1,))
    for b in _blocks(s.shape):
        th, d = np.tanh(s[b], out=w[b]), denom[b]
        np.abs(th).sum(axis=-1, keepdims=True, out=d)
        d += d == 0.0  # an all-zero row divides by 1
        th /= d

    def again(b, s_b):
        d = denom[b]
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

    return SignedGraph(source, lambda b: w[b], again)


def plain_softmax_graph(scores: T.Tensor, source: Scores) -> SignedGraph:
    """Ordinary softmax on raw scores: nonnegative weights, signs erased."""
    s = scores.data
    w = np.empty(s.shape)
    for b in _blocks(s.shape):
        w[b] = T._softmax(s[b])

    def again(b, s_b):
        soft = T._softmax(s_b)
        return soft.copy(), lambda g, out: T._softmax_grad(soft, g, out=out)

    return SignedGraph(source, lambda b: w[b], again)


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
    shape = graph.scores.shape
    n = shape[-1]
    if not 1 <= k <= n:
        raise ConfigError(f"knn k must be in [1, {n}], got {k}")
    block, rebuild = graph.block, graph.rebuild
    mask = np.empty(shape, dtype=bool)
    idx = np.arange(n)
    for b in _blocks(shape):
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

    def again(b, s_b):
        w, grad = rebuild(b, s_b)
        m = mask[b]
        w *= m
        return w, lambda g, out: grad(np.multiply(g, m, out=g), out)

    return SignedGraph(graph.scores, lambda b: block(b) * mask[b], again, mask)


def gcn(window: T.Tensor, graph: SignedGraph, weight: T.Tensor,
        tokens: T.Tensor | None = None) -> T.Tensor:
    """One signed graph convolution with residual: x + silu(G @ x_h @ W_h) per head.

    ``weight`` holds the (H, d_h, d_h) per-head transforms W_h. The head split
    of ``window`` stays a taped view; the convolution after it is one tape
    node with parents ``(*graph.scores.links, x_h, weight)`` that keeps W and
    the window, or the tokens where ``window`` is ``make_windows(tokens)``.
    Forward and backward run block by block into full-size outputs. Per
    block, the backward rebuilds the window, the scores and the graph from
    it, recomputes ``G @ x_h``, ``@ W_h`` and the sigmoid, takes the chain's
    derivative in that chain's own order, and puts the scores' gradient in
    their sink. It holds several graph-sized blocks at once, so its blocks
    are a quarter of the forward's. ``W``'s per-window gradients fill one
    full array, summed over the batch axes once.
    """
    d = window.shape[-1]
    shape = graph.scores.shape
    heads = shape[-3]
    if d % heads != 0:
        raise ConfigError(f"gcn heads ({heads}) must divide feature width ({d})")
    xh = split_heads(window, heads)  # (..., H, n, d_h)
    if shape[:-2] != xh.shape[:-2]:
        raise ShapeError(f"gcn graph {shape} does not fit head-split nodes {xh.shape}")
    paired = tokens is not None
    src = tokens.data if paired else window.data
    again, sink, rebuild = graph.scores.again, graph.scores.sink, graph.rebuild
    xd, wd, w_shape = xh.data, weight.data, window.shape
    need_x, need_w = xh.requires_grad, weight.requires_grad
    conv = np.empty(window.shape)
    conv_h = _split_heads(conv, heads)  # a view: each block's heads land merged in conv
    for b in _blocks(shape):
        conv_h[b] = T._silu(graph.block(b) @ xd[b] @ wd)
    blocks = _blocks(shape, 4)

    def nodes(b):  # block b of the head-split window, rebuilt
        return _split_heads(_pair(src[b]) if paired else src[b], heads)

    def _bw(g):
        g = _split_heads(g, heads)
        put, done = sink()
        g_x = _split_heads(np.empty(w_shape), heads) if need_x else None  # lands merged
        g_w = np.empty(g.shape[:-2] + wd.shape[-2:]) if need_w else None
        for b in blocks:
            x_b = nodes(b)
            s_b, extra = again(b, x_b)
            gb, grad = rebuild(b, s_b)
            agg = gb @ x_b
            pre = agg @ wd
            g_pre = T._silu_grad(g[b], pre, T._sigmoid(pre))
            if need_w:
                np.matmul(np.swapaxes(agg, -1, -2), g_pre, out=g_w[b])
            g_agg = g_pre @ np.swapaxes(wd, -1, -2)
            g_s = g_agg @ np.swapaxes(x_b, -1, -2)
            grad(g_s, g_s)
            put(b, g_s, extra)
            if need_x:
                g_x[b] = np.swapaxes(gb, -1, -2) @ g_agg
        g_w = T._unbroadcast(g_w, wd.shape) if need_w else None  # frees the per-window array
        return *done(nodes), g_x, g_w

    return window + T._node(conv, (*graph.scores.links, xh, weight), _bw)


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
    # Unnamed, the scores are freed once the builder returns, and the graph once the
    # convolution does; the convolution rebuilds local windows from the tokens.
    out = gcn(nodes, knn_sparsify(GRAPH_BUILDERS[p.graph_variant](
        signed_distance(nodes, p.q, p.heads), rebuild_scores(nodes, p.q, p.heads)), k),
        p.gcn_weight, tokens if p.mode == "local" else None)
    if p.mode == "local":
        return pool_windows(out, p.pool)
    if p.mode == "same_step":
        return T.swapaxes(out, -3, -2)
    return out.reshape(tokens.shape)
