"""Shared test tools: gradient checks, parameter builders, strided windows, tape sizes,
signed graphs as tensors, and the test-only helpers that left ``src/`` (parameter lists,
``detach``, persistence)."""

import numpy as np

from seedcast import graph as G
from seedcast import tensor as T
from seedcast import training as TR
from seedcast.attention import AttentionParams
from seedcast.errors import NumericError
from seedcast.spectral import autocovariance_biased


def grad_check(f, x: T.Tensor, eps: float = 1e-5) -> float:
    """Max relative disagreement between reverse-mode and central differences.

    Relative error per entry is |analytic - numeric| / max(1, |numeric|);
    returns the max over entries of x.
    """
    leaf = T.Tensor(x.data.copy(), requires_grad=True)
    return float(grad_check_many(lambda: f(leaf), [leaf], eps).max(initial=0.0))


def grad_check_many(f, tensors, eps: float = 1e-5) -> np.ndarray:
    """Per-entry relative errors for a scalar function of several tensors.

    ``f()`` must read the passed tensors by reference. Returns the
    concatenated array of relative errors across all entries. Raises
    NumericError when f is non-finite at the point or under a perturbation.
    """
    out = f()
    if not np.all(np.isfinite(out.data)):
        raise NumericError("grad_check: function returned non-finite output")
    out.backward()
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in tensors
    ]
    for t in tensors:
        t.zero_grad()

    errs = []
    with T.no_grad():
        for t, ana in zip(tensors, analytic):
            flat = t.data.reshape(-1)
            aflat = ana.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = float(f().data)
                flat[i] = orig - eps
                lo = float(f().data)
                flat[i] = orig
                if not (np.isfinite(hi) and np.isfinite(lo)):
                    raise NumericError("grad_check: non-finite output under perturbation")
                numeric = (hi - lo) / (2.0 * eps)
                errs.append(abs(aflat[i] - numeric) / max(1.0, abs(numeric)))
    return np.asarray(errs)


def count_params(model) -> int:
    return sum(p.size for p in model.params())


def param_tensors(params) -> list[T.Tensor]:
    """The tensors of an ``AttentionParams`` or ``SpatialParams``, in field order."""
    return [v for v in vars(params).values() if isinstance(v, T.Tensor)]


def detach(t: T.Tensor) -> T.Tensor:
    """``t``'s values as a new leaf that no gradient flows through."""
    return T.Tensor(t.data)


def persistence_report(split) -> TR.MetricsReport:
    """Repeat-last-value baseline: the weakest credible reference forecast."""
    y = np.ascontiguousarray(split.y)
    return TR._report(np.broadcast_to(split.x[..., -1:], y.shape) - y)


def wiener_khinchin_pair(x) -> tuple[np.ndarray, np.ndarray]:
    """DFT of the biased autocovariance vs. the periodogram, on a 2L grid.

    Both sides of the identity PSD = DFT(ACF), transformed by numpy: the
    autocovariance for lags 0..L-1 laid out circularly over 2L bins, and
    |DFT(zero-padded series)|^2 / L. Equal up to roundoff.
    """
    xc = np.asarray(x, dtype=np.float64) - np.mean(x)
    L = xc.shape[-1]
    cov = autocovariance_biased(x, L - 1)  # of x - mean(x), as xc
    lhs = np.fft.fft(np.concatenate([cov, [0.0], cov[:0:-1]])).real
    return lhs, np.abs(np.fft.fft(xc, 2 * L)) ** 2 / L


def attention_params(d_model, heads, rng=None, scale=None):
    rng = rng or np.random.default_rng(0)
    scale = scale if scale is not None else d_model**-0.5

    def w():
        return T.Tensor(rng.normal(size=(d_model, d_model)) * scale, requires_grad=True)

    def b():
        return T.Tensor(np.zeros(d_model), requires_grad=True)

    return AttentionParams(wq=w(), wk=w(), wv=w(), wo=w(), bq=b(), bv=b(), bo=b(), heads=heads)


def spatial_params(d, h, rng, variant="tanh", knn_k=None, mode="local"):
    d_h = d // h
    return G.SpatialParams(
        q=T.Tensor(rng.normal(size=(d_h, d_h)) / d_h, requires_grad=True),
        gcn_weight=T.Tensor(rng.normal(size=(h, d_h, d_h)) * d_h**-0.5, requires_grad=True),
        heads=h,
        graph_variant=variant,
        knn_k=knn_k,
        mode=mode,
    )


def strided_windows(n_windows, n_vars, length, seed=0):
    """Windows laid out as ``make_splits`` hands them out, and a contiguous copy.

    The first is a read-only (n_windows, n_vars, length) sliding-window view of
    one random-walk series; the second holds the same values C-contiguously.
    """
    series = np.random.default_rng(seed).normal(
        size=(n_windows + length - 1, n_vars)).cumsum(axis=0)
    view = np.lib.stride_tricks.sliding_window_view(series, length, axis=0)
    return view, np.ascontiguousarray(view)


def bare_scores(scores: T.Tensor) -> G.Scores:
    """A bare scores tensor as the graph stages keep scores: each block rebuilt from its
    data, whatever the window, and its gradient collected whole."""
    data = scores.data

    def sink():
        g_s = np.empty(data.shape)
        return (lambda b, g, _: g_s.__setitem__(b, g)), lambda xh_of: (g_s,)

    return G.Scores(data.shape, (scores,), lambda b, xh: (data[b].copy(), None), sink)


def build_graph(builder, scores: T.Tensor) -> G.SignedGraph:
    """``builder``'s graph over a bare scores tensor (``bare_scores``)."""
    return builder(scores, bare_scores(scores))


def weights_graph(weights: T.Tensor, mask=None) -> G.SignedGraph:
    """A graph whose weights are ``weights`` itself: they are its scores, read as they are."""
    data = weights.data
    return G.SignedGraph(bare_scores(weights), lambda b: data[b],
                         lambda b, s: (s, lambda g, out: np.copyto(out, g)), mask)


def graph_weights(graph: G.SignedGraph) -> T.Tensor:
    """``graph``'s weights as one taped tensor over its scores' links, from ``block`` and
    ``rebuild``.

    Its backward runs each rebuilt block's backward into the scores' sink, as
    ``gcn``'s does. It rebuilds the scores without a window, so they must be
    bare (``bare_scores``) for it to run.
    """
    scores, rebuild = graph.scores, graph.rebuild
    again, sink = scores.again, scores.sink
    blocks = G._blocks(scores.shape)
    data = np.empty(scores.shape)
    for b in blocks:
        data[b] = graph.block(b)

    def _bw(g):
        put, done = sink()
        for b in blocks:
            s_b, extra = again(b, None)
            g_b = g[b].copy()
            rebuild(b, s_b)[1](g_b, g_b)
            put(b, g_b, extra)
        return done(None)

    return T._node(data, scores.links, _bw)


def tape_arrays(out) -> list[np.ndarray]:
    """The distinct arrays that the tape behind ``out`` keeps alive.

    Walks the tape nodes from ``out``'s node. At each node it takes every
    array in its backward closure's cells, following closures nested in them,
    and the data of each leaf the node links to; a Tensor found in a cell
    counts with its data and its node. ``out``'s own data is the caller's, not
    the tape's. Views count as their base array, and each base array counts
    once. Call it before ``backward()``, which releases the tape.
    """
    bases, seen, stack = {}, {}, [out._node]
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen[id(obj)] = obj  # keeps obj alive, so its id is not reused mid-walk
        if isinstance(obj, T._Node):
            stack += [obj.backward, *obj.parents]
        elif isinstance(obj, T.Tensor):
            stack += [obj.data, obj._node]
        elif isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            bases[id(obj)] = obj
        elif isinstance(obj, (tuple, list)):
            stack += obj
        elif callable(obj):
            for cell in getattr(obj, "__closure__", None) or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # a cell not yet filled
                    pass
    return list(bases.values())


def tape_bytes(out) -> int:
    """Bytes of the distinct arrays that the tape behind ``out`` keeps alive (``tape_arrays``)."""
    return sum(a.nbytes for a in tape_arrays(out))
