"""Shared parameter builders for attention/graph tests, and strided test windows."""

import numpy as np

from seedcast import graph as G
from seedcast import tensor as T
from seedcast.attention import AttentionParams


def attention_params(d_model, heads, rng=None, scale=None):
    rng = rng or np.random.default_rng(0)
    scale = scale if scale is not None else d_model**-0.5

    def w():
        return T.Tensor(rng.normal(size=(d_model, d_model)) * scale, requires_grad=True)

    def b():
        return T.Tensor(np.zeros(d_model), requires_grad=True)

    return AttentionParams(wq=w(), wk=w(), wv=w(), wo=w(),
                           bq=b(), bk=b(), bv=b(), bo=b(), heads=heads)


def spatial_params(d, h, rng, variant="tanh", knn_k=None, mode="local"):
    d_h = d // h
    return G.SpatialParams(
        distance=G.DistanceParams(T.Tensor(rng.normal(size=(d_h, d_h)) / d_h,
                                           requires_grad=True)),
        gcn=G.GcnParams(T.Tensor(rng.normal(size=(h, d_h, d_h)) * d_h**-0.5,
                                 requires_grad=True)),
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
