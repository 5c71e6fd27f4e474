"""Shared parameter builders for attention/graph tests, strided test windows, tape sizes."""

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


def tape_bytes(out) -> int:
    """Bytes of the distinct arrays that the tape behind ``out`` keeps alive.

    Walks the tape nodes from ``out``'s node. At each node it counts every
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
    return sum(a.nbytes for a in bases.values())
