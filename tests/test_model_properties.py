"""Whole-model properties: a window's forecast does not depend on its batch.

Each window runs through the same per-row arithmetic whatever else is in
its batch, so its forecast alone equals its row inside the batch, bit for
bit, with a tape and without. Through the backward, its gradient alone
matches the gradient of its row inside the batch up to the order in which
the weight gradients sum over windows. Configs and windows are drawn at
random over micro configs, derandomized, so a failure reproduces on every
run; 24 variables make the graph stages and the convolution's merged
backward run in more than one block.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seedcast import graph as G
from seedcast import tensor as T
from seedcast.model import VARIANTS, ModelConfig, SeedModel

PROPERTY = settings(derandomize=True, deadline=None, max_examples=30, database=None)
MICRO = dict(lookback=16, horizon=8, patch_len=4, d_model=8, heads=2, n_layers=2)
# Gradients of one window alone and inside a batch differ only in how the weight
# gradients group the windows' terms: at most 4.7e-15 of the largest entry over
# 60 random micro configs at one and two BLAS threads, so this allows 20 times that.
GRAD_RTOL = 1e-13


# At least 2 variables: with one, a lone window's output head is a (1, K) @ (K, T)
# product, which numpy hands to gemv instead of gemm, and its last bits differ.
@given(variant=st.sampled_from(VARIANTS), n_vars=st.integers(2, 24),
       batch=st.integers(2, 5), seed=st.integers(0, 2**16))
@example(variant="full", n_vars=24, batch=5, seed=0)
@example(variant="re_c2", n_vars=24, batch=4, seed=1)
@PROPERTY
def test_a_window_forecasts_alone_as_in_its_batch(variant, n_vars, batch, seed):
    rng = np.random.default_rng(seed)
    model = SeedModel(ModelConfig(**MICRO, n_vars=n_vars, variant=variant, seed=seed))
    for p in model.params():  # off the initial values, so every path carries signal
        p.data = p.data + rng.normal(scale=0.1, size=p.shape)
    x = rng.normal(size=(batch, n_vars, MICRO["lookback"]))
    row = int(rng.integers(batch))
    with T.no_grad():
        assert model.forward(x[row]).data.tobytes() == model.forward(x).data[row].tobytes()

    g = rng.normal(size=(n_vars, MICRO["horizon"]))
    alone = model.forward(x[row])
    alone.backward(g)
    want = {name: p.grad for name, p in model.named_params().items()}
    for p in model.params():
        p.zero_grad()
    inside = model.forward(x)
    assert alone.data.tobytes() == inside.data[row].tobytes()
    seed_grad = np.zeros(inside.shape)
    seed_grad[row] = g
    inside.backward(seed_grad)
    for name, p in model.named_params().items():
        if want[name] is None:
            assert p.grad is None, name
            continue
        scale = max(np.abs(want[name]).max(), 1e-300)
        assert np.abs(p.grad - want[name]).max() <= GRAD_RTOL * scale, name


def test_twenty_four_variables_run_the_graph_stages_in_blocks():
    # The examples above at 24 variables run the convolution's backward, and the
    # forward's graph stages at "global" layout, in more than one block.
    cfg = ModelConfig(**MICRO, n_vars=24)
    for mode, batch, parts in (("local", 5, 4), ("global", 4, 4)):
        graphs, nodes = G.node_layout(mode, 24, cfg.n_patches)
        assert len(G._blocks((batch, graphs, cfg.heads, nodes, nodes), parts)) > 1, mode
