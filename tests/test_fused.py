"""Fused ops against the op chains they replaced (tests/oracles.py).

``linear``, ``layer_norm``, ``temporal_attention``, ``gcn``,
``feed_forward``, ``make_windows``, ``signed_distance`` and ``pool_windows``
each build one tape node with a hand-written backward; the graph builders
and ``knn_sparsify`` hand ``gcn``'s node a per-block backward instead
(``graph_weights`` tapes it here). Their values and gradients must match
the chains bit for bit, their gradients must pass a finite-difference check,
their nodes must hang directly off their inputs, and they must keep fewer
arrays on the tape than the chains did. The graph stages, which run in
blocks of the batch, must give the same bits in several blocks as in one.
"""

import tracemalloc

import numpy as np
import pytest

import oracles
from seedcast import attention as A
from seedcast import data as D
from seedcast import graph as G
from seedcast import model as M
from seedcast import tensor as T
from seedcast import training as TR
from seedcast.errors import ShapeError
from seedcast.model import VARIANTS, ModelConfig, SeedModel
from tests_helpers import (build_graph, grad_check_many, graph_weights, spatial_params,
                           tape_arrays, tape_bytes, weights_graph)


def _run(op, arrays, seed):
    """``op`` on fresh leaves made from ``arrays``: (output data, leaf gradients) after
    a backward seeded with ``seed``."""
    leaves = [T.Tensor(np.array(a, dtype=float), requires_grad=True) for a in arrays]
    out = op(*leaves)
    out.backward(seed)
    return out.data, [leaf.grad for leaf in leaves]


def assert_matches_oracle(fused, oracle, arrays, rng):
    shape = fused(*[T.Tensor(a) for a in arrays]).shape
    seed = rng.normal(size=shape)
    got, got_grads = _run(fused, arrays, seed)
    want, want_grads = _run(oracle, arrays, seed)
    np.testing.assert_array_equal(got, want)
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_array_equal(g, w)


def assert_grad_checks(op, arrays, rng):
    leaves = [T.Tensor(np.array(a, dtype=float), requires_grad=True) for a in arrays]
    weights = T.Tensor(rng.normal(size=op(*leaves).shape))
    errs = grad_check_many(lambda: (op(*leaves) * weights).sum(), leaves)
    assert errs.max() < 1e-6


def _knn(k):
    return lambda w: graph_weights(G.knn_sparsify(weights_graph(w), k))


def _knn_oracle(k):
    return lambda w: graph_weights(oracles.knn_sparsify(weights_graph(w), k))


def _tanh_knn(k):
    return lambda s: graph_weights(G.knn_sparsify(build_graph(G.tanh_l1_graph, s), k))


def _tanh_knn_oracle(k):
    return lambda s: graph_weights(oracles.knn_sparsify(oracles.tanh_l1_graph(s), k))


# Builder name -> (builder, the chain it replaced).
BUILDERS = {name: (builder, getattr(oracles, builder.__name__))
            for name, builder in G.GRAPH_BUILDERS.items()}


def _built(name, k=None, oracle=False):
    """Builder ``name``'s weights over some scores, KNN-sparsified when ``k`` is given."""
    fused, chain = BUILDERS[name]

    def op(s):
        graph = chain(s) if oracle else build_graph(fused, s)
        if k is not None:
            graph = (oracles.knn_sparsify if oracle else G.knn_sparsify)(graph, k)
        return graph_weights(graph)

    return op


def _built_gcn(name, k, oracle=False):
    """``gcn`` over builder ``name``'s KNN-sparsified graph of its scores: (window, scores, W)."""
    fused, chain = BUILDERS[name]
    if oracle:
        return lambda x, s, w: oracles.gcn(x, oracles.knn_sparsify(chain(s), k), w)
    return lambda x, s, w: G.gcn(x, G.knn_sparsify(build_graph(fused, s), k), w)


class TestLinear:
    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((5, 3), (3, 4), (4,)),
        ((2, 5, 3), (3, 4), (4,)),
        ((2, 5, 3), (3, 4), (1, 4)),
        ((2, 5, 3), (3, 4), (5, 4)),
        ((2, 5, 3), (3, 4), (2, 1, 4)),
        ((2, 3, 5, 6), (6, 1), (1,)),  # re_f3's fusion map: one output, one bias
    ])
    def test_matches_oracle_and_grad_checks(self, x_shape, w_shape, b_shape):
        rng = np.random.default_rng(0)
        arrays = [rng.normal(size=s) for s in (x_shape, w_shape, b_shape)]
        assert_matches_oracle(T.linear, oracles.linear, arrays, rng)
        assert_grad_checks(T.linear, arrays, rng)

    def test_constant_input(self):
        rng = np.random.default_rng(1)
        x = T.Tensor(rng.normal(size=(4, 3)))
        w, b = (T.Tensor(rng.normal(size=s), requires_grad=True) for s in ((3, 2), (2,)))
        out = T.linear(x, w, b)
        out.backward(np.ones(out.shape))
        assert x.grad is None
        np.testing.assert_array_equal(w.grad, x.data.T @ np.ones((4, 2)))
        np.testing.assert_array_equal(b.grad, np.full(2, 4.0))

    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((2, 3), (4, 2), (2,)),  # inner dimensions disagree
        ((3,), (3, 2), (2,)),  # 1-D input
        ((2, 3), (2, 3, 2), (2,)),  # batched weight
        ((2, 3), (3, 2), (3,)),  # bias does not broadcast
        ((2, 3), (3, 2), (4, 2, 2)),  # bias widens the output
    ])
    def test_bad_shapes(self, x_shape, w_shape, b_shape):
        with pytest.raises(ShapeError):
            T.linear(*(T.Tensor(np.zeros(s)) for s in (x_shape, w_shape, b_shape)))


class TestLayerNorm:
    @pytest.mark.parametrize("x_shape, p_shape", [
        ((4, 6), (6,)), ((2, 3, 5, 8), (8,)), ((2, 3, 8), (3, 8)), ((2, 3, 8), (1, 1, 8)),
    ])
    def test_matches_oracle_and_grad_checks(self, x_shape, p_shape):
        rng = np.random.default_rng(2)
        arrays = [rng.normal(size=x_shape), rng.normal(size=p_shape), rng.normal(size=p_shape)]
        assert_matches_oracle(M.layer_norm, oracles.layer_norm, arrays, rng)
        assert_grad_checks(M.layer_norm, arrays, rng)

    def test_constant_rows(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 4, 6))
        x[1] = 2.5  # zero variance: the std is sqrt(eps)
        arrays = [x, rng.normal(size=6), rng.normal(size=6)]
        assert_matches_oracle(M.layer_norm, oracles.layer_norm, arrays, rng)
        assert_grad_checks(M.layer_norm, arrays, rng)


class TestTanhL1Graph:
    def test_matches_oracle_and_grad_checks(self):
        rng = np.random.default_rng(4)
        arrays = [rng.normal(size=(2, 3, 6, 6)) * 2]
        assert_matches_oracle(_built("tanh"), _built("tanh", oracle=True), arrays, rng)
        assert_grad_checks(_built("tanh"), arrays, rng)

    def test_all_zero_rows_match_oracle(self):
        rng = np.random.default_rng(5)
        s = rng.normal(size=(2, 5, 5))
        s[0, 2] = 0.0
        s[1] = 0.0
        assert_matches_oracle(_built("tanh"), _built("tanh", oracle=True), [s], rng)
        assert np.all(_built("tanh")(T.Tensor(s)).data[1] == 0.0)


class TestEveryBuilder:
    """Each builder, alone, through KNN and through the convolution, against its chain."""

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_matches_oracle_and_grad_checks(self, name):
        rng = np.random.default_rng(22)
        s = rng.normal(size=(2, 3, 6, 6)) * 2
        assert_grad_checks(_built(name, 3), [s], rng)
        s[0, 1, 2] = 0.0  # an all-zero row, and zero scores in the softmax signs
        for k in (None, 1, 3, 6):
            assert_matches_oracle(_built(name, k), _built(name, k, oracle=True), [s], rng)

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_through_gcn_matches_oracle_and_grad_checks(self, name):
        rng = np.random.default_rng(23)
        arrays = [rng.normal(size=(2, 3, 6, 4)), rng.normal(size=(2, 3, 2, 6, 6)) * 2,
                  rng.normal(size=(2, 2, 2))]
        for k in (2, 6):
            assert_matches_oracle(_built_gcn(name, k), _built_gcn(name, k, oracle=True),
                                  arrays, rng)
        assert_grad_checks(_built_gcn(name, 3), arrays, rng)


class TestKnnSparsify:
    def test_matches_oracle_and_grad_checks(self):
        rng = np.random.default_rng(6)
        arrays = [rng.normal(size=(2, 3, 8, 8))]
        for k in (1, 3, 8):
            assert_matches_oracle(_knn(k), _knn_oracle(k), arrays, rng)
            assert_grad_checks(_knn(k), arrays, rng)

    @pytest.mark.parametrize("decimals", [1, 0])
    def test_ties_at_the_kth_value(self, decimals):
        # Rounding fills rows with ties; some fit in the room left above the
        # k-th value, others need the tie fill, which then runs for the call.
        rng = np.random.default_rng(7)
        w = np.round(rng.normal(size=(3, 4, 10, 10)), decimals)
        for k in (2, 4, 7):
            np.testing.assert_array_equal(G.knn_sparsify(weights_graph(T.Tensor(w)), k).mask,
                                          oracles.knn_mask(w, k))
            assert_matches_oracle(_knn(k), _knn_oracle(k), [w], rng)

    def test_ties_that_fit_are_all_kept(self):
        # Every row ties at its k-th value with exactly as many entries as it
        # has room for, so the tie fill never runs.
        w = np.array([[[0.9, 0.5, 0.5, 0.1],
                       [0.5, 0.9, 0.1, 0.5],
                       [0.3, 0.3, 0.9, 0.1],
                       [0.1, 0.2, 0.2, 0.9]]])
        mask = G.knn_sparsify(weights_graph(T.Tensor(w)), 3).mask
        np.testing.assert_array_equal(mask, oracles.knn_mask(w, 3))
        assert mask.sum(axis=-1).tolist() == [[3, 3, 3, 3]]

    def test_nan_scores_rank_last(self):
        rng = np.random.default_rng(8)
        s = rng.normal(size=(2, 7, 7))
        s[0, 1, [0, 4]] = np.nan  # a NaN score turns its whole tanh-L1 row NaN
        w = rng.normal(size=(2, 7, 7))
        w[1, 3, [2, 5]] = np.nan
        for k in (2, 5):
            assert_matches_oracle(_tanh_knn(k), _tanh_knn_oracle(k), [s], rng)
            assert_matches_oracle(_knn(k), _knn_oracle(k), [w], rng)
            np.testing.assert_array_equal(G.knn_sparsify(weights_graph(T.Tensor(w)), k).mask,
                                          oracles.knn_mask(w, k))

    def test_tanh_then_knn_grad_checks(self):
        rng = np.random.default_rng(9)
        assert_grad_checks(_tanh_knn(3), [rng.normal(size=(2, 6, 6))], rng)


class TestRebuild:
    """``SignedGraph.rebuild(block, scores)`` gives back that block of the weights bit for
    bit, whatever built them, and ``rebuild_scores`` that block of the scores."""

    BLOCKS = (slice(None), slice(0, 1), slice(1, 3), slice(2, 3))

    @pytest.mark.parametrize("builder", sorted(G.GRAPH_BUILDERS))
    def test_every_builder_then_knn(self, builder):
        rng = np.random.default_rng(16)
        s = rng.normal(size=(3, 3, 9, 9))
        s[0, 1, 2] = 0.0  # an all-zero row, and zero scores in the softmax signs
        graph = build_graph(G.GRAPH_BUILDERS[builder], T.Tensor(s, requires_grad=True))
        for k in (None, 1, 4, 9):
            sparse = graph if k is None else G.knn_sparsify(graph, k)
            for block in self.BLOCKS:
                assert (sparse.rebuild(block, s[block].copy())[0].tobytes()
                        == sparse.block(block).tobytes()), (k, block)

    @pytest.mark.parametrize("n_vars", [8, 21])
    @pytest.mark.parametrize("windows", [1, 2, 3])
    def test_score_blocks_equal_the_distance(self, n_vars, windows):
        # At the default width and heads, over make_windows' output as the model has it:
        # each block of 1, 2 or 3 windows of five batches is rebuilt byte for byte, from
        # its block of the tokens, as gcn rebuilds it.
        rng = np.random.default_rng(24)
        cfg = ModelConfig(n_vars=n_vars)
        tokens = rng.normal(size=(5, n_vars, cfg.n_patches, cfg.d_model))
        window = G.make_windows(T.Tensor(tokens))
        q = T.Tensor(rng.normal(size=(cfg.d_model // cfg.heads,) * 2) / 4)
        scores = G.signed_distance(window, q, cfg.heads).data
        again = G.rebuild_scores(window, q, cfg.heads).again
        for lo in range(0, 5, windows):
            block = slice(lo, lo + windows)
            xh = A._split_heads(G._pair(tokens[block]), cfg.heads)
            assert again(block, xh)[0].tobytes() == scores[block].tobytes(), block


def _window_graph_shape(mode, n_vars, n_patches, heads):
    """The shape of one window's graphs in spatial ``mode``: (graphs, H, nodes, nodes)."""
    graphs, nodes = G.node_layout(mode, n_vars, n_patches)
    return (graphs, heads, nodes, nodes)


class TestBlocks:
    """The graph stages give the same bits in blocks as in one block.

    The block budget is patched down to two windows' graphs, so a batch of
    five windows runs in blocks of 2, 2 and 1 (for the convolution's backward,
    whose blocks are a quarter of the budget, to eight windows' graphs).
    """

    B, C, N, D, H = 5, 3, 4, 8, 2

    def _step(self, tokens, p):
        """Output and every gradient of one spatial pathway, as bytes."""
        x = T.Tensor(tokens, requires_grad=True)
        p.q.zero_grad()
        p.gcn_weight.zero_grad()
        out = G.context_spatial_extract(x, p)
        out.backward(np.random.default_rng(1).normal(size=out.shape))
        return [a.tobytes() for a in (out.data, x.grad, p.q.grad, p.gcn_weight.grad)]

    @pytest.mark.parametrize("case", ["default_k", "knn_k_3", "ties", "nan"])
    @pytest.mark.parametrize("mode", ["local", "same_step", "global"])
    @pytest.mark.parametrize("builder", sorted(G.GRAPH_BUILDERS))
    def test_spatial_pathway(self, builder, mode, case, monkeypatch):
        rng = np.random.default_rng(21)
        tokens = rng.normal(size=(self.B, self.C, self.N, self.D))
        p = spatial_params(self.D, self.H, rng, variant=builder, mode=mode,
                           knn_k={"knn_k_3": 3, "ties": 2}.get(case))
        if case == "ties":
            # Integer scores: many rows tie at their k-th largest |weight|.
            tokens = np.round(tokens * 1.5)
            p.q = T.Tensor(np.eye(self.D // self.H), requires_grad=True)
        if case == "nan":
            tokens[1, 2, 3, 4] = np.nan  # NaN scores in every graph that holds this token
        window_graph = _window_graph_shape(mode, self.C, self.N, self.H)

        seen, knn = [], G.knn_sparsify

        def spy(graph, k):  # keeps the graph KNN sees, to check that its ties are there
            seen.append((graph_weights(graph).data, k))
            return knn(graph, k)

        monkeypatch.setattr(G, "knn_sparsify", spy)
        monkeypatch.setattr(T, "_BLOCK_BYTES", 1 << 40)
        whole = self._step(tokens, p)
        monkeypatch.setattr(T, "_BLOCK_BYTES", 2 * 8 * int(np.prod(window_graph)))
        assert len(G._blocks((self.B,) + window_graph)) == 3
        assert self._step(tokens, p) == whole
        if case == "ties" and mode != "global":
            w, k = seen[0]
            n = w.shape[-1]
            absw = np.abs(w)
            absw[..., np.arange(n), np.arange(n)] = np.inf  # the self-edge ranks first
            absw.sort(axis=-1)
            assert np.any(absw[..., n - k] == absw[..., n - k - 1])  # a tie at the k-th


    @pytest.mark.parametrize("mode", ["local", "same_step", "global"])
    @pytest.mark.parametrize("builder", sorted(G.GRAPH_BUILDERS))
    def test_merged_backward(self, builder, mode, monkeypatch):
        # The convolution's node takes the distance's derivative over, block by
        # block: the window's, Q's, the head split's and W's gradients it returns
        # are the same bytes in blocks of 2, 2 and 1 windows as in one block.
        rng = np.random.default_rng(34)
        tokens = T.Tensor(rng.normal(size=(self.B, self.C, self.N, self.D)), requires_grad=True)
        p = spatial_params(self.D, self.H, rng, variant=builder, mode=mode)
        window_graph = _window_graph_shape(mode, self.C, self.N, self.H)
        convs, gcn = [], G.gcn

        def spy(*args):  # keeps the convolution's node: the residual sum's second parent
            out = gcn(*args)
            convs.append((out._node.parents[1], out.shape))
            return out

        monkeypatch.setattr(G, "gcn", spy)

        def grads(budget):
            monkeypatch.setattr(T, "_BLOCK_BYTES", budget)
            G.context_spatial_extract(tokens, p)
            conv, shape = convs.pop()
            g = np.random.default_rng(1).normal(size=shape)
            return [a.tobytes() for a in conv.backward(g)]

        whole = grads(1 << 40)
        split = grads(4 * 2 * 8 * int(np.prod(window_graph)))
        assert len(G._blocks((self.B,) + window_graph, 4)) == 3
        assert len(whole) == 4 and split == whole


class TestSpatialLayout:
    @pytest.mark.parametrize("shape", [(3, 4, 5), (2, 3, 6, 4), (2, 2, 1, 2, 3)])
    def test_make_windows_matches_oracle_and_grad_checks(self, shape):
        rng = np.random.default_rng(17)
        arrays = [rng.normal(size=shape)]
        assert_matches_oracle(G.make_windows, oracles.make_windows, arrays, rng)
        assert_grad_checks(G.make_windows, arrays, rng)

    @pytest.mark.parametrize("window_shape, heads",
                             [((2, 3, 6, 4), 2), ((5, 8), 1), ((3, 4, 6), 3)])
    def test_signed_distance_matches_oracle_and_grad_checks(self, window_shape, heads):
        rng = np.random.default_rng(18)
        d_h = window_shape[-1] // heads
        arrays = [rng.normal(size=window_shape), rng.normal(size=(d_h, d_h))]
        fused = lambda x, q: G.signed_distance(x, q, heads)  # noqa: E731
        assert_matches_oracle(fused, lambda x, q: oracles.signed_distance(x, q, heads),
                              arrays, rng)
        assert_grad_checks(fused, arrays, rng)

    @pytest.mark.parametrize("mode", ["mean", "max"])
    @pytest.mark.parametrize("shape", [(3, 6, 4), (2, 4, 3, 6, 5), (2, 1, 4, 3)])
    def test_pool_windows_matches_oracle_and_grad_checks(self, shape, mode):
        # (2, 1, 4, 3) is a single window: every patch sits in one window only.
        rng = np.random.default_rng(19)
        arrays = [rng.normal(size=shape)]
        assert_matches_oracle(lambda x: G.pool_windows(x, mode),
                              lambda x: oracles.pool_windows(x, mode), arrays, rng)
        assert_grad_checks(lambda x: G.pool_windows(x, mode), arrays, rng)

    def test_pool_windows_max_ties_route_to_the_earlier_window(self):
        rng = np.random.default_rng(20)
        x = np.round(rng.normal(size=(2, 3, 4, 2)), 0)  # many equal pairs
        assert_matches_oracle(lambda x: G.pool_windows(x, "max"),
                              lambda x: oracles.pool_windows(x, "max"), [x], rng)


def _attention(op, heads):
    """``op`` over the tokens and the seven attention weights, in ``AttentionParams`` order."""
    return lambda x, *weights: op(x, A.AttentionParams(*weights, heads=heads))


def _gcn(op):
    return lambda window, weights, w: op(window, weights_graph(weights), w)


def _attention_arrays(rng, x_shape):
    d = x_shape[-1]
    return ([rng.normal(size=x_shape)] + [rng.normal(size=(d, d)) * d**-0.5 for _ in range(4)]
            + [rng.normal(size=d) for _ in range(3)])


class TestTemporalAttention:
    @pytest.mark.parametrize("x_shape, heads", [((3, 5, 4), 2), ((2, 3, 4, 8), 4), ((2, 1, 6), 1)])
    def test_matches_oracle_and_grad_checks(self, x_shape, heads):
        rng = np.random.default_rng(12)
        arrays = _attention_arrays(rng, x_shape)
        fused = _attention(A.temporal_attention, heads)
        assert_matches_oracle(fused, _attention(oracles.temporal_attention, heads), arrays, rng)
        assert_grad_checks(fused, arrays, rng)

    def test_constant_tokens(self):
        rng = np.random.default_rng(13)
        arrays = _attention_arrays(rng, (2, 5, 4))
        tokens = T.Tensor(arrays[0])
        weights = [T.Tensor(a, requires_grad=True) for a in arrays[1:]]
        out = A.temporal_attention(tokens, A.AttentionParams(*weights, heads=2))
        assert out._node.parents[:3] == (None, None, None)
        out.backward(rng.normal(size=out.shape))
        _, want = _run(_attention(oracles.temporal_attention, 2), arrays, out.grad)
        assert tokens.grad is None
        for w, g in zip(weights, want[1:]):
            np.testing.assert_array_equal(w.grad, g)


class TestGcn:
    @pytest.mark.parametrize("window_shape, heads", [((2, 3, 6, 4), 2), ((5, 8), 1), ((3, 4, 6), 3)])
    def test_matches_oracle_and_grad_checks(self, window_shape, heads):
        rng = np.random.default_rng(14)
        n, d = window_shape[-2:]
        arrays = [rng.normal(size=window_shape),
                  rng.normal(size=window_shape[:-2] + (heads, n, n)) / n,
                  rng.normal(size=(heads, d // heads, d // heads))]
        assert_matches_oracle(_gcn(G.gcn), _gcn(oracles.gcn), arrays, rng)
        assert_grad_checks(_gcn(G.gcn), arrays, rng)


class TestFeedForward:
    @pytest.mark.parametrize("h_shape, hidden", [((5, 4), 8), ((2, 3, 4, 6), 12)])
    def test_matches_oracle_and_grad_checks(self, h_shape, hidden):
        rng = np.random.default_rng(15)
        d = h_shape[-1]
        arrays = [rng.normal(size=h_shape), rng.normal(size=(d, hidden)), rng.normal(size=hidden),
                  rng.normal(size=(hidden, d)), rng.normal(size=d)]
        assert_matches_oracle(M.feed_forward, oracles.feed_forward, arrays, rng)
        assert_grad_checks(M.feed_forward, arrays, rng)


class TestTapeNodes:
    """Each fused op's output hangs directly off its inputs, and keeps few arrays."""

    def _leaves(self, *shapes, seed=10):
        rng = np.random.default_rng(seed)
        return [T.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]

    def test_parents_are_the_inputs(self):
        # A node links a leaf by the Tensor itself and a taped input by that
        # input's node; these compare by identity, so they match only on the same objects.
        x, w, b = self._leaves((4, 5, 3), (3, 2), (2,))
        assert T.linear(x, w, b)._node.parents == (x, w, b)
        x, g, b = self._leaves((4, 5, 6), (6,), (6,))
        assert M.layer_norm(x, g, b)._node.parents == (x, g, b)
        x, *weights = self._leaves((3, 5, 4), *[(4, 4)] * 4, *[(4,)] * 3)
        params = A.AttentionParams(*weights, heads=2)
        assert A.temporal_attention(x, params)._node.parents == (
            x, x, x, params.wq, params.bq, params.wk, params.wv, params.bv, params.wo, params.bo)
        # The convolution links the scores its graph was built from: no graph has a node.
        window, scores, w = self._leaves((3, 6, 4), (3, 2, 6, 6), (2, 2, 2))
        graph = G.knn_sparsify(build_graph(G.tanh_l1_graph, scores), 4)
        node = G.gcn(window, graph, w)._node  # window + convolution
        conv = node.parents[1]
        assert node.parents[0] is window and conv.parents[::2] == (scores, w)
        head_split = conv.parents[1]  # swapaxes(reshape(window))
        assert head_split.parents[0].parents == (window,)
        h, w1, b1, w2, b2 = self._leaves((3, 5, 4), (4, 8), (8,), (8, 4), (4,))
        assert M.feed_forward(h, w1, b1, w2, b2)._node.parents == (h, w1, b1, w2, b2)

    def test_spatial_nodes_hang_off_their_inputs(self):
        tokens, q = self._leaves((2, 3, 4, 8), (4, 4))
        # The tokens twice: the earlier and the later patch of each pair.
        assert G.make_windows(tokens)._node.parents == (tokens, tokens)
        assert G.signed_distance(tokens, q, 2)._node.parents == (tokens, q)
        (window,) = self._leaves((2, 3, 6, 8))
        for mode in ("mean", "max"):
            assert G.pool_windows(window, mode)._node.parents == (window,)

    def test_tanh_knn_stage_keeps_one_graph_beyond_the_scores(self):
        # The chain kept tanh, |tanh|, the quotient, a float mask and the
        # product: five graph-sized float64 arrays. What remains beyond the
        # scores is the bool mask and the row norms, less than one graph.
        (scores,) = self._leaves((2, 3, 4, 42, 42))
        graph = G.knn_sparsify(build_graph(G.tanh_l1_graph, scores), 21)
        rows = scores.data.nbytes // 42  # one float64 norm per row
        kept = tape_bytes(graph_weights(graph)) - scores.data.nbytes
        assert kept == rows + graph.mask.nbytes < scores.data.nbytes

    def test_gcn_over_the_tanh_knn_stage_keeps_no_graph_of_its_own(self):
        # The convolution rebuilds its graph from the stage's scores, row norms
        # and mask, so beyond the stage it keeps only the window and W.
        scores, window, w = self._leaves((2, 3, 2, 6, 6), (2, 3, 6, 4), (2, 2, 2))
        graph = G.knn_sparsify(build_graph(G.tanh_l1_graph, scores), 3)
        out = G.gcn(window, graph, w)
        assert tape_bytes(out) == (tape_bytes(graph_weights(graph)) + window.data.nbytes
                                   + w.data.nbytes)

    def test_graph_stage_over_the_distance_keeps_no_graph(self):
        # The tanh, KNN and convolution chain kept tanh, |tanh|, the quotient,
        # a float mask, the product and the graph again: six graph-sized
        # float64 arrays. The stage rebuilds each block of its graph from the
        # window and Q, and links to them in the distance's place, so it keeps
        # only those, W, the row norms and the bool mask.
        window, q, w = self._leaves((2, 3, 42, 8), (4, 4), (2, 4, 4))
        scores = G.signed_distance(window, q, 2)
        graph = G.knn_sparsify(G.tanh_l1_graph(scores, G.rebuild_scores(window, q, 2)), 21)
        rows = scores.data.nbytes // 42  # one float64 norm per row
        assert tape_bytes(G.gcn(window, graph, w)) == (
            window.data.nbytes + q.data.nbytes + w.data.nbytes + rows + graph.mask.nbytes)

    def test_spatial_nodes_keep_only_their_inputs(self):
        # The windows and the pooling keep shapes only (and, for max, which
        # window won, as bools); the distance keeps the window and Q. The
        # leaves themselves count.
        tokens, q = self._leaves((2, 3, 4, 8), (4, 4))
        assert tape_bytes(G.make_windows(tokens)) == tokens.data.nbytes
        assert tape_bytes(G.signed_distance(tokens, q, 2)) == tokens.data.nbytes + q.data.nbytes
        (window,) = self._leaves((2, 3, 6, 8))
        assert tape_bytes(G.pool_windows(window, "mean")) == window.data.nbytes
        wins = 2 * 2 * 3 * 8  # (..., K-1, C, D) bools for K=3 windows of C=3 variables
        assert tape_bytes(G.pool_windows(window, "max")) == window.data.nbytes + wins

    def test_make_windows_keeps_no_input_of_its_own(self):
        # A leaf counts anyway; the data of a non-leaf input, which no other
        # node keeps here, must not stay on the tape for the windows.
        (tokens,) = self._leaves((2, 3, 4, 8))
        scaled = tokens * 2.0
        assert tape_bytes(G.make_windows(scaled)) == tape_bytes(scaled)

    def test_layer_norm_and_linear_keep_only_their_output(self):
        # Their tapes hold only the leaves and the row std; the output is the caller's.
        x, g, b = self._leaves((4, 5, 16), (16,), (16,))
        rows = x.data.nbytes // 16
        assert tape_bytes(M.layer_norm(x, g, b)) == x.data.nbytes + rows + g.data.nbytes * 2
        x, w, b = self._leaves((4, 5, 16), (16, 8), (8,))
        assert tape_bytes(T.linear(x, w, b)) == sum(t.data.nbytes for t in (x, w, b))

    def test_attention_keeps_tokens_heads_and_weights(self):
        # The tokens and the softmax output; not the q, k and v heads, which the
        # backward recomputes from the tokens, nor the merged heads.
        x, *weights = self._leaves((3, 2, 5, 8), *[(8, 8)] * 4, *[(8,)] * 3)
        out = A.temporal_attention(x, A.AttentionParams(*weights, heads=2))
        attn = 3 * 2 * 2 * 5 * 5 * 8  # (3, 2, heads, 5, 5) float64
        assert tape_bytes(out) == x.data.nbytes + attn + sum(t.data.nbytes for t in weights)

    def test_gcn_keeps_only_its_inputs(self):
        window, weights, w = self._leaves((3, 6, 4), (3, 2, 6, 6), (2, 2, 2))
        out = G.gcn(window, weights_graph(weights), w)
        assert tape_bytes(out) == window.data.nbytes + weights.data.nbytes + w.data.nbytes

    def test_feed_forward_keeps_its_input_and_pre_activation(self):
        h, w1, b1, w2, b2 = self._leaves((3, 5, 4), (4, 8), (8,), (8, 4), (4,))
        pre = 2 * h.data.nbytes
        assert tape_bytes(M.feed_forward(h, w1, b1, w2, b2)) == (
            pre + sum(t.data.nbytes for t in (h, w1, b1, w2, b2)))

    @staticmethod
    def _default_step_loss(n_vars, batch):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(batch, n_vars, 96)), rng.normal(size=(batch, n_vars, 96))
        return TR.total_loss(y, SeedModel(ModelConfig(n_vars=n_vars)).forward(x), 0.1)

    def test_default_step_tape_at_21_variables(self):
        # One default-width `full` train step at train_weather21's shape. A tape
        # whose nodes kept their outputs held 237.8 MiB here, 140.6 MiB while
        # attention, GCN and FFN were chains of nodes, 101.3 MiB while the GCN
        # kept its graph and the distance kept x_h Q, 77.5 MiB while the tanh
        # graph kept its tanh, and 60.2 MiB while attention kept its q, k and v
        # heads and the convolution make_windows' output; 41.9 MiB now.
        assert tape_bytes(self._default_step_loss(21, 32)) <= 43 * 2**20

    def test_default_step_tape_at_8_variables(self):
        # The same at train_mixture8's shape: 156.0, 90.1, 60.1, 50.1, 45.1, now 31.1 MiB.
        assert tape_bytes(self._default_step_loss(8, 64)) <= 32 * 2**20

    def test_default_step_tape_keeps_no_graph(self):
        # Every graph stage rebuilds its blocks from the window and Q, so no
        # array on the tape is as large as one layer's graph at
        # train_weather21's shape: (B, K windows, H, 2C, 2C) float64.
        cfg = ModelConfig(n_vars=21)
        graph = 8 * 32 * (cfg.n_patches - 1) * cfg.heads * (2 * 21) ** 2
        assert max(a.nbytes for a in tape_arrays(self._default_step_loss(21, 32))) < graph

    def test_default_step_tape_keeps_no_windows(self):
        # The convolution rebuilds each block of make_windows' output from the
        # tokens, which the tape keeps anyway: no array on it has the windows'
        # shape (B, N-1, 2C, D), or the (B, N-1, C, 2, D) they are a view of.
        cfg = ModelConfig(n_vars=21)
        k, d = cfg.n_patches - 1, cfg.d_model
        shapes = {a.shape for a in tape_arrays(self._default_step_loss(21, 32))}
        assert not shapes & {(32, k, 2 * 21, d), (32, k, 21, 2, d)}

    @staticmethod
    def _default_step_peak_above_tape(n_vars, batch):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(batch, n_vars, 96)), rng.normal(size=(batch, n_vars, 96))
        model = SeedModel(ModelConfig(n_vars=n_vars))
        tracemalloc.start()
        try:
            loss = TR.total_loss(y, model.forward(x), 0.1)
            tape = tape_bytes(loss)
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - tape

    def test_default_step_peak_at_21_variables(self):
        # What a default-width `full` train step allocates beyond its tape at
        # train_weather21's shape. The graph stages on whole arrays and
        # backwards that kept their scratch took it 16.4 MiB over, and a forward
        # that kept each layer's scores until the convolution returned 6.6 MiB;
        # 3.9 MiB now.
        assert self._default_step_peak_above_tape(21, 32) < 8 * 2**20

    def test_default_step_peak_at_8_variables(self):
        # The same at train_mixture8's shape: 6.7 MiB before, 2.7 MiB now.
        assert self._default_step_peak_above_tape(8, 64) < 5 * 2**20

    def test_no_tape_feed_forward_frees_its_pre_activation(self):
        # Without a tape, at most two hidden-layer arrays (each twice h) are
        # live at once: the pre-activation and the SiLU output, then the SiLU
        # output and the output. Keeping the pre-activation through the second
        # product made that 5 h.
        h, w1, b1, w2, b2 = self._leaves((16, 8, 6, 64), (64, 128), (128,), (128, 64), (64,))
        with T.no_grad():
            tracemalloc.start()
            try:
                M.feed_forward(h, w1, b1, w2, b2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 4.5 * h.data.nbytes


MICRO = dict(lookback=16, horizon=8, patch_len=4, d_model=8, heads=2,
             n_layers=2, n_vars=3)


@pytest.fixture(scope="module")
def micro_splits():
    ds = D.synthetic_mixture(n_sine=2, n_noise=1, length=300, periods=(12, 24), seed=5)
    return D.make_splits(ds, MICRO["lookback"], MICRO["horizon"])


@pytest.mark.parametrize("detach", [True, False])
@pytest.mark.parametrize("variant", VARIANTS)
class TestEveryWiring:
    def test_one_step_matches_oracles(self, variant, detach, monkeypatch):
        rng = np.random.default_rng(11)
        x, y = rng.normal(size=(4, 3, 16)), rng.normal(size=(4, 3, 8))

        def step():
            model = SeedModel(ModelConfig(**MICRO, variant=variant, detach_entropy=detach))
            loss = TR.total_loss(y, model.forward(x), 0.1)
            size = tape_bytes(loss)
            loss.backward()
            return loss.item(), size, {k: p.grad for k, p in model.named_params().items()}

        loss, size, grads = step()
        oracles.install(monkeypatch)
        want_loss, want_size, want_grads = step()
        assert loss == want_loss
        assert grads.keys() == want_grads.keys()
        for name in grads:
            np.testing.assert_array_equal(grads[name], want_grads[name], err_msg=name)
        assert size < want_size

    def test_one_step_in_blocks_matches_one_block(self, variant, detach, monkeypatch):
        # Five windows in blocks of two windows' graphs: 2, 2 and 1.
        rng = np.random.default_rng(12)
        x, y = rng.normal(size=(5, 3, 16)), rng.normal(size=(5, 3, 8))
        cfg = ModelConfig(**MICRO, variant=variant, detach_entropy=detach)
        window_graph = _window_graph_shape(SeedModel(cfg).wiring["spatial_mode"], 3,
                                           cfg.n_patches, cfg.heads)

        def step(budget):
            monkeypatch.setattr(T, "_BLOCK_BYTES", budget)
            model = SeedModel(cfg)
            out = model.forward(x)
            loss = TR.total_loss(y, out, 0.1)
            loss.backward()
            return (out.data.tobytes(), loss.data.tobytes(),
                    {k: p.grad.tobytes() for k, p in model.named_params().items()})

        assert step(2 * 8 * int(np.prod(window_graph))) == step(1 << 40)

    def test_seeded_trajectory_matches_oracles(self, variant, detach, monkeypatch,
                                               micro_splits):
        def trajectory():
            losses = []
            total_loss = TR.total_loss

            def recorded(*args):
                loss = total_loss(*args)
                losses.append(loss.item())
                return loss

            with monkeypatch.context() as mp:
                mp.setattr(TR, "total_loss", recorded)
                cfg = ModelConfig(**MICRO, variant=variant, detach_entropy=detach, seed=3)
                _, report = TR.train(SeedModel(cfg), micro_splits,
                                     TR.TrainConfig(epochs=2, batch_size=16, seed=3))
            return losses, report.mse

        losses, mse = trajectory()
        oracles.install(monkeypatch)
        want_losses, want_mse = trajectory()
        assert len(losses) > 10
        assert losses == want_losses
        assert mse == want_mse
