import numpy as np
import pytest

from oracles import maximum
from seedcast import graph as G
from seedcast import tensor as T
from seedcast.errors import ConfigError, ShapeError
from tests_helpers import (build_graph, grad_check_many, graph_weights, param_tensors,
                           spatial_params, weights_graph)


def silu(x):
    return x / (1.0 + np.exp(-x))


def knn_oracle(row, self_idx, k):
    """Sort-based reference: self first, then by (-|w|, column index)."""
    order = sorted((j for j in range(len(row)) if j != self_idx),
                   key=lambda j: (-abs(row[j]), j))
    return {self_idx} | set(order[: k - 1])


def argsort_knn_mask(weights, k):
    """Batched reference mask: self-edge first, then a stable sort on -|w|."""
    absw = np.abs(np.asarray(weights, dtype=float))
    n = absw.shape[-1]
    idx = np.arange(n)
    absw[..., idx, idx] = np.inf
    order = np.argsort(-absw, axis=-1, kind="stable")
    mask = np.zeros(absw.shape, dtype=bool)
    np.put_along_axis(mask, order[..., :k], True, axis=-1)
    return mask


def overlap_pool(e_prev, e_curr, mode="mean"):
    """Reference pooling of one patch: slot 1 of window k-1 and slot 0 of window k.

    Boundary patches pass ``None`` for the missing side and keep their single
    view. Inputs are (..., 2C, D); output is (..., C, D).
    """

    def _slot(e, j):
        n, d = e.shape[-2], e.shape[-1]
        return e.reshape(e.shape[:-2] + (n // 2, 2, d))[..., :, j, :]

    if e_prev is None:
        return _slot(e_curr, 0)
    if e_curr is None:
        return _slot(e_prev, 1)
    a, b = _slot(e_prev, 1), _slot(e_curr, 0)
    return (a + b) * 0.5 if mode == "mean" else maximum(a, b)


class TestMakeWindows:
    def test_counts(self):
        tokens = T.Tensor(np.random.default_rng(0).normal(size=(7, 6, 4)))
        out = G.make_windows(tokens)
        assert out.shape == (5, 14, 4)  # N-1 windows, 2C nodes

    def test_node_layout(self):
        rng = np.random.default_rng(1)
        tok = rng.normal(size=(3, 6, 4))
        win = G.make_windows(T.Tensor(tok)).data
        k = 2  # window over patches 2 and 3
        for c in range(3):
            assert np.array_equal(win[k, 2 * c], tok[c, k])
            assert np.array_equal(win[k, 2 * c + 1], tok[c, k + 1])

    def test_single_patch_raises(self):
        with pytest.raises(ConfigError):
            G.make_windows(T.Tensor(np.zeros((2, 1, 4))))


class TestSignedDistance:
    def test_identity_form_gives_dot_products(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 6))
        scores = G.signed_distance(T.Tensor(x), T.Tensor(np.eye(3)), heads=2).data
        xh = x.reshape(4, 2, 3).transpose(1, 0, 2)
        for h in range(2):
            for i in range(4):
                for j in range(4):
                    assert scores[h, i, j] == pytest.approx(xh[h, i] @ xh[h, j], abs=1e-12)

    def test_zero_form_annihilates(self):
        scores = G.signed_distance(T.Tensor(np.random.default_rng(3).normal(size=(5, 4))),
                                   T.Tensor(np.zeros((2, 2))), heads=2)
        assert np.all(scores.data == 0)

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 2))  # 3 nodes, one head of width 2
        q = rng.normal(size=(2, 2))
        scores = G.signed_distance(T.Tensor(x), T.Tensor(q), heads=1).data
        for i in range(3):
            for j in range(3):
                ref = sum(x[i, a] * q[a, b] * x[j, b] for a in range(2) for b in range(2))
                assert abs(scores[0, i, j] - ref) < 1e-12

    def test_generally_asymmetric(self):
        rng = np.random.default_rng(5)
        q = T.Tensor(rng.normal(size=(2, 2)))
        s = G.signed_distance(T.Tensor(rng.normal(size=(4, 4))), q, heads=2).data
        assert not np.allclose(s, np.swapaxes(s, -1, -2))

    def test_too_many_heads(self):
        with pytest.raises(ConfigError):
            G.signed_distance(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((1, 1))), heads=4)

    def test_heads_must_divide_width(self):
        # As in gcn and temporal_attention: no feature is left out of every head.
        with pytest.raises(ConfigError, match="divide"):
            G.signed_distance(T.Tensor(np.zeros((2, 5))), T.Tensor(np.zeros((2, 2))), heads=2)


class TestSignSoftmaxGraph:
    def test_equal_magnitudes_opposite_signs(self):
        g = build_graph(G.sign_softmax_graph, T.Tensor(np.array([[[1.0, -1.0]]])))
        assert np.allclose(graph_weights(g).data, [[[0.5, -0.5]]], atol=1e-15)

    def test_zero_row_uses_plus_convention(self):
        g = build_graph(G.sign_softmax_graph, T.Tensor(np.array([[[0.0, 0.0]]])))
        assert np.allclose(graph_weights(g).data, [[[0.5, 0.5]]], atol=1e-15)

    def test_scalar_oracle(self):
        g = build_graph(G.sign_softmax_graph, T.Tensor(np.array([[[2.0, 0.0, -2.0]]])))
        z = 2 * np.exp(2.0) + 1.0
        expected = np.array([np.exp(2.0) / z, 1.0 / z, -np.exp(2.0) / z])
        assert np.abs(graph_weights(g).data[0, 0] - expected).max() < 1e-12

    def test_magnitudes_form_probability_rows(self):
        rng = np.random.default_rng(6)
        g = build_graph(G.sign_softmax_graph, T.Tensor(rng.normal(size=(3, 5, 5)) * 2))
        assert np.abs(np.abs(graph_weights(g).data).sum(axis=-1) - 1.0).max() < 1e-12


class TestTanhL1Graph:
    def test_symmetric_pair(self):
        g = build_graph(G.tanh_l1_graph, T.Tensor(np.array([[[1.0, -1.0]]])))
        assert np.allclose(graph_weights(g).data, [[[0.5, -0.5]]], atol=1e-15)

    def test_zero_row_stays_zero(self):
        g = build_graph(G.tanh_l1_graph, T.Tensor(np.zeros((1, 1, 3))))
        assert np.all(graph_weights(g).data == 0)

    def test_scalar_oracle(self):
        g = build_graph(G.tanh_l1_graph, T.Tensor(np.array([[[1.0, 2.0]]])))
        t1, t2 = np.tanh(1.0), np.tanh(2.0)
        expected = np.array([t1, t2]) / (t1 + t2)
        assert np.abs(graph_weights(g).data[0, 0] - expected).max() < 1e-12
        assert np.allclose(expected, [0.4415, 0.5585], atol=5e-4)

    def test_rows_l1_normalized(self):
        rng = np.random.default_rng(7)
        g = build_graph(G.tanh_l1_graph, T.Tensor(rng.normal(size=(2, 4, 6, 6))))
        assert np.abs(np.abs(graph_weights(g).data).sum(axis=-1) - 1.0).max() < 1e-12


class TestKnnSparsify:
    def _graph(self, weights):
        w = np.asarray(weights, dtype=float)
        return weights_graph(T.Tensor(w))

    def test_full_k_is_identity(self):
        rng = np.random.default_rng(8)
        g = self._graph(rng.normal(size=(1, 4, 4)))
        out = G.knn_sparsify(g, 4)
        assert np.array_equal(graph_weights(out).data, graph_weights(g).data)

    def test_k1_keeps_the_self_edge(self):
        g = self._graph([[[0.1, 0.9], [0.8, 0.2]]])
        out = G.knn_sparsify(g, 1)
        assert np.array_equal(graph_weights(out).data, [[[0.1, 0.0], [0.0, 0.2]]])

    def test_k1_matches_argmax_when_self_dominates(self):
        g = self._graph([[[0.9, 0.1], [0.2, 0.8]]])
        out = G.knn_sparsify(g, 1)
        best = np.argmax(np.abs(graph_weights(g).data[0]), axis=-1)
        for i in range(2):
            assert graph_weights(out).data[0, i, best[i]] != 0

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            w = rng.normal(size=(1, 5, 5))
            out = G.knn_sparsify(self._graph(w), 3)
            for i in range(5):
                kept = set(np.nonzero(out.mask[0, i])[0])
                assert kept == knn_oracle(w[0, i], i, 3)

    def test_tie_breaks_toward_lower_index(self):
        g = self._graph([[[0.5, 0.4, 0.4, -0.4]]][0:1])
        out = G.knn_sparsify(self._graph([[[0.5, 0.4, 0.4, -0.4],
                                           [0.4, 0.5, -0.4, 0.4],
                                           [0.1, 0.1, 0.5, 0.1],
                                           [0.2, 0.2, 0.2, 0.5]]]), 2)
        assert set(np.nonzero(out.mask[0, 0])[0]) == {0, 1}
        assert set(np.nonzero(out.mask[0, 1])[0]) == {1, 0}
        assert set(np.nonzero(out.mask[0, 2])[0]) == {2, 0}
        assert set(np.nonzero(out.mask[0, 3])[0]) == {3, 0}

    @pytest.mark.parametrize("decimals", [None, 1, 0])
    def test_matches_argsort_oracle_batched(self, decimals):
        # decimals=1/0 rounds the scores so most rows are full of ties.
        rng = np.random.default_rng(12)
        for shape in [(3, 2, 6, 6), (2, 5, 4, 16, 16), (1, 3, 42, 42)]:
            w = rng.normal(size=shape)
            if decimals is not None:
                w = np.round(w, decimals)
            n = shape[-1]
            for k in sorted({1, 2, n // 2, n - 1, n}):
                out = G.knn_sparsify(self._graph(w), k)
                assert np.array_equal(out.mask, argsort_knn_mask(w, k))

    def test_nan_weights_rank_last(self):
        w = np.random.default_rng(13).normal(size=(2, 6, 6))
        w[0, 1, [0, 3]] = np.nan
        w[1, 2, :] = np.nan
        for k in (2, 4, 6):
            out = G.knn_sparsify(self._graph(w), k)
            assert np.array_equal(out.mask, argsort_knn_mask(w, k))

    def test_idempotent(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            g = self._graph(rng.normal(size=(2, 6, 6)))
            once = G.knn_sparsify(g, 3)
            twice = G.knn_sparsify(once, 3)
            assert np.array_equal(graph_weights(once).data, graph_weights(twice).data)

    def test_masked_entries_exactly_zero(self):
        rng = np.random.default_rng(11)
        out = G.knn_sparsify(self._graph(rng.normal(size=(3, 8, 8))), 4)
        assert np.all(graph_weights(out).data[~out.mask] == 0.0)

    def test_k_out_of_range(self):
        g = self._graph(np.zeros((1, 3, 3)))
        with pytest.raises(ConfigError):
            G.knn_sparsify(g, 0)
        with pytest.raises(ConfigError):
            G.knn_sparsify(g, 4)


class TestSignPreservation:
    @pytest.mark.parametrize("builder", [G.sign_softmax_graph, G.tanh_l1_graph])
    def test_retained_signs_match_scores(self, builder):
        rng = np.random.default_rng(12)
        for _ in range(20):
            s = rng.normal(size=(2, 6, 6)) * 2
            g = G.knn_sparsify(build_graph(builder, T.Tensor(s)), 3)
            signs = np.where(s >= 0, 1.0, -1.0)
            kept = g.mask & (graph_weights(g).data != 0)
            assert np.all(np.sign(graph_weights(g).data[kept]) == signs[kept])


class TestGcn:
    def test_self_loops_unit_weights(self):
        n, d, h = 4, 6, 2
        x = np.random.default_rng(13).normal(size=(n, d))
        eye_graph = weights_graph(T.Tensor(np.stack([np.eye(n)] * h)))
        out = G.gcn(T.Tensor(x), eye_graph, T.Tensor(np.stack([np.eye(d // h)] * h)))
        assert np.abs(out.data - (x + silu(x))).max() < 1e-12  # input + its own transform

    def test_zero_graph_reduces_to_residual(self):
        n, d, h = 3, 4, 2
        x = np.random.default_rng(14).normal(size=(n, d))
        zero_graph = weights_graph(T.Tensor(np.zeros((h, n, n))))
        weight = T.Tensor(np.random.default_rng(15).normal(size=(h, 2, 2)))
        out = G.gcn(T.Tensor(x), zero_graph, weight)
        assert np.array_equal(out.data, x)  # silu(0) = 0

    def test_hand_case_single_head(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(3, 2))
        adj = rng.normal(size=(1, 3, 3))
        w = rng.normal(size=(1, 2, 2))
        out = G.gcn(T.Tensor(x), weights_graph(T.Tensor(adj)), T.Tensor(w))
        expected = x + silu((adj[0] @ x) @ w[0])
        assert np.abs(out.data - expected).max() < 1e-10


    def test_graph_must_match_the_nodes(self):
        # A graph is per window and head: it does not broadcast over the batch.
        x = T.Tensor(np.zeros((3, 4, 6)))
        graph = weights_graph(T.Tensor(np.zeros((1, 2, 4, 4))))
        with pytest.raises(ShapeError, match="does not fit"):
            G.gcn(x, graph, T.Tensor(np.zeros((2, 3, 3))))


class TestOverlapPool:
    def test_mean_of_equal_slices(self):
        rng = np.random.default_rng(17)
        e = rng.normal(size=(6, 4))  # 3 variables, 2 slots each
        out = overlap_pool(T.Tensor(e), T.Tensor(np.roll(e, 1, axis=0)), "mean")
        prev_slot1 = e.reshape(3, 2, 4)[:, 1]
        curr_slot0 = np.roll(e, 1, axis=0).reshape(3, 2, 4)[:, 0]
        assert np.abs(out.data - 0.5 * (prev_slot1 + curr_slot0)).max() < 1e-15

    def test_one_side_zero_halves(self):
        e = np.random.default_rng(18).normal(size=(4, 3))
        out = overlap_pool(T.Tensor(e), T.Tensor(np.zeros_like(e)), "mean")
        assert np.abs(out.data - e.reshape(2, 2, 3)[:, 1] / 2).max() < 1e-15

    def test_boundary_takes_single_view(self):
        e = np.random.default_rng(19).normal(size=(4, 3))
        first = overlap_pool(None, T.Tensor(e))
        last = overlap_pool(T.Tensor(e), None)
        assert np.array_equal(first.data, e.reshape(2, 2, 3)[:, 0])
        assert np.array_equal(last.data, e.reshape(2, 2, 3)[:, 1])

    def test_pool_windows_matches_pairwise(self):
        rng = np.random.default_rng(20)
        c, n, d = 3, 6, 4
        gout = rng.normal(size=(n - 1, 2 * c, d))
        pooled = G.pool_windows(T.Tensor(gout), "mean").data  # (C, N, D)
        for p in range(n):
            prev = T.Tensor(gout[p - 1]) if p > 0 else None
            curr = T.Tensor(gout[p]) if p < n - 1 else None
            ref = overlap_pool(prev, curr, "mean").data
            assert np.abs(pooled[:, p] - ref).max() < 1e-15

    @pytest.mark.parametrize("mode", ["mean", "max"])
    def test_pool_windows_matches_oracle_batched(self, mode):
        rng = np.random.default_rng(22)
        b, c, n, d = 3, 4, 6, 5
        gout = rng.normal(size=(b, n - 1, 2 * c, d))
        pooled = G.pool_windows(T.Tensor(gout), mode).data  # (B, C, N, D)
        for p in range(n):
            prev = T.Tensor(gout[:, p - 1]) if p > 0 else None
            curr = T.Tensor(gout[:, p]) if p < n - 1 else None
            assert np.array_equal(pooled[:, :, p], overlap_pool(prev, curr, mode).data)

    def test_max_pool_variant(self):
        rng = np.random.default_rng(21)
        gout = rng.normal(size=(2, 4, 3))
        pooled = G.pool_windows(T.Tensor(gout), "max").data
        a = gout[0].reshape(2, 2, 3)[:, 1]
        b = gout[1].reshape(2, 2, 3)[:, 0]
        assert np.array_equal(pooled[:, 1], np.maximum(a, b))


class TestContextSpatialExtract:
    def test_single_channel_degenerate(self):
        rng = np.random.default_rng(22)
        p = spatial_params(4, 2, rng)
        out = G.context_spatial_extract(T.Tensor(rng.normal(size=(1, 4, 4))), p)
        assert out.shape == (1, 4, 4)
        assert np.all(np.isfinite(out.data))

    def test_shape_contract(self):
        rng = np.random.default_rng(23)
        p = spatial_params(64, 4, rng)
        out = G.context_spatial_extract(T.Tensor(rng.normal(size=(7, 6, 64))), p)
        assert out.shape == (7, 6, 64)

    def test_dense_no_knn_oracle(self):
        # With k = n the pipeline must equal the composition without masking.
        rng = np.random.default_rng(24)
        c, n, d, h = 3, 5, 8, 2
        tokens = T.Tensor(rng.normal(size=(c, n, d)))
        p = spatial_params(d, h, rng, knn_k=2 * c)
        out = G.context_spatial_extract(tokens, p).data

        windows = G.make_windows(tokens)
        scores = G.signed_distance(windows, p.q, h)
        graph = build_graph(G.tanh_l1_graph, scores)  # no knn_sparsify at all
        ref = G.pool_windows(G.gcn(windows, graph, p.gcn_weight), "mean").data
        assert np.abs(out - ref).max() < 1e-10

    def test_same_step_mode_shapes(self):
        rng = np.random.default_rng(25)
        p = spatial_params(8, 2, rng, mode="same_step")
        out = G.context_spatial_extract(T.Tensor(rng.normal(size=(4, 3, 8))), p)
        assert out.shape == (4, 3, 8)

    def test_same_step_matches_manual_composition(self):
        # k < C prunes edges, and a leading batch axis rides along.
        rng = np.random.default_rng(31)
        b, c, n, d, h, k = 2, 5, 3, 8, 2, 2
        tokens = T.Tensor(rng.normal(size=(b, c, n, d)))
        p = spatial_params(d, h, rng, knn_k=k, mode="same_step")
        out = G.context_spatial_extract(tokens, p).data

        nodes = T.Tensor(np.swapaxes(tokens.data, -3, -2))  # (B, N, C, D)
        graph = G.knn_sparsify(build_graph(G.tanh_l1_graph, G.signed_distance(nodes, p.q, h)), k)
        assert graph.mask.sum(axis=-1).max() == k < c
        ref = np.swapaxes(G.gcn(nodes, graph, p.gcn_weight).data, -3, -2)
        assert out.shape == (b, c, n, d) and np.array_equal(out, ref)

    def test_unknown_mode_raises(self):
        rng = np.random.default_rng(32)
        p = spatial_params(8, 2, rng, mode="diagonal")
        with pytest.raises(ConfigError, match="diagonal"):
            G.context_spatial_extract(T.Tensor(rng.normal(size=(3, 4, 8))), p)

    @pytest.mark.parametrize("mode", ["local", "same_step", "global"])
    @pytest.mark.parametrize("c, n", [(1, 2), (2, 3), (3, 5), (4, 2)])
    def test_graph_shape_follows_node_layout(self, monkeypatch, mode, c, n):
        rng = np.random.default_rng(33)
        d, h, lead = 8, 2, (2,)
        shapes = []
        knn = G.knn_sparsify

        def spy(graph, k):
            shapes.append(graph.scores.shape)
            return knn(graph, k)

        monkeypatch.setattr(G, "knn_sparsify", spy)
        p = spatial_params(d, h, rng, mode=mode)
        out = G.context_spatial_extract(T.Tensor(rng.normal(size=lead + (c, n, d))), p)
        graphs, nodes = G.node_layout(mode, c, n)
        assert shapes == [lead + (graphs, h, nodes, nodes)]
        assert out.shape == lead + (c, n, d)

    def test_node_layout_unknown_mode(self):
        with pytest.raises(ConfigError, match="diagonal"):
            G.node_layout("diagonal", 2, 3)

    def test_same_step_window_and_node_counts(self):
        # One window per patch, each over the C variables at that step.
        rng = np.random.default_rng(30)
        c, n, d = 4, 3, 8
        tokens = T.Tensor(rng.normal(size=(c, n, d)))
        nodes = T.swapaxes(tokens, 0, 1)
        scores = G.signed_distance(nodes, T.Tensor(np.eye(4)), heads=2)
        assert scores.shape == (n, 2, c, c)

    def test_global_mode_matches_manual_composition(self):
        rng = np.random.default_rng(26)
        c, n, d, h = 2, 3, 8, 2
        tokens = T.Tensor(rng.normal(size=(c, n, d)))
        p = spatial_params(d, h, rng, mode="global")
        out = G.context_spatial_extract(tokens, p).data

        nodes = tokens.reshape((c * n, d))
        scores = G.signed_distance(nodes, p.q, h)
        graph = G.knn_sparsify(build_graph(G.tanh_l1_graph, scores), c * n)
        ref = G.gcn(nodes, graph, p.gcn_weight).data.reshape(c, n, d)
        assert np.abs(out - ref).max() < 1e-10

    def test_channel_permutation_equivariance(self):
        rng = np.random.default_rng(27)
        p = spatial_params(8, 2, rng)
        tokens = rng.normal(size=(5, 4, 8))
        perm = np.array([3, 0, 4, 1, 2])
        out = G.context_spatial_extract(T.Tensor(tokens), p).data
        out_perm = G.context_spatial_extract(T.Tensor(tokens[perm]), p).data
        assert np.abs(out_perm - out[perm]).max() < 1e-12

    def test_gradient_through_tanh_graph(self):
        rng = np.random.default_rng(28)
        p = spatial_params(4, 2, rng)
        tokens = T.Tensor(rng.normal(size=(2, 3, 4)))
        target = rng.normal(size=(2, 3, 4))

        def f():
            out = G.context_spatial_extract(tokens, p)
            diff = out - T.Tensor(target)
            return (diff * diff).mean()

        errs = grad_check_many(f, param_tensors(p), eps=1e-5)
        assert (errs < 1e-4).all()

    def test_gradient_through_softmax_graph_away_from_kinks(self):
        rng = np.random.default_rng(11)  # seed chosen so every |s| > 0.1
        p = spatial_params(4, 2, rng, variant="softmax")
        p.q.data *= 4.0  # push scores away from the |s| kink at 0
        tokens = T.Tensor(rng.normal(size=(2, 3, 4)))
        scores = G.signed_distance(G.make_windows(tokens), p.q, 2)
        assert np.abs(scores.data).min() > 0.1
        target = rng.normal(size=(2, 3, 4))

        def f():
            out = G.context_spatial_extract(tokens, p)
            diff = out - T.Tensor(target)
            return (diff * diff).mean()

        errs = grad_check_many(f, param_tensors(p), eps=1e-5)
        assert (errs < 1e-4).all()
