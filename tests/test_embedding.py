import numpy as np
import pytest

from seedcast import embedding as E
from seedcast import tensor as T
from seedcast.errors import ConfigError
from tests_helpers import strided_windows


def make_params(patch_len, d_model, n_patches, rng=None, zero_bias=True):
    rng = rng or np.random.default_rng(0)
    w = T.Tensor(rng.normal(size=(patch_len, d_model)), requires_grad=True)
    b = T.Tensor(np.zeros(d_model) if zero_bias else rng.normal(size=d_model),
                 requires_grad=True)
    return E.EmbedParams(w, b, E.positional_encoding(n_patches, d_model))


class TestInstanceNormalize:
    def test_constant_row_maps_to_zero_with_floored_std(self):
        out, stats = E.instance_normalize(np.full((1, 10), 4.2))
        assert np.all(out == 0)
        assert stats.std[0, 0] == E.STD_FLOOR

    def test_zero_mean_unit_std_row_unchanged(self):
        rng = np.random.default_rng(1)
        row = rng.normal(size=200)
        row = (row - row.mean()) / row.std()
        out, _ = E.instance_normalize(row[None])
        assert np.abs(out[0] - row).max() < 1e-9

    def test_random_row_recomputed_stats(self):
        rng = np.random.default_rng(2)
        out, _ = E.instance_normalize(rng.normal(2.0, 3.0, size=(4, 128)))
        assert np.abs(out.mean(axis=-1)).max() < 1e-9
        assert np.abs(out.std(axis=-1) - 1.0).max() < 1e-9

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 50))
        out, stats = E.instance_normalize(x)
        assert np.abs(out * stats.std + stats.mean - x).max() < 1e-12

    def test_strided_windows_match_copy(self):
        view, copy = strided_windows(16, 8, 96, seed=4)
        out_v, stats_v = E.instance_normalize(view)
        out_c, stats_c = E.instance_normalize(copy)
        assert np.array_equal(out_v, out_c)
        assert np.array_equal(stats_v.mean, stats_c.mean)
        assert np.array_equal(stats_v.std, stats_c.std)


class TestPatching:
    def test_exact_division(self):
        tokens = E.patch_and_embed(np.zeros((7, 96)), make_params(16, 8, 6))
        assert tokens.shape == (7, 6, 8)

    def test_ragged_tail_zero_padded(self):
        patches = E.split_patches(np.arange(96.0)[None], 20)
        assert patches.shape == (1, 5, 20)
        assert np.array_equal(patches[0, -1, -4:], np.zeros(4))
        assert patches[0, -1, 0] == 80.0

    def test_patch_len_too_large(self):
        with pytest.raises(ConfigError):
            E.split_patches(np.zeros((2, 8)), 9)

    def test_zero_window_zero_bias_gives_positional_encoding(self):
        params = make_params(4, 6, 3)
        tokens = E.patch_and_embed(np.zeros((2, 12)), params)
        for c in range(2):
            assert np.allclose(tokens.data[c], params.pe, atol=1e-15)

    def test_positional_encoding_distinguishes_positions(self):
        params = make_params(4, 6, 5)
        tokens = E.patch_and_embed(np.ones((1, 20)), params).data[0]
        for i in range(5):
            for j in range(i + 1, 5):
                assert not np.allclose(tokens[i], tokens[j])

    def test_unembed_with_pseudoinverse(self):
        rng = np.random.default_rng(4)
        params = make_params(4, 12, 4, rng)  # D >= P: full column rank
        window = rng.normal(size=(3, 16))
        tokens = E.patch_and_embed(window, params).data
        recovered = (tokens - params.pe) @ np.linalg.pinv(params.weight.data)
        assert np.abs(recovered - E.split_patches(window, 4)).max() < 1e-6


class TestProjection:
    def test_zero_tokens_zero_head_gives_broadcast_mean(self):
        stats = E.NormStats(np.array([[1.5], [-2.0]]), np.array([[1.0], [1.0]]))
        head = E.HeadParams(T.Tensor(np.zeros((12, 5))), T.Tensor(np.zeros(5)))
        out = E.project_output(T.Tensor(np.zeros((2, 3, 4))), head, stats)
        assert np.allclose(out.data[0], 1.5)
        assert np.allclose(out.data[1], -2.0)

    def test_identity_stats_gives_raw_head_output(self):
        rng = np.random.default_rng(5)
        tokens = rng.normal(size=(2, 3, 4))
        head = E.HeadParams(T.Tensor(rng.normal(size=(12, 5))), T.Tensor(rng.normal(size=5)))
        ident = E.NormStats(np.zeros((2, 1)), np.ones((2, 1)))
        out = E.project_output(T.Tensor(tokens), head, ident)
        raw = tokens.reshape(2, 12) @ head.weight.data + head.bias.data
        assert np.abs(out.data - raw).max() < 1e-12

    def test_affine_round_trip_oracle(self):
        # One variable, one patch, trivial sizes: hand-computable end to end.
        x = np.array([[2.0, 4.0, 6.0, 8.0]])  # mean 5, std sqrt(5)
        norm, stats = E.instance_normalize(x)
        head = E.HeadParams(T.Tensor(np.array([[1.0], [2.0]])), T.Tensor(np.array([0.5])))
        tokens = T.Tensor(norm[:, :2].reshape(1, 1, 2))
        out = E.project_output(tokens, head, stats)
        raw = norm[0, 0] * 1.0 + norm[0, 1] * 2.0 + 0.5
        expected = raw * stats.std[0, 0] + stats.mean[0, 0]
        assert abs(out.data[0, 0] - expected) < 1e-10

    def test_affine_in_tokens(self):
        rng = np.random.default_rng(6)
        head = E.HeadParams(T.Tensor(rng.normal(size=(8, 3))), T.Tensor(np.zeros(3)))
        x = rng.normal(size=(2, 2, 4))
        y = rng.normal(size=(2, 2, 4))
        a, b = 0.7, -1.3
        ident = E.NormStats(np.zeros((2, 1)), np.ones((2, 1)))
        fx = E.project_output(T.Tensor(x), head, ident).data
        fy = E.project_output(T.Tensor(y), head, ident).data
        fxy = E.project_output(T.Tensor(a * x + b * y), head, ident).data
        assert np.abs(fxy - (a * fx + b * fy)).max() < 1e-10
