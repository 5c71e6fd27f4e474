import numpy as np
import pytest

from seedcast import attention as A
from seedcast import tensor as T
from seedcast.errors import ConfigError
from tests_helpers import attention_params, grad_check_many, param_tensors


@pytest.fixture
def softmax_outputs(monkeypatch):
    """The output of every call of the shared softmax helper: in attention, its weights."""
    seen = []
    softmax = T._softmax

    def spy(x, axis=-1):
        out = softmax(x, axis)
        seen.append(out)
        return out

    monkeypatch.setattr(T, "_softmax", spy)
    return seen


class TestTemporalAttention:
    def test_single_patch_weight_is_one(self, softmax_outputs):
        params = attention_params(4, 2)
        tokens = T.Tensor(np.random.default_rng(1).normal(size=(3, 1, 4)))
        out = A.temporal_attention(tokens, params)
        [weights] = softmax_outputs
        assert weights.shape == (3, 2, 1, 1) and np.allclose(weights, 1.0)
        # output equals the V projection of the single token through W_O
        v = tokens.data @ params.wv.data
        expected = v @ params.wo.data
        assert np.abs(out.data - expected).max() < 1e-12

    def test_identical_variables_identical_outputs(self):
        params = attention_params(8, 4)
        row = np.random.default_rng(2).normal(size=(5, 8))
        tokens = T.Tensor(np.stack([row, row]))
        out = A.temporal_attention(tokens, params)
        assert np.array_equal(out.data[0], out.data[1])

    def test_hand_computed_tiny_case(self):
        # C=1, N=2, D=2, one head: everything reducible to scalar arithmetic.
        wq = np.array([[1.0, 0.0], [0.0, 1.0]])
        wk = np.array([[0.5, 0.0], [0.0, 0.5]])
        wv = np.array([[1.0, 1.0], [0.0, 1.0]])
        wo = np.array([[1.0, 0.0], [0.0, 2.0]])
        params = A.AttentionParams(
            wq=T.Tensor(wq), wk=T.Tensor(wk), wv=T.Tensor(wv), wo=T.Tensor(wo),
            bq=T.Tensor(np.zeros(2)), bv=T.Tensor(np.zeros(2)), bo=T.Tensor(np.zeros(2)),
            heads=1,
        )
        x = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        q, k, v = x[0] @ wq, x[0] @ wk, x[0] @ wv
        scores = q @ k.T / np.sqrt(2)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        expected = (attn @ v) @ wo
        out = A.temporal_attention(T.Tensor(x), params)
        assert np.abs(out.data[0] - expected).max() < 1e-10

    def test_channel_independence_bit_identical(self):
        params = attention_params(8, 2)
        rng = np.random.default_rng(3)
        base = rng.normal(size=(4, 6, 8))
        out_base = A.temporal_attention(T.Tensor(base), params).data
        for _ in range(20):
            perturbed = base.copy()
            j = rng.integers(0, 4)
            perturbed[j] += rng.normal(size=(6, 8))
            out = A.temporal_attention(T.Tensor(perturbed), params).data
            for i in range(4):
                if i != j:
                    assert np.array_equal(out[i], out_base[i])

    def test_attention_rows_sum_to_one(self, softmax_outputs):
        params = attention_params(8, 4)
        tokens = T.Tensor(np.random.default_rng(4).normal(size=(3, 7, 8)))
        A.temporal_attention(tokens, params)
        [weights] = softmax_outputs
        assert weights.shape == (3, 4, 7, 7)
        assert np.abs(weights.sum(axis=-1) - 1.0).max() < 1e-12

    def test_variable_permutation_equivariance(self):
        params = attention_params(8, 2)
        rng = np.random.default_rng(5)
        tokens = rng.normal(size=(5, 4, 8))
        perm = rng.permutation(5)
        out = A.temporal_attention(T.Tensor(tokens), params).data
        out_perm = A.temporal_attention(T.Tensor(tokens[perm]), params).data
        assert np.array_equal(out_perm, out[perm])

    def test_heads_must_divide(self):
        with pytest.raises(ConfigError):
            A.temporal_attention(T.Tensor(np.zeros((1, 2, 6))), attention_params(6, 4))

    def test_gradient_check(self):
        rng = np.random.default_rng(6)
        params = attention_params(4, 2, rng)
        tokens = T.Tensor(rng.normal(size=(2, 3, 4)))
        target = rng.normal(size=(2, 3, 4))

        def f():
            out = A.temporal_attention(tokens, params)
            diff = out - T.Tensor(target)
            return (diff * diff).mean()

        errs = grad_check_many(f, param_tensors(params), eps=1e-5)
        assert (errs < 1e-5).all()

    def test_batched_matches_per_sample(self):
        params = attention_params(8, 2)
        rng = np.random.default_rng(7)
        batch = rng.normal(size=(3, 2, 4, 8))
        out = A.temporal_attention(T.Tensor(batch), params).data
        for i in range(3):
            single = A.temporal_attention(T.Tensor(batch[i]), params).data
            assert np.abs(out[i] - single).max() < 1e-12
