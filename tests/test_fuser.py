import numpy as np
import pytest

from seedcast import fuser as FU
from seedcast import tensor as T
from seedcast.errors import ShapeError
from tests_helpers import grad_check_many


class TestPatchSimilarity:
    def test_equal_vectors_give_one(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 4))
        sim = FU.patch_similarity(T.Tensor(x), T.Tensor(x.copy()))
        assert np.allclose(sim.data, 1.0, atol=1e-12)

    def test_opposite_vectors_give_zero(self):
        x = np.random.default_rng(1).normal(size=(2, 3, 4))
        sim = FU.patch_similarity(T.Tensor(x), T.Tensor(-x))
        assert np.allclose(sim.data, 0.0, atol=1e-12)

    def test_orthogonal_pair_gives_half(self):
        a = np.array([[[1.0, 0.0]]])
        b = np.array([[[0.0, 1.0]]])
        sim = FU.patch_similarity(T.Tensor(a), T.Tensor(b))
        assert sim.data[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_zero_vector_guard(self):
        a = np.zeros((1, 2, 3))
        b = np.random.default_rng(2).normal(size=(1, 2, 3))
        sim = FU.patch_similarity(T.Tensor(a), T.Tensor(b))
        assert np.all(sim.data == 0.5)

    def test_range(self):
        rng = np.random.default_rng(3)
        sim = FU.patch_similarity(T.Tensor(rng.normal(size=(4, 5, 6))),
                                  T.Tensor(rng.normal(size=(4, 5, 6))))
        assert np.all(sim.data >= 0.0) and np.all(sim.data <= 1.0)


class TestFuse:
    def test_entropy_one_goes_fully_spatial(self):
        rng = np.random.default_rng(4)
        t_feat = T.Tensor(rng.normal(size=(1, 3, 4)))
        e_feat = T.Tensor(rng.normal(size=(1, 3, 4)))
        out = FU.fuse(t_feat, e_feat, T.Tensor(np.array([1.0])))
        assert np.abs(out.data - e_feat.data).max() < 1e-12

    def test_entropy_zero_sim_zero_goes_fully_temporal(self):
        rng = np.random.default_rng(5)
        t_feat = rng.normal(size=(1, 2, 4))
        out = FU.fuse(T.Tensor(t_feat), T.Tensor(-t_feat), T.Tensor(np.array([0.0])))
        assert np.abs(out.data - t_feat).max() < 1e-12

    def test_hand_computed_midpoint(self):
        # entropy 0.5 and orthogonal features: w = 0.5 * (1 - 0.5) = 0.25
        t_feat = np.array([[[2.0, 0.0]]])
        e_feat = np.array([[[0.0, 4.0]]])
        out = FU.fuse(T.Tensor(t_feat), T.Tensor(e_feat), T.Tensor(np.array([0.5])))
        expected = 0.25 * t_feat + 0.75 * e_feat
        assert np.abs(out.data - expected).max() < 1e-12

    def test_weights_stay_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            ent = T.Tensor(rng.uniform(size=3))
            sim = FU.patch_similarity(T.Tensor(rng.normal(size=(3, 4, 5))),
                                      T.Tensor(rng.normal(size=(3, 4, 5))))
            w = FU.fusion_weights(ent, sim)
            assert np.all(w.data >= 0.0) and np.all(w.data <= 1.0)

    def test_output_on_segment_between_inputs(self):
        rng = np.random.default_rng(7)
        t_feat = rng.normal(size=(2, 3, 4))
        e_feat = rng.normal(size=(2, 3, 4))
        out = FU.fuse(T.Tensor(t_feat), T.Tensor(e_feat),
                      T.Tensor(rng.uniform(size=2))).data
        lo = np.minimum(t_feat, e_feat) - 1e-12
        hi = np.maximum(t_feat, e_feat) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)

    def test_weight_monotone_in_entropy(self):
        rng = np.random.default_rng(8)
        sim = T.Tensor(rng.uniform(size=(1, 4)))
        levels = [FU.fusion_weights(T.Tensor(np.array([e])), sim).data
                  for e in (0.0, 0.3, 0.6, 0.9, 1.0)]
        for lower, higher in zip(levels, levels[1:]):
            assert np.all(higher <= lower + 1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            FU.fuse(T.Tensor(np.zeros((1, 2, 3))), T.Tensor(np.zeros((1, 2, 4))),
                    T.Tensor(np.zeros(1)))
        with pytest.raises(ShapeError):
            FU.fuse(T.Tensor(np.zeros((2, 2, 3))), T.Tensor(np.zeros((2, 2, 3))),
                    T.Tensor(np.zeros(3)))

    def test_gradient(self):
        rng = np.random.default_rng(9)
        t_feat = T.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        e_feat = T.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        ent = T.Tensor(rng.uniform(0.1, 0.9, size=2), requires_grad=True)
        mix = T.Tensor(rng.normal(size=(2, 3, 4)))

        def f():
            return (FU.fuse(t_feat, e_feat, ent) * mix).sum()

        errs = grad_check_many(f, [t_feat, e_feat, ent], eps=1e-6)
        assert errs.max() < 1e-5

    def test_blend_swap_semantics(self):
        rng = np.random.default_rng(10)
        t_feat = T.Tensor(rng.normal(size=(1, 2, 3)))
        e_feat = T.Tensor(rng.normal(size=(1, 2, 3)))
        w = T.Tensor(np.ones((1, 2)))
        assert np.array_equal(FU.blend(e_feat, t_feat, w).data, e_feat.data)
