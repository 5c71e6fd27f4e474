import json
import os

import numpy as np
import pytest

from seedcast import tensor as T
from seedcast.errors import ConfigError, InputError
from seedcast.model import VARIANTS, ModelConfig, SeedModel, apply_variant
from tests_helpers import count_params, grad_check_many, strided_windows

MICRO = dict(lookback=8, horizon=4, patch_len=4, d_model=8,
             heads=2, n_layers=1, n_vars=2)


# Version-4 config keys that checkpoint version 5 merged away.
MERGED_KEYS = (("attn_heads", 2), ("gcn_heads", 2), ("graph_variant", "softmax"))


def micro_config(**kw):
    return ModelConfig(**{**MICRO, **kw})


class TestModelConfig:
    def test_round_trip_dict(self):
        cfg = micro_config(seed=5, variant="re_s2", lam=0.3)
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_validation(self):
        with pytest.raises(ConfigError):
            micro_config(patch_len=9)  # > lookback
        with pytest.raises(ConfigError):
            micro_config(heads=3)  # does not divide d_model
        with pytest.raises(ConfigError):
            micro_config(variant="bogus")
        with pytest.raises(ConfigError):
            micro_config(lam=-1.0)
        with pytest.raises(ConfigError):
            micro_config(variant="re_f1", n_vars=None)
        for lam in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="lambda"):
                micro_config(lam=lam)

    def test_knn_k_checked_against_graph_nodes(self):
        for bad in (0, -1):
            with pytest.raises(ConfigError):
                micro_config(knn_k=bad)
        with pytest.raises(ConfigError):
            micro_config(knn_k=5)  # local windows hold 2 * n_vars = 4 nodes
        with pytest.raises(ConfigError):
            micro_config(knn_k=3, variant="re_c1")  # one step holds n_vars = 2 nodes
        micro_config(knn_k=100, variant="re_c2")  # global mode keeps every edge
        micro_config(knn_k=100, variant="wo_cse")  # no spatial pathway
        micro_config(knn_k=100, n_vars=None)  # node count unknown until forward
        w = np.random.default_rng(0).normal(size=(2, 8))
        for k, variant in ((4, "full"), (2, "re_c1")):
            out = SeedModel(micro_config(knn_k=k, variant=variant)).forward(w)
            assert out.shape == (2, 4) and np.all(np.isfinite(out.data))

    def test_from_dict_rejects_unknown_keys(self):
        d = {**micro_config().to_dict(), "revin": True, "per_head_q": False}
        with pytest.raises(ConfigError, match=r"\['per_head_q', 'revin'\]"):
            ModelConfig.from_dict(d)
        for key, value in MERGED_KEYS:
            with pytest.raises(ConfigError, match=key):
                ModelConfig.from_dict({**micro_config().to_dict(), key: value})

    @pytest.mark.parametrize("name", ["lookback", "horizon", "patch_len", "d_model", "heads",
                                      "n_layers", "seed", "knn_k", "n_vars"])
    @pytest.mark.parametrize("value", [4.0, 2.5, True, "4"])
    def test_integer_fields_reject_non_integers(self, name, value):
        with pytest.raises(ConfigError, match=name):
            micro_config(**{name: value})

    def test_numpy_integers_become_ints(self, tmp_path):
        cfg = micro_config(d_model=np.int64(8), knn_k=np.int32(2), n_vars=np.int16(2))
        assert cfg == micro_config(knn_k=2) and type(cfg.n_vars) is int
        path = os.path.join(tmp_path, "m.ckpt")
        SeedModel(cfg).save(path)  # the config JSON holds plain ints
        assert SeedModel.load(path).config == cfg

    @pytest.mark.parametrize("lam", ["0.1", None, True])
    def test_lambda_must_be_a_number(self, lam):
        with pytest.raises(ConfigError, match="lambda"):
            micro_config(lam=lam)

    def test_horizon_one_needs_zero_lambda(self):
        # The entropy-matching loss takes the spectral entropy of a horizon-long forecast.
        with pytest.raises(ConfigError, match="horizon >= 2"):
            micro_config(horizon=1)
        assert micro_config(horizon=1, lam=0.0).horizon == 1

    def test_one_patch_only_without_local_windows(self):
        # A local window pairs each patch with the next, so it needs two patches.
        one_patch = ("wo_cse", "re_c1", "re_c2")
        for variant in one_patch:
            model = SeedModel(micro_config(patch_len=8, variant=variant))
            out = model.forward(np.random.default_rng(0).normal(size=(2, 8)))
            assert out.shape == (2, 4) and np.all(np.isfinite(out.data))
        for variant in (v for v in VARIANTS if v not in one_patch):
            with pytest.raises(ConfigError, match="at least 2 patches"):
                micro_config(patch_len=8, variant=variant)

    @pytest.mark.parametrize("kw", [dict(n_vars=0), dict(n_vars=-2, variant="re_f1"),
                                    dict(n_vars=-2, knn_k=3), dict(seed=-1)])
    def test_out_of_range_fields(self, kw):
        name = next(iter(kw))
        with pytest.raises(ConfigError, match=f"{name} must be >= "):
            micro_config(**kw)

    def test_n_patches_ceil(self):
        assert ModelConfig(lookback=96, patch_len=20).n_patches == 5
        assert ModelConfig(lookback=96, patch_len=16).n_patches == 6


class TestApplyVariant:
    def test_full_wiring(self):
        w = apply_variant(micro_config())
        assert w == {"temporal": True, "spatial": True, "graph": "tanh",
                     "spatial_mode": "local", "fusion": "entropy_sim"}

    def test_pathway_removal(self):
        assert apply_variant(micro_config(variant="wo_tattn"))["temporal"] is False
        assert apply_variant(micro_config(variant="wo_cse"))["spatial"] is False

    def test_graph_replacements(self):
        assert apply_variant(micro_config(variant="re_s1"))["graph"] == "plain"
        assert apply_variant(micro_config(variant="re_s2"))["graph"] == "softmax"

    def test_cse_replacements(self):
        assert apply_variant(micro_config(variant="re_c1"))["spatial_mode"] == "same_step"
        assert apply_variant(micro_config(variant="re_c2"))["spatial_mode"] == "global"

    def test_every_variant_resolves(self):
        for v in VARIANTS:
            apply_variant(micro_config(variant=v))


class TestForward:
    def test_contract_shape_and_finite(self):
        cfg = ModelConfig(lookback=96, horizon=96, n_vars=7, seed=0)
        model = SeedModel(cfg)
        out = model.forward(np.random.default_rng(0).normal(size=(7, 96)))
        assert out.shape == (7, 96)
        assert np.all(np.isfinite(out.data))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_univariate_input(self, variant):
        # One variable makes one-node same_step graphs; the default knn_k fits them.
        w = np.random.default_rng(2).normal(size=(1, 8))
        out = SeedModel(micro_config(n_vars=1, variant=variant)).forward(w)
        assert out.shape == (1, 4) and np.all(np.isfinite(out.data))

    def test_determinism_bit_identical(self):
        w = np.random.default_rng(1).normal(size=(2, 8))
        a = SeedModel(micro_config(seed=9)).forward(w).data
        b = SeedModel(micro_config(seed=9)).forward(w).data
        assert np.array_equal(a, b)

    def test_batched_matches_single(self):
        model = SeedModel(micro_config(seed=2))
        batch = np.random.default_rng(3).normal(size=(4, 2, 8))
        out = model.forward(batch).data
        for i in range(4):
            assert np.abs(out[i] - model.forward(batch[i]).data).max() < 1e-12

    def test_shape_validation(self):
        model = SeedModel(micro_config())
        with pytest.raises(ConfigError):
            model.forward(np.zeros((2, 9)))
        with pytest.raises(ConfigError):
            model.forward(np.zeros((3, 8)))

    def test_non_finite_window_rejected(self):
        model = SeedModel(micro_config())
        batch = np.random.default_rng(13).normal(size=(3, 2, 8))
        for bad in (np.nan, np.inf, -np.inf):
            w = batch.copy()
            w[1, 0, 5] = bad  # one value of one variable in one window
            with pytest.raises(InputError):
                model.forward(w)
            with pytest.raises(InputError):
                model.forward(w[1])

    def test_every_variant_runs(self):
        w = np.random.default_rng(4).normal(size=(2, 8))
        for v in VARIANTS:
            out = SeedModel(micro_config(variant=v, seed=1)).forward(w)
            assert out.shape == (2, 4)
            assert np.all(np.isfinite(out.data))

    def test_constant_channel_is_finite(self):
        w = np.stack([np.full(8, 3.5), np.random.default_rng(5).normal(size=8)])
        model = SeedModel(micro_config(seed=6))
        assert np.all(np.isfinite(model.forward(w).data))
        assert model.entropy_of(w)[0] == 0.0  # degenerate row maps to zero


class TestEntropyOf:
    def test_batched_gives_one_row_per_window(self):
        model = SeedModel(micro_config(seed=6))
        batch = np.random.default_rng(14).normal(size=(4, 2, 8))
        ent = model.entropy_of(batch)
        assert ent.shape == (4, 2)
        for i in range(4):
            assert np.array_equal(ent[i], model.entropy_of(batch[i]))
        assert model.entropy_of(batch[0]).shape == (2,)

    def test_non_finite_window_rejected(self):
        model = SeedModel(micro_config())
        batch = np.random.default_rng(15).normal(size=(3, 2, 8))
        batch[2, 1, 0] = np.nan
        with pytest.raises(InputError):
            model.entropy_of(batch)
        with pytest.raises(InputError):
            model.entropy_of(batch[2])


class TestWindowLayout:
    """A strided window view, as make_splits hands out, forecasts like its copy."""

    def test_forward_no_tape(self):
        model = SeedModel(micro_config(seed=2))
        view, copy = strided_windows(6, 2, 8, seed=16)
        with T.no_grad():
            assert np.array_equal(model.forward(view).data, model.forward(copy).data)
            assert np.array_equal(model.forward(view[3]).data, model.forward(copy[3]).data)

    def test_forward_taped(self):
        model = SeedModel(micro_config(seed=2))
        view, copy = strided_windows(6, 2, 8, seed=17)
        assert np.array_equal(model.forward(view).data, model.forward(copy).data)

    def test_entropy_of(self):
        model = SeedModel(micro_config(seed=6))
        view, copy = strided_windows(6, 2, 8, seed=18)
        assert np.array_equal(model.entropy_of(view), model.entropy_of(copy))
        assert np.array_equal(model.entropy_of(view[1]), model.entropy_of(copy[1]))


def _default_model(variant="full", n_vars=8):
    return SeedModel(ModelConfig(n_vars=n_vars, variant=variant, seed=21))


def _windows(n, n_vars, seed):
    return np.random.default_rng(seed).normal(size=(n, n_vars, 96)).cumsum(axis=-1)


class TestBlockedForward:
    @pytest.mark.parametrize("variant", ["full", "wo_cse", "re_c2"])
    def test_blocks_equal_per_window_forwards(self, variant):
        model = _default_model(variant)
        step = model.block_windows(8)
        batch = _windows(2 * step + 5, 8, seed=22)  # two full blocks and a partial one
        assert 1 < step < len(batch) and len(batch) % step
        with T.no_grad():
            out = model.forward(batch)
            assert out.shape == (len(batch), 8, 96) and not out.requires_grad
            for i, w in enumerate(batch):
                assert np.abs(out.data[i] - model.forward(w).data).max() <= 1e-12

    def test_single_window_keeps_its_shape(self):
        model = _default_model()
        with T.no_grad():
            assert model.forward(_windows(1, 8, seed=23)[0]).shape == (8, 96)

    def test_wide_input_runs_in_few_window_blocks(self):
        model = _default_model(n_vars=21)
        step = model.block_windows(21)
        assert 1 <= step <= 4  # 4 heads x 5 graphs of 42 x 42 nodes per window
        batch = _windows(2 * step + 1, 21, seed=24)
        with T.no_grad():
            out = model.forward(batch).data
            for i, w in enumerate(batch):
                assert np.abs(out[i] - model.forward(w).data).max() <= 1e-12

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_empty_batch_keeps_its_shape(self, variant):
        model = SeedModel(micro_config(variant=variant))
        with T.no_grad():
            assert model.forward(np.zeros((0, 2, 8))).shape == (0, 2, 4)

    def test_taped_forward_is_one_block(self, monkeypatch):
        model = _default_model()
        calls = []
        block = SeedModel._forward_block

        def counted(self, x):
            calls.append(len(x))
            return block(self, x)

        monkeypatch.setattr(SeedModel, "_forward_block", counted)
        step = model.block_windows(8)
        batch = _windows(2 * step + 5, 8, seed=25)
        out = model.forward(batch)
        assert calls == [len(batch)] and out.requires_grad
        out.sum().backward()
        assert model.embed.weight.grad is not None  # the tape reaches the first layer
        calls.clear()
        with T.no_grad():
            model.forward(batch)
        assert calls == [step, step, 5]

    @pytest.mark.parametrize("variant", ["full", "wo_tattn", "wo_cse", "re_f1", "re_f3"])
    def test_entropy_only_where_the_fusion_reads_it(self, monkeypatch, variant):
        import seedcast.model as M

        model = _default_model(variant)
        calls = []
        entropy = M.entropy_tensor

        def counted(*args, **kwargs):
            calls.append(1)
            return entropy(*args, **kwargs)

        monkeypatch.setattr(M, "entropy_tensor", counted)
        step = model.block_windows(8)
        batch = _windows(2 * step + 5, 8, seed=26)
        with T.no_grad():
            model.forward(batch)
        blocks = -(-len(batch) // step)
        assert len(calls) == (blocks if variant == "full" else 0)
        calls.clear()
        model.entropy_of(batch)
        assert len(calls) == 1


class TestChannelIndependence:
    def test_wo_cse_channels_never_mix(self):
        cfg = micro_config(variant="wo_cse", seed=7, n_vars=3)
        model = SeedModel(cfg)
        rng = np.random.default_rng(8)
        base = rng.normal(size=(3, 8))
        ref = model.forward(base).data
        for _ in range(25):
            j = int(rng.integers(0, 3))
            pert = base.copy()
            pert[j] += rng.normal(size=8)
            out = model.forward(pert).data
            for i in range(3):
                if i != j:
                    assert np.array_equal(out[i], ref[i])


def _force_fusion_weight(monkeypatch, w):
    """Make the full variant's fusion blend with a constant weight ``w``."""
    import seedcast.model as M

    monkeypatch.setitem(M._FUSIONS, "entropy_sim", lambda t, e, ent, lp: M.blend(
        t, e, T.Tensor(np.full(t.shape[:-1], w))))


class TestVariantNesting:
    def test_forced_weight_one_equals_wo_cse(self, monkeypatch):
        w = np.random.default_rng(9).normal(size=(2, 8))
        full = SeedModel(micro_config(seed=10))
        ablated = SeedModel(micro_config(seed=10, variant="wo_cse"))
        _force_fusion_weight(monkeypatch, 1.0)
        assert np.array_equal(full.forward(w).data, ablated.forward(w).data)

    def test_forced_weight_zero_equals_wo_tattn(self, monkeypatch):
        w = np.random.default_rng(10).normal(size=(2, 8))
        full = SeedModel(micro_config(seed=11))
        ablated = SeedModel(micro_config(seed=11, variant="wo_tattn"))
        _force_fusion_weight(monkeypatch, 0.0)
        assert np.array_equal(full.forward(w).data, ablated.forward(w).data)


class TestScaleInvariance:
    def test_entropy_invariant_under_affine_rescale(self):
        model = SeedModel(micro_config(seed=12))
        w = np.random.default_rng(11).normal(size=(2, 8))
        base = model.entropy_of(w)
        scaled = model.entropy_of(2.0 * w + 3.0)
        assert np.abs(base - scaled).max() < 1e-12


class TestCountParams:
    def test_projection_head_size(self):
        cfg = ModelConfig(lookback=96, horizon=96, patch_len=16, d_model=64, n_vars=7)
        model = SeedModel(cfg)
        head = model.head.weight.size + model.head.bias.size
        assert head == 384 * 96 + 96 == 36_960

    def test_doubling_width_more_than_doubles(self):
        small = count_params(SeedModel(micro_config(seed=0)))
        big = count_params(SeedModel(micro_config(seed=0, d_model=16)))
        assert big > 2 * small

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_closed_form_oracle(self, variant):
        cfg = micro_config(variant=variant)
        model = SeedModel(cfg)
        wiring = apply_variant(cfg)
        L, P, D, T_ = cfg.lookback, cfg.patch_len, cfg.d_model, cfg.horizon
        N, H, C = cfg.n_patches, cfg.heads, cfg.n_vars
        d_h = D // H
        per_layer = (D * 2 * D + 2 * D + 2 * D * D + D  # feed-forward
                     + 4 * D)                           # two layer norms
        if wiring["temporal"]:
            per_layer += 4 * D * D + 4 * D              # attention
        if wiring["spatial"]:
            per_layer += (d_h * d_h                     # shared distance form
                          + H * d_h * d_h)              # gcn head transforms
        per_layer += {"learned_scalar": C,              # re_f1: one scalar per variable
                      "learned_map": 2 * D + 1}.get(wiring["fusion"], 0)  # re_f3
        expected = (P * D + D               # embedding
                    + cfg.n_layers * per_layer
                    + N * D * T_ + T_)      # head
        assert count_params(model) == expected
        # The L shaping-filter gains exist only where they train: with an
        # attached entropy that the fusion reads.
        trained = SeedModel(micro_config(variant=variant, detach_entropy=False))
        reads_entropy = wiring["fusion"] in ("entropy_sim", "swapped")
        assert count_params(trained) == expected + L * reads_entropy


class TestParameterWiring:
    @pytest.mark.parametrize("detach", [True, False])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_parameter_gets_gradient(self, variant, detach):
        from seedcast.training import total_loss

        model = SeedModel(micro_config(variant=variant, detach_entropy=detach, seed=1))
        rng = np.random.default_rng(26)
        total_loss(rng.normal(size=(3, 2, 4)), model.forward(rng.normal(size=(3, 2, 8))),
                   0.1).backward()
        for name, p in model.named_params().items():
            assert p.grad is not None, name
            assert np.any(p.grad != 0), name

    def test_shared_seed_shares_every_draw(self):
        def params(variant):
            cfg = micro_config(variant=variant, seed=27, n_layers=2, detach_entropy=False)
            return {k: p.data for k, p in SeedModel(cfg).named_params().items()}

        full = params("full")
        fusion = {f"layer{i}.fuse.{k}" for i in range(2) for k in ("theta", "w", "b")}
        for variant in VARIANTS:
            kept = params(variant)
            assert kept.keys() - full.keys() <= fusion, variant
            for name in kept.keys() & full.keys():
                assert kept[name].tobytes() == full[name].tobytes(), (variant, name)


def _saved(tmp_path, **kw):
    model = SeedModel(micro_config(seed=13, **kw))
    path = os.path.join(tmp_path, "m.ckpt")
    model.save(path)
    return model, path


def _saved_with_meta(tmp_path, edit):
    """Path of a saved micro checkpoint whose JSON metadata went through ``edit``."""
    model, path = _saved(tmp_path)
    with np.load(path, allow_pickle=False) as ckpt:
        arrays = dict(ckpt)
    (key,) = arrays.keys() - model.named_params().keys()
    arrays[key] = np.array(json.dumps(edit(json.loads(arrays[key].item()))))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return path


def _rewrite(path, raw):
    with open(path, "wb") as fh:
        fh.write(raw)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        w = np.random.default_rng(12).normal(size=(2, 8))
        for detach in (True, False):
            model, path = _saved(tmp_path, detach_entropy=detach)
            assert ("filter.gain" in model.named_params()) is not detach
            again = SeedModel.load(path)
            assert again.config == model.config
            assert again.named_params().keys() == model.named_params().keys()
            assert np.array_equal(again.forward(w).data, model.forward(w).data)

    def test_save_is_npz_under_the_given_name(self, tmp_path):
        model, path = _saved(tmp_path)
        assert sorted(os.listdir(tmp_path)) == ["m.ckpt"]  # no ".npz" suffix, no temp file
        with np.load(path, allow_pickle=False) as ckpt:
            for name, p in model.named_params().items():
                assert ckpt[name].dtype == np.float64
                assert np.array_equal(ckpt[name], p.data)

    def test_bad_magic(self, tmp_path):
        path = os.path.join(tmp_path, "junk.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"NOTAMODEL" * 4)
        with pytest.raises(ConfigError):
            SeedModel.load(path)

    def test_truncated(self, tmp_path):
        _, path = _saved(tmp_path)
        raw = open(path, "rb").read()
        for cut in (0, 3, 30, 400, len(raw) // 2, len(raw) - 200, len(raw) - 1):
            _rewrite(path, raw[:cut])
            with pytest.raises(ConfigError):
                SeedModel.load(path)

    def test_single_flipped_byte(self, tmp_path):
        model, path = _saved(tmp_path, lookback=96, horizon=96, patch_len=16)
        raw = open(path, "rb").read()
        weights = raw.find(model.head.weight.data.tobytes())
        # "<f8" -> "<f4" on the 36 kB head keeps its shape but halves the bytes
        # read, so the CRC of that member is checked only by a full scan.
        descr = raw.find(b"'descr': '<f8'", raw.find(b"head.weight.npy"))
        descr += len(b"'descr': '<f")
        meta = raw.find(b'"version"')
        central = raw.rfind(b"PK\x01\x02")  # last central-directory entry
        for off, mask in ((weights + 100, 0x01), (descr, 0x0C), (meta + 3, 0x20),
                          (central + 10, 0xFF),       # its compression method
                          (len(raw) - 30, 0xFF)):     # its file name
            flipped = bytearray(raw)
            flipped[off] ^= mask
            _rewrite(path, bytes(flipped))
            with pytest.raises(ConfigError):
                SeedModel.load(path)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 6])
    def test_version_mismatch(self, tmp_path, version):
        path = _saved_with_meta(tmp_path, lambda meta: {**meta, "version": version})
        with pytest.raises(ConfigError, match="version"):
            SeedModel.load(path)

    def test_unknown_config_key(self, tmp_path):
        for key, value in (("revin", True),) + MERGED_KEYS:
            path = _saved_with_meta(
                tmp_path, lambda meta: {**meta, "config": {**meta["config"], key: value}})
            with pytest.raises(ConfigError, match=key):
                SeedModel.load(path)

    @pytest.mark.parametrize("key, value", [("knn_k", 3.5), ("heads", 2.0), ("n_vars", -2)])
    def test_bad_config_value(self, tmp_path, key, value):
        # Rejected on load, not at the first forecast.
        path = _saved_with_meta(
            tmp_path, lambda meta: {**meta, "config": {**meta["config"], key: value}})
        with pytest.raises(ConfigError, match=key):
            SeedModel.load(path)

    def test_state_shape_mismatch(self):
        model = SeedModel(micro_config())
        other = SeedModel(micro_config(d_model=16))
        with pytest.raises(ConfigError):
            other.load_state_arrays(model.state_arrays())

    def test_state_missing_parameter(self):
        model = SeedModel(micro_config())
        state = model.state_arrays()
        del state["head.bias"]
        with pytest.raises(ConfigError, match="head.bias"):
            model.load_state_arrays(state)
        # A default model has no filter, so its state cannot fill a trained one.
        with pytest.raises(ConfigError, match="filter"):
            SeedModel(micro_config(detach_entropy=False)).load_state_arrays(model.state_arrays())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_state_nonfinite_parameter(self, bad):
        model = SeedModel(micro_config())
        before = model.state_arrays()
        state = {k: v + 1.0 for k, v in before.items()}
        state["head.bias"][0] = bad
        with pytest.raises(ConfigError, match="'head.bias'.*non-finite"):
            model.load_state_arrays(state)
        after = model.state_arrays()
        assert all(np.array_equal(before[k], after[k]) for k in before)


class TestFullModelGradient:
    def test_micro_config_gradients(self):
        rng = np.random.default_rng(42)
        w = rng.normal(size=(2, 8))
        y = rng.normal(size=(2, 4))
        cfg = micro_config(seed=3, detach_entropy=False)
        model = SeedModel(cfg)

        from seedcast.training import total_loss

        def f():
            return total_loss(y, model.forward(w), 0.1)

        errs = grad_check_many(f, model.params(), eps=1e-5)
        assert (errs < 1e-4).mean() >= 0.99
