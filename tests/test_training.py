import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import seedcast
from seedcast import data as D
from seedcast import tensor as T
from seedcast import training as TR
from seedcast.errors import ConfigError, DataError, ShapeError
from seedcast.model import ModelConfig, SeedModel
from seedcast.spectral import spectral_entropy
from tests_helpers import grad_check, persistence_report, strided_windows, tape_bytes


class TestLossPred:
    def test_perfect_prediction(self):
        y = np.random.default_rng(0).normal(size=(3, 5))
        assert TR.loss_pred(y, T.Tensor(y.copy())).item() == 0.0

    def test_scalar_arithmetic(self):
        out = TR.loss_pred(np.array([[1.0, 2.0]]), T.Tensor(np.array([[0.0, 0.0]])))
        assert out.item() == pytest.approx(2.5, abs=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        y, yhat = rng.normal(size=(4, 7)), rng.normal(size=(4, 7))
        ref = sum((yhat[i, j] - y[i, j]) ** 2 for i in range(4) for j in range(7)) / 28
        assert abs(TR.loss_pred(y, T.Tensor(yhat)).item() - ref) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            TR.loss_pred(np.zeros((2, 3)), T.Tensor(np.zeros((3, 2))))


class TestLossSpen:
    def test_identical_series(self):
        y = np.random.default_rng(2).normal(size=(2, 32))
        assert TR.loss_spen(y, T.Tensor(y.copy())).item() == 0.0

    def test_tone_vs_noise_strictly_positive(self):
        t = np.arange(64)
        y = np.sin(2 * np.pi * t / 16)[None]
        yhat = np.random.default_rng(3).normal(size=(1, 64))
        val = TR.loss_spen(y, T.Tensor(yhat)).item()
        ref = (spectral_entropy(y[0]) - spectral_entropy(yhat[0])) ** 2
        assert val == pytest.approx(ref, abs=1e-12)
        assert val > 0

    def test_bounded_by_one(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            val = TR.loss_spen(rng.normal(size=(3, 16)),
                               T.Tensor(rng.normal(size=(3, 16)))).item()
            assert 0.0 <= val <= 1.0

    def test_single_series(self):
        rng = np.random.default_rng(9)
        y, yhat = rng.normal(size=32), rng.normal(size=32)
        ref = (spectral_entropy(y) - spectral_entropy(yhat)) ** 2
        assert TR.loss_spen(y, T.Tensor(yhat)).item() == pytest.approx(ref, abs=1e-12)

    def test_constant_series_uses_zero_entropy(self):
        y = np.full((1, 16), 2.0)
        yhat = np.random.default_rng(5).normal(size=(1, 16))
        ref = (0.0 - spectral_entropy(yhat[0])) ** 2
        assert TR.loss_spen(y, T.Tensor(yhat)).item() == pytest.approx(ref, abs=1e-12)


class TestWindowLayout:
    """Targets as strided views, as make_splits hands them out, score like copies."""

    def test_target_entropy(self):
        view, copy = strided_windows(40, 8, 96, seed=14)
        assert np.array_equal(TR.target_entropy(view), TR.target_entropy(copy))

    def test_loss_spen_and_loss_pred(self):
        view, copy = strided_windows(40, 8, 96, seed=15)
        yhat = T.Tensor(np.random.default_rng(16).normal(size=copy.shape))
        assert TR.loss_spen(view, yhat).item() == TR.loss_spen(copy, yhat).item()
        assert TR.loss_pred(view, yhat).item() == TR.loss_pred(copy, yhat).item()


class TestTotalLoss:
    def test_lambda_zero_is_pred_only(self):
        rng = np.random.default_rng(6)
        y, yhat = rng.normal(size=(2, 8)), rng.normal(size=(2, 8))
        assert (TR.total_loss(y, T.Tensor(yhat), 0.0).item()
                == TR.loss_pred(y, T.Tensor(yhat)).item())

    def test_lambda_one_sums_components(self):
        rng = np.random.default_rng(7)
        y, yhat = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
        total = TR.total_loss(y, T.Tensor(yhat), 1.0).item()
        ref = TR.loss_pred(y, T.Tensor(yhat)).item() + TR.loss_spen(y, T.Tensor(yhat)).item()
        assert total == pytest.approx(ref, abs=1e-14)

    def test_gradient_wrt_prediction(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=(2, 16))
        err = grad_check(lambda t: TR.total_loss(y, t, 0.5),
                         T.Tensor(rng.normal(size=(2, 16))), eps=1e-6)
        assert err < 1e-5

    def test_negative_lambda(self):
        with pytest.raises(ConfigError):
            TR.total_loss(np.zeros((1, 4)), T.Tensor(np.zeros((1, 4))), -0.5)

    def test_train_config_checks_lambda(self):
        # The loss weight lives in ModelConfig alone; train() reads it there.
        with pytest.raises(TypeError, match="lam"):
            TR.TrainConfig(lam=0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_train_config_rejects_non_finite(self, value):
        with pytest.raises(ConfigError, match="learning_rate"):
            TR.TrainConfig(learning_rate=value)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 2.5), ("batch_size", 8.0), ("patience", True), ("seed", 1.5),
        ("seed", -1), ("epochs", "3"), ("learning_rate", "x"), ("learning_rate", True),
    ])
    def test_train_config_rejects_wrong_types(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TR.TrainConfig(**{field: value})

    def test_train_config_keeps_integers_as_ints(self):
        cfg = TR.TrainConfig(epochs=np.int64(2), batch_size=np.int32(8), seed=np.int64(0))
        assert [type(v) for v in (cfg.epochs, cfg.batch_size, cfg.seed)] == [int, int, int]


class TestEvaluate:
    class _Oracle:
        """Duck-typed stand-in whose forward returns preset answers."""

        def __init__(self, answers):
            self.answers = answers

        def forward(self, x):
            return T.Tensor(self.answers[: x.shape[0]])

    def test_perfect_model_scores_zero(self):
        rng = np.random.default_rng(9)
        split = TR.SplitWindows(x=rng.normal(size=(4, 2, 8)), y=rng.normal(size=(4, 2, 6)))
        report = TR.evaluate(self._Oracle(split.y.copy()), split)
        assert report.mse == 0.0 and report.mae == 0.0

    def test_constant_error_relation(self):
        rng = np.random.default_rng(10)
        split = TR.SplitWindows(x=rng.normal(size=(3, 2, 8)), y=rng.normal(size=(3, 2, 6)))
        e = 0.7
        report = TR.evaluate(self._Oracle(split.y + e), split)
        assert report.mse == pytest.approx(e**2, abs=1e-12)
        assert report.mae == pytest.approx(e, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(11)
        split = TR.SplitWindows(x=rng.normal(size=(2, 2, 8)), y=rng.normal(size=(2, 2, 3)))
        yhat = rng.normal(size=(2, 2, 3))
        report = TR.evaluate(self._Oracle(yhat), split)
        errs = [yhat[m][c][t] - split.y[m][c][t]
                for m in range(2) for c in range(2) for t in range(3)]
        assert report.mse == pytest.approx(np.mean([e**2 for e in errs]), abs=1e-10)
        assert report.mae == pytest.approx(np.mean([abs(e) for e in errs]), abs=1e-10)
        assert len(report.horizon_mse) == 3

    def test_strided_split_matches_copy(self):
        model = SeedModel(ModelConfig(lookback=24, horizon=8, patch_len=8, d_model=8,
                                      heads=2, n_layers=1, n_vars=3, seed=3))
        view, copy = strided_windows(300, 3, 32, seed=12)  # more than one batch of 256
        strided = TR.evaluate(model, TR.SplitWindows(view[..., :24], view[..., 24:]))
        contiguous = TR.evaluate(model, TR.SplitWindows(copy[..., :24], copy[..., 24:]))
        assert strided.mse == contiguous.mse and strided.mae == contiguous.mae
        assert strided.horizon_mse == contiguous.horizon_mse
        assert strided.horizon_mae == contiguous.horizon_mae

    def test_persistence_strided_split_matches_copy(self):
        view, copy = strided_windows(200, 4, 32, seed=14)
        strided = persistence_report(TR.SplitWindows(view[..., :24], view[..., 24:]))
        contiguous = persistence_report(TR.SplitWindows(copy[..., :24], copy[..., 24:]))
        assert strided.to_dict() == contiguous.to_dict()

    def test_one_forward_per_batch(self):
        model = tiny_model(seed=3)
        view, _ = strided_windows(300, 1, 32, seed=13)
        split = TR.SplitWindows(view[..., :24], view[..., 24:])
        sizes = []
        forward = model.forward
        model.forward = lambda x: sizes.append(len(x)) or forward(x)
        report = TR.evaluate(model, split)
        assert sizes == [256, 44]
        model.forward = forward
        with T.no_grad():
            whole = model.forward(split.x).data
        assert report.mse == float(((whole - split.y) ** 2).mean())

    def test_report_json_fields(self):
        report = TR.MetricsReport(1.0, 0.5, [1.0], [0.5], epochs=2, seconds=0.1)
        d = report.to_dict()
        assert set(d) == {"mse", "mae", "horizon", "epochs", "seconds"}


def tiny_sine_splits(length=400, lookback=24, horizon=8):
    t = np.arange(length)
    values = np.sin(2 * np.pi * t / 12)[:, None]
    ds = D.Dataset("sine", values, split_ratio=(6, 2, 2))
    return D.make_splits(ds, lookback, horizon)


def tiny_model(seed=0, **kw):
    cfg = ModelConfig(lookback=24, horizon=8, patch_len=8, d_model=8,
                      heads=2, n_layers=1, n_vars=1, seed=seed, **kw)
    return SeedModel(cfg)


class TestTrain:
    def test_zero_epochs_returns_initialized_model(self):
        splits = tiny_sine_splits()
        model = tiny_model(seed=1)
        before = model.state_arrays()
        model, report = TR.train(model, splits, TR.TrainConfig(epochs=0, seed=1))
        after = model.state_arrays()
        assert all(np.array_equal(before[k], after[k]) for k in before)
        assert report.epochs == 0 and np.isfinite(report.mse)

    def test_sine_beats_persistence(self):
        splits = tiny_sine_splits()
        model = tiny_model(seed=2)
        cfg = TR.TrainConfig(epochs=50, batch_size=32, learning_rate=3e-3,
                             patience=50, seed=2)
        model, report = TR.train(model, splits, cfg)
        assert report.mse < persistence_report(splits.test).mse

    def test_same_seed_identical_reports(self):
        splits = tiny_sine_splits()
        cfg = TR.TrainConfig(epochs=3, seed=5)
        _, r1 = TR.train(tiny_model(seed=5), splits, cfg)
        _, r2 = TR.train(tiny_model(seed=5), splits, cfg)
        assert r1.mse == r2.mse and r1.mae == r2.mae
        assert r1.horizon_mse == r2.horizon_mse
        assert r1.epochs == r2.epochs

    @pytest.mark.parametrize("lam", [0.0, 0.25])
    def test_loss_weight_comes_from_the_model_config(self, lam, monkeypatch):
        weights = []
        total_loss = TR.total_loss

        def spy(y, yhat, weight):
            weights.append(weight)
            return total_loss(y, yhat, weight)

        monkeypatch.setattr(TR, "total_loss", spy)
        TR.train(tiny_model(seed=4, lam=lam), tiny_sine_splits(), TR.TrainConfig(epochs=1))
        assert len(weights) > 1 and set(weights) == {lam}

    def test_loss_decreases_over_first_epochs(self):
        splits = tiny_sine_splits()
        model = tiny_model(seed=3)
        opt = TR.Adam(model.params(), 3e-3)
        rng = np.random.default_rng(3)
        epoch_means = []
        for _ in range(5):
            order = rng.permutation(len(splits.train))
            losses = []
            for lo in range(0, len(order), 32):
                idx = order[lo : lo + 32]
                loss = TR.total_loss(splits.train.y[idx],
                                     model.forward(splits.train.x[idx]), 0.1)
                opt.zero_grad()
                loss.backward()
                opt.step()
                losses.append(loss.item())
            epoch_means.append(np.mean(losses))
        assert all(b < a for a, b in zip(epoch_means, epoch_means[1:]))

    def test_early_stopping_restores_best_validation(self):
        splits = tiny_sine_splits()
        history = []
        model = tiny_model(seed=7)
        cfg = TR.TrainConfig(epochs=12, batch_size=32, learning_rate=1e-2,
                             patience=2, seed=7)
        model, report = TR.train(model, splits, cfg,
                                 on_epoch=lambda e, v: history.append(v))
        final_val = TR.validation_mse(model, splits.val)
        assert final_val == pytest.approx(min(history), abs=1e-15)

    def test_divergence_error_has_context(self):
        splits = tiny_sine_splits()
        model = tiny_model(seed=8)
        model.head.weight.data[:] = 1e200  # guarantees a non-finite loss
        with pytest.raises(TR.DivergenceError, match="epoch 0"):
            TR.train(model, splits, TR.TrainConfig(epochs=1, seed=8))

    def test_non_finite_parameter_ends_training_at_its_step(self, monkeypatch):
        # A step that overflows a parameter stops training there, named, before a
        # later loss or the validation pass reads it.
        splits = tiny_sine_splits()
        model = tiny_model(seed=8)
        name, broken = list(model.named_params().items())[2]
        step = TR.Adam.step

        def overflowing(opt):
            step(opt)
            if opt.t == 2:
                broken.data = broken.data * np.inf

        monkeypatch.setattr(TR.Adam, "step", overflowing)
        with pytest.raises(TR.DivergenceError,
                           match=rf"non-finite parameter '{name}' at epoch 0, step 1$"):
            TR.train(model, splits, TR.TrainConfig(epochs=1, batch_size=8, seed=8))

    def test_empty_split_rejected(self):
        splits = tiny_sine_splits()
        bad = TR.DatasetSplits(train=TR.SplitWindows(np.zeros((0, 1, 24)), np.zeros((0, 1, 8))),
                               val=splits.val, test=splits.test)
        with pytest.raises(DataError):
            TR.train(tiny_model(), bad, TR.TrainConfig(epochs=1))


def _traced_peak(fn) -> int:
    """Bytes ``fn()`` holds at its peak above what was live when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestStepMemory:
    def test_train_keeps_one_live_tape(self, monkeypatch):
        rng = np.random.default_rng(0)
        t = np.arange(600)[:, None]
        values = np.sin(2 * np.pi * t / (6 + np.arange(4))) + 0.1 * rng.normal(size=(600, 4))
        splits = D.make_splits(D.Dataset("sines", values, split_ratio=(6, 2, 2)), 24, 8)
        cfg = ModelConfig(lookback=24, horizon=8, patch_len=8, d_model=16, heads=2,
                          n_layers=1, n_vars=4, seed=0)
        batch = 32
        model = SeedModel(cfg)
        idx = np.arange(batch)

        def loss():
            return TR.total_loss(splits.train.y[idx], model.forward(splits.train.x[idx]),
                                 cfg.lam)

        tape = tape_bytes(loss())
        step_peak = _traced_peak(lambda: loss().backward())
        train_cfg = TR.TrainConfig(epochs=1, batch_size=batch, seed=0)
        assert len(splits.train) >= 4 * batch  # several steps, each after a finished one
        # The epoch's no-tape passes over the validation and test windows, 3.5 batches
        # each, keep no tape, but their transients can outgrow a step's peak: stub them,
        # so that the steps set the epoch's peak.
        monkeypatch.setattr(TR, "validation_mse", lambda model, split: 0.0)
        monkeypatch.setattr(TR, "evaluate",
                            lambda model, split: TR.MetricsReport(0.0, 0.0, [], []))
        epoch_peak = _traced_peak(lambda: TR.train(SeedModel(cfg), splits, train_cfg))
        # Holding the previous step's tape while building the next adds 0.7-0.9 tapes here.
        assert epoch_peak < step_peak + tape / 2

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc policy")
    def test_freed_pages_stay_in_the_process(self):
        script = textwrap.dedent("""
            import resource
            import numpy as np
            import seedcast

            def round_faults():
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                arrays = [np.ones(1 << 20) for _ in range(20)]  # 8 MiB each, touched
                del arrays
                return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

            print(round_faults(), round_faults())
        """)
        src = os.path.dirname(os.path.dirname(seedcast.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        first, second = map(int, out.stdout.split())
        assert second < 0.1 * first  # glibc's default policy reads about 1x


class TestEntropyLossDrivesEntropy:
    def test_gradient_descent_shrinks_entropy_gap_monotonically(self):
        t = np.arange(32)
        y = np.sin(2 * np.pi * t / 8)[None]  # low-entropy target
        rng = np.random.default_rng(12)
        yhat = T.Tensor(rng.normal(size=(1, 32)) * 0.5, requires_grad=True)
        target_ent = spectral_entropy(y[0])
        gaps = [abs(spectral_entropy(yhat.data[0]) - target_ent)]
        for _ in range(25):
            loss = TR.loss_spen(y, yhat)
            yhat.zero_grad()
            loss.backward()
            yhat.data = yhat.data - 2.0 * yhat.grad  # plain gradient descent
            gaps.append(abs(spectral_entropy(yhat.data[0]) - target_ent))
        assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.2 * gaps[0]
