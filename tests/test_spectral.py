import numpy as np
import pytest
from scipy import stats

from seedcast import spectral as S
from seedcast import tensor as T
from seedcast.errors import DegenerateInputError, InputError, ShapeError
from seedcast.model import ModelConfig, SeedModel
from tests_helpers import grad_check_many, strided_windows, wiener_khinchin_pair


def autocov_double_loop(x, max_lag):
    """O(L * max_lag) biased reference estimator, lags 0..max_lag."""
    xc = np.asarray(x, dtype=float)
    xc = xc - xc.mean()
    L = len(xc)
    r = np.zeros(max_lag + 1)
    for tau in range(max_lag + 1):
        acc = 0.0
        for t in range(L - tau):
            acc += xc[t] * xc[t + tau]
        r[tau] = acc / L
    return r


def _entropy(x, gain=None, degenerate="error"):
    with T.no_grad():
        return S.entropy_tensor(T.Tensor(x), gain, degenerate=degenerate).data


class TestApplyFilter:
    def test_identity_filter(self):
        x = np.random.default_rng(0).normal(size=(3, 16))
        assert np.array_equal(_entropy(x, T.Tensor(np.ones(16))), _entropy(x))

    def test_annihilator(self):
        gain = T.Tensor(np.zeros(16))
        x = np.random.default_rng(1).normal(size=(2, 16))
        assert np.all(_entropy(x, gain, degenerate="zero") == 0.0)
        with pytest.raises(DegenerateInputError):
            _entropy(x, gain)

    def test_power_scales_by_gain_squared(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 8))
        gain = T.Tensor(rng.normal(size=8))
        z = np.fft.fft(x - x.mean(axis=-1, keepdims=True), axis=-1)
        power = gain.data**2 * np.abs(z) ** 2
        p = power / power.sum(axis=-1, keepdims=True)
        ref = -(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=-1) / np.log(8)  # 0 log 0 = 0
        assert np.abs(_entropy(x, gain) - ref).max() < 1e-12
        gain.data = -gain.data  # only gain^2 reaches the power
        assert np.abs(_entropy(x, gain) - ref).max() < 1e-12

    def test_length_mismatch(self):
        x = T.Tensor(np.random.default_rng(4).normal(size=(2, 8)))
        with pytest.raises(ShapeError, match=r"gain has shape \(9,\), the series length is 8"):
            S.entropy_tensor(x, T.Tensor(np.ones(9)))

    @pytest.mark.parametrize("shape", [(9,), (8, 1), (1, 8)])
    def test_gain_must_be_one_value_per_bin(self, shape):
        # numpy would broadcast (1, L) and try (L, 1); only (L,) is one gain per bin.
        x = T.Tensor(np.random.default_rng(4).normal(size=(2, 8)))
        with pytest.raises(ShapeError, match="filter gain"):
            S.entropy_tensor(x, T.Tensor(np.ones(shape)))

    def test_differentiable_in_filter_weights(self):
        rng = np.random.default_rng(3)
        x = T.Tensor(rng.normal(size=(2, 12)))
        gain = T.Tensor(np.ones(12), requires_grad=True)
        errs = grad_check_many(lambda: S.entropy_tensor(x, gain).sum(), [gain])
        assert errs.max() < 1e-6


class TestSpectralEntropy:
    def test_pure_tone_is_log2_over_logL(self):
        L = 96
        x = np.cos(2 * np.pi * 7 * np.arange(L) / L)
        assert S.spectral_entropy(x) == pytest.approx(np.log(2) / np.log(L), abs=1e-12)

    def test_uniform_spectrum_is_one(self):
        # An impulse has perfectly flat |DFT|; keeping the DC bin makes all
        # L bins carry equal power, the maximum-entropy configuration.
        L = 96
        imp = np.zeros(L)
        imp[0] = 1.0
        assert S.spectral_entropy(imp, remove_mean=False) == pytest.approx(1.0, abs=1e-12)

    def test_alpha_grid_is_rank_monotone(self):
        alphas = np.round(np.arange(0.0, 1.01, 0.1), 10)
        spens = []
        for a in alphas:
            x = S.generate_synthetic(S.SyntheticSpec(a, period=24, length=512, seed=9))
            spens.append(S.spectral_entropy(x))
        rho = stats.spearmanr(alphas, spens).statistic
        assert rho > 0.95

    def test_range_under_random_filters(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            L = int(rng.integers(8, 80))
            gain = T.Tensor(rng.normal(size=L))
            val = _entropy(rng.normal(size=L), gain)
            assert 0.0 <= val <= 1.0

    def test_scale_invariance(self):
        x = np.random.default_rng(5).normal(size=96)
        base = S.spectral_entropy(x)
        for c in (-3.0, 0.5, 10.0):
            assert abs(S.spectral_entropy(c * x) - base) < 1e-12

    def test_probability_normalization(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 64))
        xt = T.Tensor(x - x.mean(axis=-1, keepdims=True))
        re, im = T.dft_real(xt)
        power = (re * re + im * im).data
        p = power / power.sum(axis=-1, keepdims=True)
        assert np.abs(p.sum(axis=-1) - 1.0).max() < 1e-12

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateInputError):
            S.spectral_entropy(np.full(32, 5.0))  # constant: zero power after centering

    def test_degenerate_zero_mapping(self):
        x = np.stack([np.full(32, 5.0), np.random.default_rng(7).normal(size=32)])
        ent = S.entropy_tensor(T.Tensor(x), degenerate="zero")
        assert ent.data[0] == 0.0
        assert 0.0 < ent.data[1] <= 1.0


def _entropy_of(window, **kw):
    """Per-variable entropy as the model's forward pass sees it."""
    c, L = window.shape[-2:]
    return SeedModel(ModelConfig(lookback=L, horizon=8, n_vars=c, **kw)).entropy_of(window)


class TestEvaluateDependencies:
    def test_identical_rows_identical_entropies(self):
        row = np.random.default_rng(8).normal(size=64)
        ent = _entropy_of(np.stack([row, row, row]))
        assert ent.shape == (3,)
        assert np.all(ent == ent[0])

    def test_sine_below_noise(self):
        t = np.arange(96)
        sine = np.sin(2 * np.pi * t / 24)
        noise = np.random.default_rng(9).normal(size=96)
        ent = _entropy_of(np.stack([sine, noise]))
        assert ent[0] < ent[1]

    def test_identity_filter_matches_unfiltered(self):
        w = np.random.default_rng(10).normal(size=(4, 48))
        with_filter = _entropy_of(w, detach_entropy=False)  # holds a fresh gain of 1
        without = _entropy_of(w)
        assert np.array_equal(with_filter, without)

    def test_strided_window_matches_copy(self):
        view, copy = strided_windows(12, 8, 96, seed=11)
        assert np.array_equal(_entropy_of(view), _entropy_of(copy))
        for i in range(12):
            assert np.array_equal(_entropy_of(view[i]), _entropy_of(copy[i]))


class TestAutocorrelation:
    def test_tone_peak_near_one_at_period(self):
        p, L = 16, 512
        x = np.sin(2 * np.pi * np.arange(L) / p)
        acf = S.autocorrelation(x, 2 * p)
        assert acf[p - 1] == pytest.approx(1.0, abs=0.05)

    def test_white_noise_stays_small(self):
        x = np.random.default_rng(11).normal(size=1024)
        acf = S.autocorrelation(x, 512)
        assert np.abs(acf).max() < 0.1

    def test_matches_double_loop_oracle(self):
        x = np.random.default_rng(12).normal(size=128)
        ours = S.autocorrelation(x, 20)
        r = autocov_double_loop(x, 20)
        assert np.abs(ours - r[1:] / r[0]).max() < 1e-10

    def test_batched_matches_rows_and_double_loop_oracle(self):
        x = np.random.default_rng(13).normal(size=(3, 4, 50))
        cov = S.autocovariance_biased(x, 30)
        assert cov.shape == (3, 4, 31)
        for b in range(3):
            for c in range(4):
                assert np.abs(cov[b, c] - S.autocovariance_biased(x[b, c], 30)).max() < 1e-12
                assert np.abs(cov[b, c] - autocov_double_loop(x[b, c], 30)).max() < 1e-12

    def test_batched_rows_equal_single_calls(self):
        x = np.random.default_rng(14).normal(size=(2, 3, 64))
        acf = S.autocorrelation(x, 20)
        assert acf.shape == (2, 3, 20)
        for b in range(2):
            for c in range(3):
                assert np.array_equal(acf[b, c], S.autocorrelation(x[b, c], 20))

    def test_zero_variance_raises(self):
        with pytest.raises(DegenerateInputError):
            S.autocorrelation(np.ones(64), 8)

    def test_max_lag_validation(self):
        with pytest.raises(InputError):
            S.autocorrelation(np.random.default_rng(0).normal(size=16), 16)


class TestWienerKhinchin:
    def test_identity_on_stationary_series(self):
        for seed in range(5):
            x = S.generate_synthetic(S.SyntheticSpec(0.6, period=24, length=512, seed=seed))
            lhs, rhs = wiener_khinchin_pair(x)
            assert np.abs(lhs - rhs).max() / rhs.max() < 1e-6


class TestGenerateSynthetic:
    def test_alpha_zero_is_pure_sinusoid(self):
        spec = S.SyntheticSpec(0.0, period=24, length=96, seed=1)
        expected = np.sin(2 * np.pi * np.arange(96) / 24)
        assert np.array_equal(S.generate_synthetic(spec), expected)

    def test_alpha_one_is_pure_noise_draw(self):
        spec = S.SyntheticSpec(1.0, period=24, length=96, seed=5)
        assert np.array_equal(S.generate_synthetic(spec), np.random.default_rng(5).normal(size=96))

    def test_alpha_half_mixes_elementwise(self):
        spec = S.SyntheticSpec(0.5, period=12, length=64, seed=6)
        signal = np.sin(2 * np.pi * np.arange(64) / 12)
        noise = np.random.default_rng(6).normal(size=64)
        assert np.allclose(S.generate_synthetic(spec), 0.5 * signal + 0.5 * noise, atol=1e-15)

    def test_invalid_spec(self):
        with pytest.raises(InputError):
            S.SyntheticSpec(1.5, period=24, length=96)
        with pytest.raises(InputError):
            S.SyntheticSpec(0.5, period=1, length=96)
        for seed in (-1, 1.5, True):
            with pytest.raises(InputError, match="seed"):
                S.SyntheticSpec(0.5, period=24, length=96, seed=seed)
        with pytest.raises(InputError):
            S.SyntheticSpec(0.5, period=24, length=40)


@pytest.fixture(scope="module")
def study_rows():
    template = S.SyntheticSpec(0.0, period=24, length=512, seed=3)
    return S.acf_entropy_study(np.round(np.arange(0, 1.01, 0.1), 10), template)


class TestStudy:
    def test_extremes(self, study_rows):
        spens = [r[2] for r in study_rows]
        assert study_rows[0][1] > 0.9  # alpha=0: acf peak near 1
        assert study_rows[0][2] == min(spens)
        assert study_rows[-1][2] > max(spens) - 0.02  # alpha=1: near the max

    def test_negative_correlation(self, study_rows):
        peaks = [r[1] for r in study_rows]
        spens = [r[2] for r in study_rows]
        assert stats.pearsonr(peaks, spens).statistic < -0.8

    def test_monotone_with_one_inversion_allowed(self, study_rows):
        spens = [r[2] for r in study_rows]
        inversions = sum(1 for a, b in zip(spens, spens[1:]) if b < a)
        assert inversions <= 1

    def test_empty_grid_raises(self):
        with pytest.raises(InputError):
            S.acf_entropy_study([], S.SyntheticSpec(0.0, period=24, length=512))
