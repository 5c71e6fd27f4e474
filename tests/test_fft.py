import numpy as np
import pytest

from seedcast import fft as F


def naive_dft(x):
    """O(L^2) direct summation; the oracle every fast path must match."""
    L = len(x)
    k = np.arange(L)
    return np.exp(-2j * np.pi * np.outer(k, k) / L) @ np.asarray(x, dtype=complex)


def power(x):
    re, im = F.fft_real_raw(x)
    return re * re + im * im


class TestFftReal:
    def test_constant_series_is_dc_only(self):
        p = power(np.full(16, 3.7))
        assert p[0] == pytest.approx((3.7 * 16) ** 2)
        assert np.all(p[1:] < 1e-20)

    def test_single_tone_hits_two_bins(self):
        L, k = 32, 5
        p = power(np.cos(2 * np.pi * k * np.arange(L) / L))
        hot = {k, L - k}
        for i in range(L):
            if i in hot:
                assert p[i] > 1.0
            else:
                assert p[i] < 1e-18

    @pytest.mark.parametrize("L", [2, 8, 17, 96, 100, 127, 256, 512])
    def test_matches_naive_dft(self, L):
        x = np.random.default_rng(L).normal(size=L)
        re, im = F.fft_real_raw(x)
        ref = naive_dft(x)
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(re + 1j * im - ref).max() / scale < 1e-9

    def test_batched_agrees_with_rows(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3, 96))
        re, im = F.fft_real_raw(x)
        for i in range(4):
            for j in range(3):
                row_re, row_im = F.fft_real_raw(x[i, j])
                assert np.allclose(re[i, j], row_re, atol=1e-12)
                assert np.allclose(im[i, j], row_im, atol=1e-12)


class TestComplexTransforms:
    @pytest.mark.parametrize("L", [4, 96, 81, 512])
    def test_complex_forward(self, L):
        rng = np.random.default_rng(L)
        z = rng.normal(size=L) + 1j * rng.normal(size=L)
        re, im = F.fft_complex(z.real, z.imag)
        ref = naive_dft(z)
        assert np.abs(re + 1j * im - ref).max() < 1e-8 * max(1, np.abs(ref).max())

    def test_batched_against_naive_dft(self):
        rng = np.random.default_rng(3)
        shape = (4, 3, 96)
        z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        re, im = F.fft_complex(z.real, z.imag)
        for b in range(shape[0]):
            for c in range(shape[1]):
                ref = naive_dft(z[b, c])
                scale = max(1, np.abs(ref).max())
                assert np.abs(re[b, c] + 1j * im[b, c] - ref).max() < 1e-8 * scale
