import numpy as np
import pytest

from seedcast import fft as F
from seedcast.errors import InputError


def naive_dft(x):
    """O(L^2) direct summation; the oracle every fast path must match."""
    L = len(x)
    k = np.arange(L)
    return np.exp(-2j * np.pi * np.outer(k, k) / L) @ np.asarray(x, dtype=complex)


class TestFftReal:
    def test_constant_series_is_dc_only(self):
        sp = F.fft_real(np.full(16, 3.7))
        power = sp.power()
        assert power[0] == pytest.approx((3.7 * 16) ** 2)
        assert np.all(power[1:] < 1e-20)

    def test_single_tone_hits_two_bins(self):
        L, k = 32, 5
        sp = F.fft_real(np.cos(2 * np.pi * k * np.arange(L) / L))
        power = sp.power()
        hot = {k, L - k}
        for i in range(L):
            if i in hot:
                assert power[i] > 1.0
            else:
                assert power[i] < 1e-18

    @pytest.mark.parametrize("L", [2, 8, 17, 96, 100, 127, 256, 512])
    def test_matches_naive_dft(self, L):
        x = np.random.default_rng(L).normal(size=L)
        sp = F.fft_real(x)
        ref = naive_dft(x)
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(sp.re + 1j * sp.im - ref).max() / scale < 1e-9

    def test_conjugate_symmetry(self):
        for L in (8, 96, 101):
            sp = F.fft_real(np.random.default_rng(L).normal(size=L))
            assert sp.max_conjugate_asymmetry() < 1e-10

    def test_round_trip(self):
        for L in (2, 8, 96, 255):
            x = np.random.default_rng(L).normal(size=L)
            assert np.abs(F.ifft_real(F.fft_real(x)) - x).max() < 1e-9

    def test_too_short_raises(self):
        with pytest.raises(InputError):
            F.fft_real(np.array([1.0]))

    def test_batched_agrees_with_rows(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3, 96))
        re, im = F.fft_real_raw(x)
        for i in range(4):
            for j in range(3):
                row = F.fft_real(x[i, j])
                assert np.allclose(re[i, j], row.re, atol=1e-12)
                assert np.allclose(im[i, j], row.im, atol=1e-12)


class TestComplexTransforms:
    @pytest.mark.parametrize("L", [4, 96, 81, 512])
    def test_complex_forward(self, L):
        rng = np.random.default_rng(L)
        z = rng.normal(size=L) + 1j * rng.normal(size=L)
        re, im = F.fft_complex(z.real, z.imag)
        ref = naive_dft(z)
        assert np.abs(re + 1j * im - ref).max() < 1e-8 * max(1, np.abs(ref).max())

    @pytest.mark.parametrize("L", [4, 96, 81, 512])
    def test_inverse_round_trip(self, L):
        rng = np.random.default_rng(L + 1)
        zr, zi = rng.normal(size=L), rng.normal(size=L)
        fr, fi = F.fft_complex(zr, zi)
        rr, ri = F.ifft_complex(fr, fi)
        assert np.abs(rr - zr).max() < 1e-9
        assert np.abs(ri - zi).max() < 1e-9

    def test_batched_against_naive_dft(self):
        rng = np.random.default_rng(3)
        shape = (4, 3, 96)
        z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        re, im = F.fft_complex(z.real, z.imag)
        ire, iim = F.ifft_complex(z.real, z.imag)
        for b in range(shape[0]):
            for c in range(shape[1]):
                ref = naive_dft(z[b, c])
                scale = max(1, np.abs(ref).max())
                assert np.abs(re[b, c] + 1j * im[b, c] - ref).max() < 1e-8 * scale
                # Inverse DFT: conj(DFT(conj(z))) / L.
                iref = naive_dft(z[b, c].conj()).conj() / shape[-1]
                assert np.abs(ire[b, c] + 1j * iim[b, c] - iref).max() < 1e-8 * scale

    def test_empty_axis_maps_to_empty(self):
        for fn in (F.fft_complex, F.ifft_complex):
            re, im = fn(np.zeros((3, 0)), np.zeros((3, 0)))
            assert re.shape == im.shape == (3, 0)
        re, im = F.fft_real_raw(np.zeros((2, 0)))
        assert re.shape == im.shape == (2, 0)

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            F.fft_complex(np.zeros(4), np.zeros(5))
