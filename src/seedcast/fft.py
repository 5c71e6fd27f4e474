"""Discrete Fourier transforms on float64 arrays.

Thin wrappers over ``numpy.fft`` (pocketfft), oracle-tested against the naive
O(L^2) DFT. All routines transform the last axis and accept arbitrary leading
batch dimensions. The public surface stays (re, im) float64 pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


def _transform(z: np.ndarray, inverse: bool = False):
    """numpy.fft along the last axis, split into (re, im); an empty axis maps to itself."""
    if z.shape[-1] == 0:
        out = z.astype(np.complex128)
    else:
        out = (np.fft.ifft if inverse else np.fft.fft)(z, axis=-1)
    return out.real, out.imag


def _complex_input(re, im) -> np.ndarray:
    re = np.asarray(re, dtype=np.float64)
    im = np.asarray(im, dtype=np.float64)
    if re.shape != im.shape:
        raise InputError(f"re/im shapes differ: {re.shape} vs {im.shape}")
    return re + 1j * im


def fft_complex(re: np.ndarray, im: np.ndarray):
    """Forward DFT along the last axis: X_k = sum_t x_t e^{-2*pi*i*k*t/L}."""
    return _transform(_complex_input(re, im))


def ifft_complex(re: np.ndarray, im: np.ndarray):
    """Inverse DFT along the last axis (includes the 1/L factor)."""
    return _transform(_complex_input(re, im), inverse=True)


def fft_real_raw(x: np.ndarray):
    """DFT of a real array along the last axis, as (re, im) float64 arrays."""
    return _transform(np.asarray(x, dtype=np.float64))


@dataclass
class ComplexSpectrum:
    """DFT of a series: per-bin real and imaginary parts, full L bins."""

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        self.re = np.asarray(self.re, dtype=np.float64)
        self.im = np.asarray(self.im, dtype=np.float64)
        if self.re.shape != self.im.shape:
            raise InputError(
                f"spectrum re/im shapes differ: {self.re.shape} vs {self.im.shape}"
            )

    def __len__(self) -> int:
        return self.re.shape[-1]

    def power(self) -> np.ndarray:
        return self.re * self.re + self.im * self.im

    def max_conjugate_asymmetry(self) -> float:
        """Max |X_k - conj(X_{L-k})| over k=1..L-1; ~0 for real inputs."""
        rr = self.re[..., 1:]
        ri = self.im[..., 1:]
        dr = rr - rr[..., ::-1]
        di = ri + ri[..., ::-1]
        return float(np.max(np.hypot(dr, di))) if rr.size else 0.0


def fft_real(x: np.ndarray) -> ComplexSpectrum:
    """DFT of a real series (last axis); requires length >= 2."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] < 2:
        raise InputError(f"fft_real needs length >= 2, got {x.shape[-1]}")
    return ComplexSpectrum(*fft_real_raw(x))


def ifft_real(spectrum: ComplexSpectrum) -> np.ndarray:
    """Inverse transform, returning the real part (exact for conjugate-symmetric spectra)."""
    re, _ = ifft_complex(spectrum.re, spectrum.im)
    return re
