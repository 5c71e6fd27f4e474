"""Discrete Fourier transforms on float64 arrays.

Thin wrappers over ``numpy.fft`` (pocketfft), oracle-tested against the naive
O(L^2) DFT. All routines transform the last axis and accept arbitrary leading
batch dimensions. The public surface stays (re, im) float64 pairs.
"""

from __future__ import annotations

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
