"""Forward DFTs along the last axis, as (re, im) float64 pairs.

Both entry points are one ``numpy.fft.fft`` call. They stay named functions
because perfbench traces ``fft.fft_real_raw`` and ``fft.fft_complex`` by name;
everything else in seedcast calls ``numpy.fft`` directly.
"""

from __future__ import annotations

import numpy as np


def fft_real_raw(x: np.ndarray):
    """DFT of a real array: X_k = sum_t x_t e^{-2*pi*i*k*t/L}."""
    out = np.fft.fft(x, axis=-1)
    return out.real, out.imag


def fft_complex(re: np.ndarray, im: np.ndarray):
    """DFT of the complex array re + i*im."""
    out = np.fft.fft(re + 1j * im, axis=-1)
    return out.real, out.imag
