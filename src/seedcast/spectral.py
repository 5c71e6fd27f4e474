"""Frequency-domain dependency evaluation.

Per-variable normalized spectral entropy of the power spectrum, optionally
shaped by a learnable per-bin gain: 0 means all energy in one bin (strong
regularity, the variable predicts itself), 1 means a flat spectrum (noise-like,
the variable needs outside context). Also houses the autocorrelation estimator
and the synthetic noise-mixture generator used to study the ACF/entropy relation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DegenerateInputError, InputError, ShapeError
from .rng import RngState

_ZERO_POWER = 1e-290


@dataclass
class SyntheticSpec:
    """Noise-mixture signal: (1-alpha)*sin(2*pi*t/period) + alpha*N(0,1)."""

    alpha: float
    period: int
    length: int
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise InputError(f"alpha must be in [0,1], got {self.alpha}")
        if self.period < 2:
            raise InputError(f"period must be >= 2, got {self.period}")
        if self.length < 2 * self.period:
            raise InputError(
                f"length must be >= 2*period ({2 * self.period}), got {self.length}"
            )


# -- spectral entropy ----------------------------------------------------------


def entropy_tensor(
    x: T.Tensor,
    gain: T.Tensor | None = None,
    remove_mean: bool = True,
    degenerate: str = "error",
) -> T.Tensor:
    """Differentiable normalized spectral entropy along the last axis.

    gain: the shaping filter, one real gain per frequency bin, shaped (L,);
    the entropy then reads the power gain^2 * |Z|^2.
    degenerate: "error" raises on zero-power rows, "zero" maps them to
    entropy 0 (a constant is maximally self-predictable).
    """
    L = x.shape[-1]
    if L < 2:
        raise InputError(f"series length must be >= 2, got {L}")
    if gain is not None and gain.shape != (L,):
        raise ShapeError(f"filter gain has shape {gain.shape}, the series length is {L}")
    if remove_mean:
        x = x - x.mean(axis=-1, keepdims=True)
    re, im = T.dft_real(x)
    if gain is not None:
        re, im = re * gain, im * gain
    power = re * re + im * im
    total = power.sum(axis=-1, keepdims=True)
    dead = total.data < _ZERO_POWER
    if dead.any():
        if degenerate == "error":
            raise DegenerateInputError(
                f"zero spectral power in {int(dead.sum())} of {dead.size} series"
            )
        total = total + T.Tensor(dead.astype(np.float64))  # avoid 0/0; masked below
    p = power / total
    ent = -T.xlogx(p).sum(axis=-1) / np.log(L)
    if dead.any():
        ent = ent * T.Tensor(1.0 - dead.astype(np.float64).reshape(ent.shape))
    return ent


def spectral_entropy(x, remove_mean: bool = True) -> float:
    """Normalized spectral entropy of one series, in [0, 1]."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"expected a 1-D series, got shape {x.shape}")
    return float(entropy_tensor(T.Tensor(x), remove_mean=remove_mean).data)


# -- autocorrelation -------------------------------------------------------------


def autocovariance_biased(x, max_lag: int) -> np.ndarray:
    """Biased autocovariance (1/L) * sum_t x_t x_{t+tau} of x minus its mean, tau = 0..max_lag."""
    x = np.asarray(x, dtype=np.float64)
    L = x.shape[-1]
    if not 0 <= max_lag < L:
        raise InputError(f"max_lag must be in [0, {L - 1}], got {max_lag}")
    # Zero-padded to 2L, the circular correlation equals the linear one.
    z = np.fft.rfft(x - x.mean(axis=-1, keepdims=True), n=2 * L)
    cov = np.fft.irfft(z.real * z.real + z.imag * z.imag, n=2 * L)
    return cov[..., : max_lag + 1] / L


def autocorrelation(x, max_lag: int) -> np.ndarray:
    """Normalized ACF (R(0)=1) of a mean-removed series, lags 1..max_lag."""
    if max_lag < 1:
        raise InputError(f"max_lag must be >= 1, got {max_lag}")
    cov = autocovariance_biased(x, max_lag)
    r0 = cov[..., 0]
    if np.any(r0 < _ZERO_POWER):
        raise DegenerateInputError("zero-variance series has no autocorrelation")
    return cov[..., 1:] / r0[..., None] if cov.ndim > 1 else cov[1:] / r0


# -- synthetic signals -------------------------------------------------------------


def generate_synthetic(spec: SyntheticSpec) -> np.ndarray:
    """Noise mixture, deterministic in the seed: signal and noise scale with alpha."""
    t = np.arange(spec.length)
    signal = np.sin(2.0 * np.pi * t / spec.period)
    noise = RngState(spec.seed).normal(spec.length)
    return (1.0 - spec.alpha) * signal + spec.alpha * noise


def acf_entropy_study(
    alphas, spec: SyntheticSpec, n_seeds: int = 1
) -> list[tuple[float, float, float]]:
    """Rows of (alpha, acf_peak, spectral_entropy) across the noise grid.

    acf_peak is the max ACF value over lags 1..length//2; entropy is
    computed without a shaping filter. One row per (alpha, seed replicate).
    """
    alphas = list(alphas)
    if not alphas:
        raise InputError("alpha grid is empty")
    if n_seeds < 1:
        raise InputError(f"n_seeds must be >= 1, got {n_seeds}")
    max_lag = spec.length // 2
    rows = []
    for alpha in alphas:
        for s in range(n_seeds):
            sub = SyntheticSpec(alpha=alpha, period=spec.period,
                                length=spec.length, seed=spec.seed + 7919 * s)
            x = generate_synthetic(sub)
            peak = float(np.max(autocorrelation(x, max_lag)))
            rows.append((float(alpha), peak, spectral_entropy(x)))
    return rows
