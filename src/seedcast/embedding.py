"""Patching, value embedding with positional encoding, and the output head."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, InputError, ShapeError

STD_FLOOR = 1e-5


@dataclass
class NormStats:
    """Per-variable mean/std over the lookback, kept for inverting the z-score."""

    mean: np.ndarray  # (..., C, 1)
    std: np.ndarray   # (..., C, 1), floored at STD_FLOOR


def instance_normalize(window: np.ndarray) -> tuple[np.ndarray, NormStats]:
    """Z-score each variable over its lookback; stats returned for inversion.

    Rows with sub-floor variance count as constant and map to exact zeros
    (mean-subtraction roundoff would otherwise leak through the floored
    divisor). A window whose mean or std overflows raises InputError.
    """
    window = np.ascontiguousarray(window, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = window.mean(axis=-1, keepdims=True)
        raw_std = window.std(axis=-1, keepdims=True)
    if not (np.isfinite(mean).all() and np.isfinite(raw_std).all()):
        raise InputError("window too large to normalize: its mean or std overflows")
    degenerate = raw_std < STD_FLOOR
    std = np.where(degenerate, STD_FLOOR, raw_std)
    out = np.where(degenerate, 0.0, (window - mean) / std)
    return out, NormStats(mean, std)


def positional_encoding(n_positions: int, d_model: int) -> np.ndarray:
    """Fixed sinusoidal encoding over the patch index."""
    pos = np.arange(n_positions)[:, None]
    i = np.arange(d_model)[None, :]
    angle = pos / np.power(10000.0, (i - i % 2) / d_model)
    pe = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return pe


def split_patches(window: np.ndarray, patch_len: int) -> np.ndarray:
    """Non-overlapping length-P patches; the ragged tail is zero-padded."""
    window = np.asarray(window, dtype=np.float64)
    L = window.shape[-1]
    if not 1 <= patch_len <= L:
        raise ConfigError(f"patch_len must be in [1, {L}], got {patch_len}")
    n = -(-L // patch_len)  # ceil
    if n * patch_len != L:
        window = np.pad(window, [(0, 0)] * (window.ndim - 1) + [(0, n * patch_len - L)])
    return window.reshape(window.shape[:-1] + (n, patch_len))


@dataclass
class EmbedParams:
    weight: T.Tensor  # (P, D)
    bias: T.Tensor    # (D,)
    pe: np.ndarray    # (N, D), fixed


def patch_and_embed(window: np.ndarray, params: EmbedParams) -> T.Tensor:
    """Patch the window, map each patch to D dims, add positional encoding: (..., C, N, D)."""
    patch_len = params.weight.shape[0]
    patches = split_patches(window, patch_len)
    n = patches.shape[-2]
    if params.pe.shape[0] != n:
        raise ShapeError(
            f"positional encoding covers {params.pe.shape[0]} patches, window yields {n}"
        )
    return T.linear(T.Tensor(patches), params.weight, params.bias) + T.Tensor(params.pe)


@dataclass
class HeadParams:
    weight: T.Tensor  # (N*D, T)
    bias: T.Tensor    # (T,)


def project_output(tokens: T.Tensor, params: HeadParams, stats: NormStats) -> T.Tensor:
    """Flatten each variable's patch tokens, map to the horizon, undo the z-score."""
    n, d = tokens.shape[-2], tokens.shape[-1]
    if n * d != params.weight.shape[0]:
        raise ShapeError(
            f"head expects flattened width {params.weight.shape[0]}, tokens give {n * d}"
        )
    flat = tokens.reshape(tokens.shape[:-2] + (n * d,))
    out = T.linear(flat, params.weight, params.bias)
    return out * T.Tensor(stats.std) + T.Tensor(stats.mean)
