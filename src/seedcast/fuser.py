"""Entropy- and similarity-guided blending of the two pathways.

Per variable c and patch n the blend weight is
w = (1 - entropy_c) * (1 - similarity_cn): regular variables (low entropy)
lean on their own temporal features, noisy ones on spatial context; high
similarity between the two features further shifts weight toward the
spatial side. w stays in [0, 1], so the fused feature lies between the two
inputs coordinate-wise.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError


def patch_similarity(t_feat: T.Tensor, e_feat: T.Tensor) -> T.Tensor:
    """Cosine similarity per (variable, patch), mapped to [0,1] via (cos+1)/2.

    Zero-vector pairs get the neutral value 0.5 (the guard region is treated
    as locally constant).
    """
    if t_feat.shape != e_feat.shape:
        raise ShapeError(f"feature shapes differ: {t_feat.shape} vs {e_feat.shape}")
    dot = (t_feat * e_feat).sum(axis=-1)
    denom = T.sqrt((t_feat * t_feat).sum(axis=-1)) * T.sqrt((e_feat * e_feat).sum(axis=-1))
    guard = (denom.data == 0.0).astype(np.float64)
    cos = dot / (denom + T.Tensor(guard))  # dot is exactly 0 wherever guarded
    return (cos + 1.0) * 0.5


def fusion_weights(entropy: T.Tensor, sim: T.Tensor) -> T.Tensor:
    """w = (1 - entropy) * (1 - sim); entropy is per variable, sim per patch."""
    alpha = (1.0 - entropy).reshape(entropy.shape + (1,))  # (..., C, 1)
    return alpha * (1.0 - sim)


def blend(t_feat: T.Tensor, e_feat: T.Tensor, w: T.Tensor) -> T.Tensor:
    """F = w*T + (1-w)*E with w broadcast over the feature axis."""
    w3 = w.reshape(w.shape + (1,))
    return w3 * t_feat + (1.0 - w3) * e_feat


def fuse(t_feat: T.Tensor, e_feat: T.Tensor, entropy: T.Tensor) -> T.Tensor:
    """Entropy/similarity-weighted combination of temporal and spatial features."""
    if t_feat.shape != e_feat.shape:
        raise ShapeError(f"feature shapes differ: {t_feat.shape} vs {e_feat.shape}")
    if entropy.shape != t_feat.shape[:-2]:
        raise ShapeError(
            f"entropy shape {entropy.shape} does not match features {t_feat.shape}"
        )
    sim = patch_similarity(t_feat, e_feat)
    return blend(t_feat, e_feat, fusion_weights(entropy, sim))
