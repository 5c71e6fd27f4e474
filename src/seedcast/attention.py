"""Per-variable multi-head self-attention over patch tokens.

Each variable attends only to its own patches: there is no cross-variable
mixing in this pathway, which keeps it a pure channel-independent model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError


@dataclass
class AttentionParams:
    wq: T.Tensor  # (D, D), heads packed
    wk: T.Tensor
    wv: T.Tensor
    wo: T.Tensor  # (D, D)
    bq: T.Tensor
    bk: T.Tensor
    bv: T.Tensor
    bo: T.Tensor
    heads: int

    def params(self) -> list[T.Tensor]:
        return [self.wq, self.wk, self.wv, self.wo, self.bq, self.bk, self.bv, self.bo]


def split_heads(x: T.Tensor, heads: int) -> T.Tensor:
    """(..., N, D) -> (..., H, N, D/H)."""
    d = x.shape[-1]
    return T.swapaxes(x.reshape(x.shape[:-1] + (heads, d // heads)), -3, -2)


def merge_heads(x: T.Tensor) -> T.Tensor:
    """(..., H, N, dk) -> (..., N, H*dk)."""
    h, n, dk = x.shape[-3], x.shape[-2], x.shape[-1]
    return T.swapaxes(x, -3, -2).reshape(x.shape[:-3] + (n, h * dk))


def temporal_attention(tokens: T.Tensor, params: AttentionParams) -> T.Tensor:
    """Self-attention along the patch axis, independently per variable.

    tokens: (..., C, N, D); the variable axis rides along as a batch
    dimension, so channels never mix.
    """
    d = tokens.shape[-1]
    h = params.heads
    if d % h != 0:
        raise ConfigError(f"attention heads ({h}) must divide d_model ({d})")
    dk = d // h
    q = split_heads(T.linear(tokens, params.wq, params.bq), h)
    k = split_heads(T.linear(tokens, params.wk, params.bk), h)
    v = split_heads(T.linear(tokens, params.wv, params.bv), h)
    scores = T.matmul(q, T.swapaxes(k, -1, -2)) * (1.0 / np.sqrt(dk))
    attn = T.softmax(scores, axis=-1)
    return T.linear(merge_heads(T.matmul(attn, v)), params.wo, params.bo)
