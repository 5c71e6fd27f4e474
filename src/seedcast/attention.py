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
    # No key bias: q·b_k adds one constant to a whole score row, which the softmax cancels.
    wq: T.Tensor  # (D, D), heads packed
    wk: T.Tensor
    wv: T.Tensor
    wo: T.Tensor  # (D, D)
    bq: T.Tensor
    bv: T.Tensor
    bo: T.Tensor
    heads: int


def split_heads(x: T.Tensor, heads: int) -> T.Tensor:
    """(..., N, D) -> (..., H, N, D/H)."""
    d = x.shape[-1]
    return T.swapaxes(x.reshape(x.shape[:-1] + (heads, d // heads)), -3, -2)


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """``split_heads`` on an array, as a view; also the backward of ``_merge_heads``."""
    return np.swapaxes(a.reshape(a.shape[:-1] + (heads, a.shape[-1] // heads)), -3, -2)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(..., H, N, dk) -> (..., N, H*dk), a copy; also the backward of ``_split_heads``."""
    h, n, dk = a.shape[-3:]
    return np.swapaxes(a, -3, -2).reshape(a.shape[:-3] + (n, h * dk))


def temporal_attention(tokens: T.Tensor, params: AttentionParams) -> T.Tensor:
    """Self-attention along the patch axis, independently per variable.

    tokens: (..., C, N, D); the variable axis rides along as a batch
    dimension, so channels never mix.

    One tape node with parents ``(tokens, tokens, tokens, wq, bq, wk, wv, bv,
    wo, bo)``: it returns the q, k and v parts of the tokens' gradient
    separately, so ``backward()`` sums them as it summed the gradients of
    three projection nodes. The node keeps the tokens and the softmax output;
    its backward recomputes each of the v, k and q heads, in that order, when
    it first reads it, with the forward's own ``_affine`` call, and ``attn @
    v`` and the merged heads, and takes the derivative of the projection,
    score, softmax and output chain in that chain's own order.
    """
    d = tokens.shape[-1]
    p, h = params, params.heads
    if d % h != 0:
        raise ConfigError(f"attention heads ({h}) must divide d_model ({d})")
    projections = ((p.wq, p.bq), (p.wk, None), (p.wv, p.bv), (p.wo, p.bo))  # no key bias
    x, weights = tokens.data, [w.data for w, _ in projections]
    biases = [None if b is None else b.data for _, b in projections]

    def head(i):  # the q (0), k (1) or v (2) heads
        return _split_heads(T._affine(x, weights[i], biases[i]), h)

    scores = head(0) @ np.swapaxes(head(1), -1, -2)
    scale = 1.0 / np.sqrt(d // h)
    scores *= scale
    attn = T._softmax(scores)
    del scores
    out = T._affine(_merge_heads(attn @ head(2)), weights[3], biases[3])
    # Per projection: its bias shape, and which of (input, weight, bias) need a gradient.
    b_shapes = [None if b is None else b.shape for _, b in projections]
    need = [(tokens.requires_grad, w.requires_grad, b is not None and b.requires_grad)
            for w, b in projections[:3]]
    need_o = (True, p.wo.requires_grad, p.bo.requires_grad)  # its input is the merged heads

    def _bw(g):
        # Each intermediate is dropped once read, and the heads' gradients are
        # merged and projected one at a time, so few token-sized arrays are live.
        v = head(2)
        merged = _merge_heads(attn @ v) if need_o[1] else None
        g_ctx, g_wo, g_bo = T._affine_grads(g, merged, weights[3], b_shapes[3], need_o)
        del merged
        g_ctx = _split_heads(g_ctx, h)
        g_attn = g_ctx @ np.swapaxes(v, -1, -2)
        g_v = np.swapaxes(attn, -1, -2) @ g_ctx
        del g_ctx, v
        inner = (g_attn * attn).sum(axis=-1, keepdims=True)
        g_attn -= inner
        g_scores = np.multiply(attn, g_attn, out=g_attn)
        del g_attn
        g_scores *= scale
        # Each head is freed once its product is in: k for q's gradient, then q for k's.
        g_heads = [g_scores @ head(1), np.swapaxes(np.swapaxes(head(0), -1, -2) @ g_scores,
                                                   -1, -2), g_v]
        del g_scores, g_v
        (g_xq, g_wq, g_bq), (g_xk, g_wk, _), (g_xv, g_wv, g_bv) = [
            T._affine_grads(_merge_heads(g_heads.pop(0)), x, weights[i], b_shapes[i], need[i])
            for i in range(3)]
        return g_xq, g_xk, g_xv, g_wq, g_bq, g_wk, g_wv, g_bv, g_wo, g_bo

    return T._node(out, (tokens,) * 3 + (p.wq, p.bq, p.wk, p.wv, p.bv, p.wo, p.bo), _bw)
