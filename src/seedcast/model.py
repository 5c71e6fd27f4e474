"""Full forecaster assembly: dual pathways, fusion, residual blocks, projection.

One encoder layer runs the per-variable temporal attention and the signed-
graph spatial extractor side by side, blends them with entropy/similarity
weights, then applies the usual residual + layer-norm + feed-forward block.
Every ablation variant is a wiring change over the same initialisation draws,
so a shared seed yields comparable runs; a variant keeps only the parameters
its wiring reads.
"""

from __future__ import annotations

import json
import numbers
import os
import zipfile
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .attention import AttentionParams, temporal_attention
from .embedding import (
    EmbedParams,
    HeadParams,
    instance_normalize,
    patch_and_embed,
    positional_encoding,
    project_output,
)
from .errors import ConfigError, InputError, NumericError, check_integer
from .fuser import blend, fuse, fusion_weights, patch_similarity
from .graph import SpatialParams, context_spatial_extract, node_layout
from .spectral import entropy_tensor

# Variant -> (temporal, spatial, graph, spatial_mode, fusion): the wiring its forward follows.
_WIRING = {
    "full": (True, True, "tanh", "local", "entropy_sim"),
    "wo_tattn": (False, True, "tanh", "local", "spatial_only"),
    "wo_cse": (True, False, "tanh", "local", "temporal_only"),
    "re_s1": (True, True, "plain", "local", "entropy_sim"),
    "re_s2": (True, True, "softmax", "local", "entropy_sim"),
    "re_f1": (True, True, "tanh", "local", "learned_scalar"),
    "re_f2": (True, True, "tanh", "local", "swapped"),
    "re_f3": (True, True, "tanh", "local", "learned_map"),
    "re_c1": (True, True, "tanh", "same_step", "entropy_sim"),
    "re_c2": (True, True, "tanh", "global", "entropy_sim"),
}
VARIANTS = tuple(_WIRING)

_CKPT_VERSION = 6
_CKPT_META = "__meta__"  # 0-d str array: JSON {"version", "config"}; no parameter has this name


@dataclass
class ModelConfig:
    lookback: int = 96
    horizon: int = 96
    patch_len: int = 16
    d_model: int = 64
    heads: int = 4  # attention and graph heads
    knn_k: int | None = None
    pool: str = "mean"  # mean | max
    lam: float = 0.1  # weight of the entropy-matching loss term
    n_layers: int = 2
    detach_entropy: bool = True
    variant: str = "full"
    seed: int = 0
    n_vars: int | None = None  # needed for shape validation and re_f1 sizing

    def __post_init__(self):
        self.validate()

    def validate(self):
        for name in ("lookback", "horizon", "patch_len", "d_model", "heads", "n_layers",
                     "seed", "knn_k", "n_vars"):
            value = getattr(self, name)
            if value is None and name in ("knn_k", "n_vars"):
                continue
            setattr(self, name, check_integer(name, value, 0 if name == "seed" else 1))
        if self.patch_len > self.lookback:
            raise ConfigError(
                f"patch_len ({self.patch_len}) exceeds lookback ({self.lookback})"
            )
        if self.d_model % self.heads != 0:
            raise ConfigError(f"heads ({self.heads}) must divide d_model ({self.d_model})")
        if not finite_real(self.lam) or self.lam < 0:
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam!r}")
        if self.lam > 0 and self.horizon < 2:
            raise ConfigError("lambda > 0 needs horizon >= 2: the entropy-matching loss "
                              "takes the spectral entropy of each forecast")
        if self.pool not in ("mean", "max"):
            raise ConfigError(f"pool must be mean or max, got {self.pool!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.variant == "re_f1" and self.n_vars is None:
            raise ConfigError("variant re_f1 needs n_vars (per-variable fusion scalar)")
        # Without n_vars the node count is unknown until forward; the global
        # mode keeps every edge and ignores knn_k.
        wiring = apply_variant(self)
        mode = wiring["spatial_mode"]
        if wiring["spatial"] and mode == "local" and self.n_patches < 2:
            raise ConfigError(f"variant {self.variant} needs at least 2 patches for local "
                              f"windows; lookback {self.lookback} / patch_len {self.patch_len} "
                              "makes 1")
        if (self.knn_k is not None and self.n_vars is not None and wiring["spatial"]
                and mode != "global"):
            nodes = node_layout(mode, self.n_vars, self.n_patches)[1]
            if self.knn_k > nodes:
                raise ConfigError(
                    f"knn_k ({self.knn_k}) exceeds the {nodes} graph nodes of a {mode} window"
                )

    @property
    def n_patches(self) -> int:
        return -(-self.lookback // self.patch_len)

    def to_dict(self) -> dict:
        return config_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        if "lambda" in d:
            d["lam"] = d.pop("lambda")
        unknown = d.keys() - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown model config keys {sorted(unknown)}")
        return cls(**d)


def finite_real(value) -> bool:
    """True for a finite real number that is not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and bool(np.isfinite(value)))


def config_dict(cfg) -> dict:
    """A config dataclass as a plain dict; the ``lam`` field is written as "lambda"."""
    return {"lambda" if f.name == "lam" else f.name: getattr(cfg, f.name) for f in fields(cfg)}


def apply_variant(config: ModelConfig) -> dict:
    """Resolve a variant name into the wiring the forward pass follows."""
    if config.variant not in _WIRING:
        raise ConfigError(f"unknown variant {config.variant!r}")
    return dict(zip(("temporal", "spatial", "graph", "spatial_mode", "fusion"),
                    _WIRING[config.variant]))


@dataclass
class LayerParams:
    attn: AttentionParams | None  # None without the temporal pathway
    spatial: SpatialParams | None  # None without the spatial pathway
    ff_w1: T.Tensor
    ff_b1: T.Tensor
    ff_w2: T.Tensor
    ff_b2: T.Tensor
    ln1_g: T.Tensor
    ln1_b: T.Tensor
    ln2_g: T.Tensor
    ln2_b: T.Tensor
    fuse_theta: T.Tensor | None = None  # re_f1: per-variable scalar before sigmoid
    fuse_w: T.Tensor | None = None  # re_f3: (2D, 1)
    fuse_b: T.Tensor | None = None  # re_f3: (1,)


def layer_norm(x: T.Tensor, gamma: T.Tensor, beta: T.Tensor, eps: float = 1e-5) -> T.Tensor:
    """``(x - mean) / sqrt(var + eps) * gamma + beta`` over the last axis, as one tape node.

    Ba et al., arXiv:1607.06450. The node keeps the input, ``gamma`` and the
    per-row std, not its output. Its backward recomputes the centred input
    from ``x`` and takes the chain's derivative step by step, in the order
    that chain's own nodes would, so where ``x`` feeds nothing else its
    gradients are the chain's to the bit.
    """
    d = x.shape[-1]
    xd, gd, sg, sb = x.data, gamma.data, gamma.shape, beta.shape
    need_x, need_gamma, need_beta = x.requires_grad, gamma.requires_grad, beta.requires_grad

    def centred():
        return xd - xd.mean(axis=-1, keepdims=True)

    xc = centred()
    std = np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    out = xc / std
    out *= gd
    out += beta.data

    def _bw(g):
        xc = centred()
        g_gamma = T._unbroadcast(g * (xc / std), sg) if need_gamma else None
        g_beta = T._unbroadcast(g, sb) if need_beta else None
        if not need_x:
            return None, g_gamma, g_beta
        # In place, in the chain's order. Per-row values are divided before they
        # are broadcast: the same quotients.
        g_xc = g * gd  # g_xhat, until it is divided by the std
        t = g_xc * xc
        t /= -(std * std)  # the sign of -g_xhat * xc / std², carried by the divisor
        g_sq = t.sum(axis=-1, keepdims=True) * 0.5 / std / d  # through sqrt(mean(xc * xc))
        g_sq_xc = np.multiply(xc, g_sq, out=t)
        g_xc /= std
        g_xc += g_sq_xc  # xc / std, then both factors of xc * xc
        g_xc += g_sq_xc
        # sum(-g_xc) bit for bit: numpy's sum of a row that comes to zero is +0.
        g_mean = -g_xc.sum(axis=-1, keepdims=True) + 0.0
        g_xc += g_mean / d
        return g_xc, g_gamma, g_beta

    return T._node(out, (x, gamma, beta), _bw)


def feed_forward(h: T.Tensor, w1: T.Tensor, b1: T.Tensor, w2: T.Tensor,
                 b2: T.Tensor) -> T.Tensor:
    """``silu(h @ w1 + b1) @ w2 + b2`` as one tape node.

    The node keeps ``h`` and the pre-activation, not the sigmoid or the SiLU
    output: its backward recomputes both from the pre-activation and takes
    the derivative of the linear, SiLU and linear chain in that chain's own
    order. It takes ``w2``'s gradient first, so the SiLU output is freed
    before the hidden layer's gradient exists, and runs the SiLU gradient in
    place. Without a tape the pre-activation is freed as soon as the SiLU
    output exists.
    """
    hd, w1d, w2d, sb1, sb2 = h.data, w1.data, w2.data, b1.shape, b2.shape
    need = [t.requires_grad for t in (h, w1, b1, w2, b2)]
    pre = T._affine(hd, w1d, b1.data)

    def _bw(g):
        s = T._sigmoid(pre)
        g_w2 = T._affine_grads(g, s * pre, w2d, sb2, (False, True, False))[1] if need[3] else None
        g_act, _, g_b2 = T._affine_grads(g, None, w2d, sb2, (True, False, need[4]))
        g_act = T._silu_grad(g_act, pre, s, out=g_act)  # g_act is this closure's own array
        del s
        g_h, g_w1, g_b1 = T._affine_grads(g_act, hd, w1d, sb1, need[:3])
        return g_h, g_w1, g_b1, g_w2, g_b2

    act = T._silu(pre)
    if not T.grad_enabled():
        pre = None  # no backward will read it: free it before the second product
    return T._node(T._affine(act, w2d, b2.data), (h, w1, b1, w2, b2), _bw)


def _learned_scalar(t, e, ent, lp: LayerParams) -> T.Tensor:
    w = T.sigmoid(lp.fuse_theta).reshape((lp.fuse_theta.size, 1))  # (C, 1) -> over patches
    return blend(t, e, w)


def _learned_map(t, e, ent, lp: LayerParams) -> T.Tensor:
    w = T.sigmoid(T.linear(T.concat([t, e], axis=-1), lp.fuse_w, lp.fuse_b))  # (..., C, N, 1)
    return blend(t, e, w.reshape(w.shape[:-1]))


# Fusion mode -> fused features from (temporal, spatial, entropy, layer params).
_FUSIONS = {
    "temporal_only": lambda t, e, ent, lp: t,
    "spatial_only": lambda t, e, ent, lp: e,
    "entropy_sim": lambda t, e, ent, lp: fuse(t, e, ent),
    "swapped": lambda t, e, ent, lp: blend(e, t, fusion_weights(ent, patch_similarity(t, e))),
    "learned_scalar": _learned_scalar,
    "learned_map": _learned_map,
}
_ENTROPY_FUSIONS = ("entropy_sim", "swapped")  # the modes that read the input's entropy


class SeedModel:
    """Entropy-guided dual-path forecaster over patch tokens."""

    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        self.wiring = wiring = apply_variant(config)
        rng = np.random.default_rng(config.seed)
        L, P, D = config.lookback, config.patch_len, config.d_model
        N, H = config.n_patches, config.heads
        d_h = D // H
        self._params: dict[str, T.Tensor] = {}

        def param(name, init):
            self._params[name] = t = T.Tensor(init, requires_grad=True)
            return t

        # The filter gain (1: a no-op) trains only through an attached entropy the fusion reads.
        self.filter_gain = None
        if not config.detach_entropy and wiring["fusion"] in _ENTROPY_FUSIONS:
            self.filter_gain = param("filter.gain", np.ones(L))
        self.embed = EmbedParams(param("embed.weight", rng.normal(0.0, P**-0.5, (P, D))),
                                 param("embed.bias", np.zeros(D)), positional_encoding(N, D))
        self.layers: list[LayerParams] = []
        for i in range(config.n_layers):
            # Every variant makes every draw, in this order, so a shared seed gives
            # shared weights; a draw the wiring does not read is dropped.
            attn_init = [rng.normal(0.0, D**-0.5, (D, D)) for _ in range(4)]  # wq, wk, wv, wo
            q_init = rng.normal(0.0, 1.0 / d_h, (d_h, d_h))
            gcn_init = rng.normal(0.0, d_h**-0.5, (H, d_h, d_h))
            ff1_init = rng.normal(0.0, D**-0.5, (D, 2 * D))
            ff2_init = rng.normal(0.0, (2 * D) ** -0.5, (2 * D, D))
            fuse_w_init = rng.normal(0.0, (2 * D) ** -0.5, (2 * D, 1))
            pre, fusion = f"layer{i}.", wiring["fusion"]
            attn = spatial = None
            if wiring["temporal"]:
                attn = AttentionParams(
                    **{f"w{k}": param(f"{pre}attn.w{k}", v) for k, v in zip("qkvo", attn_init)},
                    **{f"b{k}": param(f"{pre}attn.b{k}", np.zeros(D)) for k in "qvo"},
                    heads=H)
            if wiring["spatial"]:
                spatial = SpatialParams(
                    q=param(pre + "dist.q", q_init),
                    gcn_weight=param(pre + "gcn.weight", gcn_init),
                    heads=H, graph_variant=wiring["graph"], knn_k=config.knn_k,
                    pool=config.pool, mode=wiring["spatial_mode"],
                )
            self.layers.append(LayerParams(
                attn=attn, spatial=spatial,
                ff_w1=param(pre + "ff.w1", ff1_init), ff_b1=param(pre + "ff.b1", np.zeros(2 * D)),
                ff_w2=param(pre + "ff.w2", ff2_init), ff_b2=param(pre + "ff.b2", np.zeros(D)),
                ln1_g=param(pre + "ln1.g", np.ones(D)), ln1_b=param(pre + "ln1.b", np.zeros(D)),
                ln2_g=param(pre + "ln2.g", np.ones(D)), ln2_b=param(pre + "ln2.b", np.zeros(D)),
                fuse_theta=(param(pre + "fuse.theta", np.zeros(config.n_vars))
                            if fusion == "learned_scalar" else None),
                fuse_w=param(pre + "fuse.w", fuse_w_init) if fusion == "learned_map" else None,
                fuse_b=param(pre + "fuse.b", np.zeros(1)) if fusion == "learned_map" else None,
            ))
        self.head = HeadParams(
            param("head.weight", rng.normal(0.0, (N * D) ** -0.5, (N * D, config.horizon))),
            param("head.bias", np.zeros(config.horizon)))

    # -- parameter registry ---------------------------------------------------

    def named_params(self) -> dict[str, T.Tensor]:
        """Every learnable tensor the variant's wiring reads, in creation order."""
        return dict(self._params)

    def params(self) -> list[T.Tensor]:
        return list(self.named_params().values())

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.named_params().items()}

    def load_state_arrays(self, state: dict[str, np.ndarray]):
        """Copy every parameter from ``state``; on a ConfigError the model is unchanged."""
        reg = self.named_params()
        missing = reg.keys() - state.keys()
        if missing:
            raise ConfigError(f"state lacks parameters {sorted(missing)}")
        new = {}
        for k, v in state.items():
            if k not in reg:
                raise ConfigError(f"unknown parameter {k!r} in state")
            if reg[k].shape != v.shape:
                raise ConfigError(
                    f"parameter {k!r} shape mismatch: model {reg[k].shape}, state {v.shape}"
                )
            new[k] = v.astype(np.float64)  # a copy: the model never aliases ``state``
            if not np.isfinite(new[k]).all():
                raise ConfigError(f"parameter {k!r} holds non-finite values")
        for k, data in new.items():
            reg[k].data = data
            reg[k].grad = None

    # -- forward ----------------------------------------------------------------

    def forward(self, window) -> T.Tensor:
        """Forecast (C, T) from a (C, L) window; batched (B, C, L) works too.

        Without a tape the batch runs in blocks of ``block_windows`` windows,
        and a block whose forecast is not finite raises NumericError; a taped
        forward is one block, so its tape spans the whole batch.
        """
        x, single = self._as_batch(window)
        if T.grad_enabled():
            out = self._forward_block(x)
        else:
            step = self.block_windows(x.shape[1])
            blocks = []
            # max(.., 1): an empty batch still runs once and keeps its (0, C, T) shape.
            for i in range(0, max(len(x), 1), step):
                blocks.append(self._forward_block(x[i : i + step]).data)
                if not np.isfinite(blocks[-1]).all():
                    raise NumericError(f"non-finite forecast in the block from window {i}")
            out = T.Tensor(np.concatenate(blocks))
        return out[0] if single else out

    def block_windows(self, n_vars: int) -> int:
        """Windows per block of a no-tape forward over ``n_vars`` variables.

        The byte budget ``tensor._BLOCK_BYTES`` over one window's float64
        share of the largest intermediate: the FFN hidden layer, the
        attention scores or the spatial pathway's per-head signed graphs.
        """
        cfg, wiring = self.config, self.wiring
        n = cfg.n_patches
        sizes = [n_vars * n * 2 * cfg.d_model]  # FFN hidden (C, N, 2D)
        if wiring["temporal"]:
            sizes.append(n_vars * cfg.heads * n * n)  # scores (C, heads, N, N)
        if wiring["spatial"]:
            graphs, nodes = node_layout(wiring["spatial_mode"], n_vars, n)
            sizes.append(graphs * cfg.heads * nodes * nodes)  # (graphs, H, nodes, nodes)
        return max(1, T._BLOCK_BYTES // (8 * max(sizes)))

    def _as_batch(self, window) -> tuple[np.ndarray, bool]:
        """A checked (B, C, L) float64 batch, and whether ``window`` was one (C, L) window."""
        x = np.ascontiguousarray(window, dtype=np.float64)
        single = x.ndim == 2
        if single:
            x = x[None]
        if x.ndim != 3:
            raise ConfigError(f"window must be (C, L) or (B, C, L), got shape {x.shape}")
        cfg = self.config
        if x.shape[-1] != cfg.lookback:
            raise ConfigError(f"window length {x.shape[-1]} != lookback {cfg.lookback}")
        if cfg.n_vars is not None and x.shape[-2] != cfg.n_vars:
            raise ConfigError(f"window has {x.shape[-2]} variables, config says {cfg.n_vars}")
        if not np.isfinite(x).all():
            raise InputError("window holds non-finite values")
        return x, single

    def _forward_block(self, x: np.ndarray) -> T.Tensor:
        """The whole pipeline on a checked (B, C, L) batch: (B, C, T)."""
        xn, stats = instance_normalize(x)
        ent = None  # read only by the fusions in _ENTROPY_FUSIONS
        if self.wiring["fusion"] in _ENTROPY_FUSIONS:
            # Without a filter gain no input needs a gradient, so this builds no tape.
            ent = entropy_tensor(T.Tensor(xn), self.filter_gain, degenerate="zero")  # (B, C)
        tokens = patch_and_embed(xn, self.embed)  # (B, C, N, D)
        for lp in self.layers:
            tokens = self._encoder_layer(tokens, ent, lp)
        return project_output(tokens, self.head, stats)

    def entropy_of(self, window) -> np.ndarray:
        """Per-variable entropy exactly as the forward pass sees it: (C,) or (B, C)."""
        x, single = self._as_batch(window)
        xn = instance_normalize(x)[0]
        with T.no_grad():
            ent = entropy_tensor(T.Tensor(xn), self.filter_gain, degenerate="zero").data
        return ent[0] if single else ent

    def _encoder_layer(self, x, ent, lp: LayerParams):
        t_feat = temporal_attention(x, lp.attn) if lp.attn is not None else None
        e_feat = context_spatial_extract(x, lp.spatial) if lp.spatial is not None else None
        f = _FUSIONS[self.wiring["fusion"]](t_feat, e_feat, ent, lp)
        h = layer_norm(x + f, lp.ln1_g, lp.ln1_b)
        ff = feed_forward(h, lp.ff_w1, lp.ff_b1, lp.ff_w2, lp.ff_b2)
        return layer_norm(h + ff, lp.ln2_g, lp.ln2_b)

    # -- checkpointing --------------------------------------------------------------

    def save(self, path: str):
        """npz archive: one float64 array per parameter, plus version and config JSON.

        Written beside ``path`` and renamed over it, so an interrupted save
        never leaves a partial checkpoint under the final name.
        """
        meta = json.dumps({"version": _CKPT_VERSION, "config": self.config.to_dict()},
                          sort_keys=True)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:  # a file name would get ".npz" appended
            np.savez(fh, **{_CKPT_META: np.array(meta)}, **self.state_arrays())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "SeedModel":
        """Read a checkpoint written by ``save``; any unreadable file is a ConfigError."""
        try:
            with np.load(path, allow_pickle=False) as ckpt:
                # Check every member's CRC, even where a corrupt header would cut a read short.
                if ckpt.zip.testzip() is not None:
                    raise ValueError("archive member fails its CRC check")
                state = {name: ckpt[name] for name in ckpt.files}
            meta = json.loads(state.pop(_CKPT_META).item())
            if meta["version"] != _CKPT_VERSION:
                raise ValueError(f"checkpoint version {meta['version']}, "
                                 f"this build reads {_CKPT_VERSION}")
            model = cls(ModelConfig.from_dict(meta["config"]))
            model.load_state_arrays(state)
        # TypeError: a bare .npy file (no context manager) or JSON of the wrong shape.
        # RuntimeError: zipfile's verdict on a corrupt flag, method or version field.
        except (OSError, ValueError, EOFError, KeyError, TypeError, RuntimeError,
                zipfile.BadZipFile) as exc:
            raise ConfigError(f"{path}: not a readable model checkpoint ({exc})") from exc
        return model
