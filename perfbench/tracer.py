"""Per-layer spans for seedcast, recorded by wrapping its public functions from outside.

The program is not edited: every target function or method is replaced, at
every place it is bound (module attributes, module-level dispatch tables such
as ``graph.GRAPH_BUILDERS``, and class attributes), by a wrapper that records
one span per call. Spans nest on one stack, so a span's self time is its
duration minus the durations of the spans opened directly inside it. Stats are
kept in memory, aggregated per span name, and read once at the end of a run.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time

# (module, attribute) of every wrapped callable. A dotted attribute is a method.
# Functions marked per-site get one span per importing module, named
# "<module>.<function>.<site>"; the others share one span across sites.
TARGETS = (
    ("data", "load_csv", False),
    ("data", "make_splits", False),
    ("model", "SeedModel.load", False),
    ("model", "SeedModel.save", False),
    ("model", "SeedModel.forward", False),
    ("model", "layer_norm", False),
    ("embedding", "instance_normalize", False),
    ("embedding", "patch_and_embed", False),
    ("embedding", "project_output", False),
    ("spectral", "entropy_tensor", True),
    ("fft", "fft_real_raw", False),
    ("fft", "fft_complex", False),
    ("attention", "temporal_attention", False),
    ("graph", "context_spatial_extract", False),
    ("graph", "make_windows", False),
    ("graph", "signed_distance", False),
    ("graph", "tanh_l1_graph", False),
    ("graph", "knn_sparsify", False),
    ("graph", "gcn", False),
    ("graph", "pool_windows", False),
    ("fuser", "patch_similarity", False),
    ("fuser", "fusion_weights", False),
    ("fuser", "blend", False),
    ("training", "train", False),
    ("training", "target_entropy", False),
    ("training", "loss_pred", False),
    ("training", "validation_mse", False),
    ("training", "evaluate", False),
    ("training", "Adam.step", False),
    ("tensor", "Tensor.backward", False),
)

# The spans reported as per-layer metrics (31 names).
SPANS = tuple(
    name
    for mod, attr, per_site in TARGETS
    for name in (
        [f"{mod}.{attr}.model", f"{mod}.{attr}.training"] if per_site else [f"{mod}.{attr}"]
    )
)

COUNTERS = (
    "tensor.tensors_created",
    "fft.rows",
    "spectral.entropy_rows",
    "graph.knn_kept_share",
    "training.revisited_window_share",
)


class CoverageError(RuntimeError):
    """A traced function is still reachable unwrapped, or a span has no binding."""


def _namespaces(mod) -> list[dict]:
    """Where a module can bind a function: its globals and its module-level dicts."""
    return [vars(mod)] + [v for k, v in vars(mod).items()
                          if isinstance(v, dict) and not k.startswith("__")]


def _rows(array) -> int:
    shape = array.shape
    return int(array.size // shape[-1]) if shape and shape[-1] else 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # span -> [calls, total_s, self_s]
        self._open: list[float] = []  # child time accumulated by each open span
        self._counts = {"tensors": 0, "fft_rows": 0, "entropy_rows": 0,
                        "knn_kept": 0, "knn_scored": 0,
                        "windows": 0, "revisited": 0}
        self._seen_windows: set[bytes] = set()
        self.count_windows = True

    # -- recording -------------------------------------------------------------

    def wrap(self, fn, name: str, on_return=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = open_spans.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - child
                if open_spans:
                    open_spans[-1] += dur
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    # -- counters -----------------------------------------------------------------

    def _count_fft(self, args, _result):
        self._counts["fft_rows"] += _rows(args[0])

    def _count_entropy(self, args, _result):
        self._counts["entropy_rows"] += _rows(args[0])

    def _count_knn(self, _args, graph):
        self._counts["knn_kept"] += int(graph.mask.sum())
        self._counts["knn_scored"] += int(graph.mask.size)

    def _count_windows(self, args, _result):
        if not self.count_windows:
            return
        import numpy as np

        x = np.asarray(args[1], dtype=np.float64)
        if x.ndim == 2:
            x = x[None]
        c = self._counts
        for w in x:
            key = hashlib.blake2b(np.ascontiguousarray(w).tobytes(), digest_size=16).digest()
            c["windows"] += 1
            if key in self._seen_windows:
                c["revisited"] += 1
            else:
                self._seen_windows.add(key)

    # -- installation -------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every target at every binding site under ``package``; check coverage."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        on_return = {
            "fft.fft_real_raw": self._count_fft,
            "fft.fft_complex": self._count_fft,
            "spectral.entropy_tensor": self._count_entropy,
            "graph.knn_sparsify": self._count_knn,
            "model.SeedModel.forward": self._count_windows,
        }
        originals = []
        for mod_name, attr, per_site in TARGETS:
            home = sys.modules.get(f"{package.__name__}.{mod_name}")
            base = f"{mod_name}.{attr}"
            target = home
            for part in attr.split("."):
                target = getattr(target, part, None)
            if target is None:
                raise CoverageError(f"{base} no longer exists; update TARGETS and the benchmark")
            if "." in attr:
                originals.append(self._patch_method(home, attr, base, on_return.get(base)))
            else:
                originals.append(self._patch_function(
                    modules, home, attr, base, per_site, on_return.get(base)))
        self._count_tensors(sys.modules[f"{package.__name__}.tensor"].Tensor)
        self._check_coverage(modules, originals)

    def _patch_method(self, home, attr, name, on_return):
        cls_name, meth = attr.split(".")
        cls = getattr(home, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(self.wrap(raw.__func__, name, on_return)))
            return raw.__func__
        setattr(cls, meth, self.wrap(raw, name, on_return))
        return raw

    def _patch_function(self, modules, home, attr, base, per_site, on_return):
        orig = getattr(home, attr)
        for mod in modules:
            site = mod.__name__.rpartition(".")[2]
            name = f"{base}.{site}" if per_site else base
            wrapped = None
            for ns in _namespaces(mod):
                for key, value in list(ns.items()):
                    if value is orig:
                        if wrapped is None:
                            wrapped = self.wrap(orig, name, on_return)
                        ns[key] = wrapped
        return orig

    def _count_tensors(self, tensor_cls):
        orig_init = tensor_cls.__init__
        counts = self._counts

        def counting_init(self_, *args, **kwargs):
            counts["tensors"] += 1
            orig_init(self_, *args, **kwargs)

        tensor_cls.__init__ = counting_init

    def _check_coverage(self, modules, originals):
        for mod in modules:
            for ns in _namespaces(mod):
                for key, value in ns.items():
                    if any(value is o for o in originals):
                        raise CoverageError(f"{mod.__name__}: {key!r} is bound unwrapped")
        missing = [s for s in SPANS if s not in self.stats]
        if missing:
            raise CoverageError(f"no binding site found for spans {missing}")

    # -- results ------------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span in SPANS:
            calls, total, self_s = self.stats[span]
            out[f"{span}.calls"] = calls
            out[f"{span}.total_ms"] = total * 1e3
            out[f"{span}.self_ms"] = self_s * 1e3
        c = self._counts
        out["tensor.tensors_created"] = c["tensors"]
        out["fft.rows"] = c["fft_rows"]
        out["spectral.entropy_rows"] = c["entropy_rows"]
        out["graph.knn_kept_share"] = c["knn_kept"] / c["knn_scored"] if c["knn_scored"] else 0.0
        out["training.revisited_window_share"] = (
            c["revisited"] / c["windows"] if c["windows"] else 0.0)
        return out
