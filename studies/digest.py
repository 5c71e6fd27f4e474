"""Bit-identity digest: SHA-256 over seeded outputs, gradients and training.

Two commits that print the same lines compute the same bits. Each section
hashes one kind of result, so a change that moves bits on purpose can say
which parts moved:

- ``step.<setting>``: per variant, one taped forward of a batch at 8 and
  at 21 variables, its loss and every parameter gradient, at the default
  model config and with ``detach_entropy=False``, ``pool="max"`` or
  ``knn_k=3``;
- ``forecast``: per variant at 8 and 21 variables, a no-tape forward over
  several blocks, of one window and of an empty batch;
- ``train``: per variant, a seeded 2-epoch micro ``train()``: its metrics
  (without wall-clock time) and final weights;
- ``cli``: acceptance criterion 9's ``seedcast train`` run: its
  ``metrics.json`` without wall-clock fields, and the bytes of its saved
  checkpoint.

The last line hashes all the sections' digests. Run from the repository root:

    python studies/digest.py                     # every section
    python studies/digest.py forecast            # only the named sections
    python studies/digest.py --against HEAD~1    # this tree against a commit

It imports ``seedcast`` from the ``src/`` beside this directory. Pin the BLAS
threads (``SEED_NUM_THREADS=1``) when comparing two commits by hand.
``--against REV`` does that itself: it exports REV's ``src/`` and
``studies/`` with ``git archive``, runs both trees' digests in fresh
interpreters at one BLAS thread, prints ``same``, ``moved`` or
``only in <side>`` for each line, and exits 1 if any line moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from seedcast import data as D  # noqa: E402  (first: it applies SEED_NUM_THREADS)
from seedcast import cli  # noqa: E402
from seedcast import tensor as T  # noqa: E402
from seedcast import training as TR  # noqa: E402
from seedcast.model import VARIANTS, ModelConfig, SeedModel  # noqa: E402

import numpy as np  # noqa: E402

STEP_SHAPES = ((8, 16), (21, 8))  # (variables, batch) at the default model config
STEP_SETTINGS = {
    "base": {},
    "detach_entropy_false": {"detach_entropy": False},
    "pool_max": {"pool": "max"},
    "knn_k_3": {"knn_k": 3},
}
MICRO_CONFIG = dict(lookback=16, horizon=8, patch_len=4, d_model=8, heads=2, n_layers=2)
# Acceptance criterion 9's run, after its data file and output directory.
CLI_ARGS = ["--split", "6:2:2", "--lookback", "32", "--horizon", "8", "--patch-len", "8",
            "--d-model", "8", "--heads", "2", "--layers", "1", "--epochs", "2", "--batch", "32",
            "--seed", "13"]


def _update(h, *arrays):
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())


def _step(setting: dict) -> str:
    h = hashlib.sha256()
    for n_vars, batch in STEP_SHAPES:
        rng = np.random.default_rng(n_vars)
        for variant in VARIANTS:
            model = SeedModel(ModelConfig(**setting, n_vars=n_vars, variant=variant, seed=7))
            x = rng.normal(size=(batch, n_vars, model.config.lookback))
            y = rng.normal(size=(batch, n_vars, model.config.horizon))
            out = model.forward(x)
            loss = TR.total_loss(y, out, model.config.lam)
            loss.backward()
            h.update(variant.encode())
            _update(h, out.data, loss.data)
            for name, p in model.named_params().items():
                h.update(name.encode())
                _update(h, p.grad)
    return h.hexdigest()


def _forecast() -> str:
    h = hashlib.sha256()
    rng = np.random.default_rng(1)
    for n_vars, variant in itertools.product((8, 21), VARIANTS):
        model = SeedModel(ModelConfig(n_vars=n_vars, variant=variant, seed=7))
        batch = 2 * model.block_windows(n_vars) + 1  # two full blocks and a partial one
        x = rng.normal(size=(batch, n_vars, model.config.lookback))
        with T.no_grad():
            outs = [model.forward(x), model.forward(x[0]), model.forward(x[:0])]
        h.update(variant.encode())
        _update(h, *(o.data for o in outs))
    return h.hexdigest()


def _train() -> str:
    h = hashlib.sha256()
    ds = D.synthetic_mixture(n_sine=2, n_noise=1, length=300, periods=(12, 24), seed=5)
    splits = D.make_splits(ds, MICRO_CONFIG["lookback"], MICRO_CONFIG["horizon"])
    for variant in VARIANTS:
        model = SeedModel(ModelConfig(**MICRO_CONFIG, n_vars=3, variant=variant, seed=3))
        model, report = TR.train(model, splits, TR.TrainConfig(epochs=2, batch_size=16, seed=3))
        metrics = report.to_dict()
        metrics.pop("seconds", None)
        h.update(variant.encode())
        h.update(repr(sorted(metrics.items())).encode())
        for name, p in model.named_params().items():
            h.update(name.encode())
            _update(h, p.data)
    return h.hexdigest()


def _cli() -> str:
    h = hashlib.sha256()
    ds = D.synthetic_mixture(n_sine=2, n_noise=2, length=600, periods=(12, 24), seed=5)
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, out = os.path.join(tmp, "mix.csv"), os.path.join(tmp, "run")
        D.write_csv(csv_path, ds.values, ds.columns)
        with contextlib.redirect_stdout(io.StringIO()):  # the run's summary line
            code = cli.main(["train", "--data", csv_path, "--out", out, *CLI_ARGS])
        if code != 0:
            raise RuntimeError(f"seedcast train exited {code}")
        with open(os.path.join(out, "metrics.json")) as fh:
            metrics = json.load(fh)
        metrics.pop("seconds")  # the one wall-clock field
        h.update(json.dumps(metrics, sort_keys=True).encode())
        with open(os.path.join(out, "model.ckpt"), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


SECTIONS = {
    **{f"step.{name}": (lambda s=setting: _step(s)) for name, setting in STEP_SETTINGS.items()},
    "forecast": _forecast,
    "train": _train,
    "cli": _cli,
}


def _tree_digest(root: str, names: list[str]) -> dict[str, str]:
    """``{line name: digest}`` printed by the digest script of the tree at ``root``."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "studies", "digest.py"), *names],
        capture_output=True, text=True, env={**os.environ, "SEED_NUM_THREADS": "1"})
    if proc.returncode != 0:
        raise SystemExit(f"digest of {root} failed:\n{proc.stderr}")
    return {name: digest for digest, name in (line.split() for line in proc.stdout.splitlines())}


def export(rev: str, dest: str, paths: tuple[str, ...] = ("src", "studies")) -> None:
    """Unpack ``paths`` of git revision ``rev`` of this repository into ``dest``."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev, *paths], capture_output=True)
    if archive.returncode != 0:
        raise SystemExit(archive.stderr.decode())
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def against(rev: str, names: list[str]) -> int:
    """Compare this tree's digest with ``rev``'s, line by line; 1 if any line moved."""
    with tempfile.TemporaryDirectory() as tmp:
        export(rev, tmp)
        old, new = _tree_digest(tmp, names), _tree_digest(ROOT, names)
    moved = False
    for name in {**old, **new}:  # old's lines in order, then lines only this tree has
        if name not in new:
            verdict = f"only in {rev}"
        elif name not in old:
            verdict = "only in this tree"
        else:
            verdict = "same" if old[name] == new[name] else "moved"
            moved |= verdict == "moved"
        print(f"{verdict:<16} {name}")
    return 1 if moved else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="SHA-256 digest of seeded results.")
    parser.add_argument("sections", nargs="*", help=f"any of {list(SECTIONS)}; default all")
    parser.add_argument("--against", metavar="REV",
                        help="compare this tree with git revision REV instead")
    args = parser.parse_args(argv)
    names = args.sections
    unknown = [n for n in names if n not in SECTIONS]
    if unknown:
        print(f"unknown sections {unknown}; choose from {list(SECTIONS)}", file=sys.stderr)
        return 2
    if args.against:
        return against(args.against, names)
    total = hashlib.sha256()
    for name in names or SECTIONS:
        digest = SECTIONS[name]()
        total.update(f"{name} {digest}\n".encode())
        print(f"{digest}  {name}", flush=True)
    print(f"{total.hexdigest()}  all")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
