"""Command-line interface: train, eval, analyze, ablate, synth."""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import data as D
from .errors import (
    ConfigError,
    DataError,
    DegenerateInputError,
    DivergenceError,
    InputError,
    ShapeError,
)
from .model import VARIANTS, ModelConfig, SeedModel
from .spectral import SyntheticSpec, acf_entropy_study, autocorrelation, spectral_entropy
from .training import TrainConfig, evaluate, train


def _numbers(text: str, kind, sep: str = ",") -> list:
    """The values in ``text`` between ``sep``; one that ``kind`` cannot read is an InputError."""
    try:
        return [kind(p) for p in text.split(sep) if p.strip()]
    except ValueError:
        raise InputError(f"expected {kind.__name__} values, got {text!r}") from None


def _parse_grid(text: str) -> list[float]:
    """Either 'start:stop:step' (inclusive) or a comma list like '0,0.5,1'."""
    ranged = ":" in text
    values = _numbers(text, float, ":" if ranged else ",")
    if not np.isfinite(values).all():
        raise InputError(f"grid values must be finite, got {text!r}")
    if not ranged:
        return values
    if len(values) != 3:
        raise InputError(f"grid must be start:stop:step, got {text!r}")
    start, stop, step = values
    if step <= 0:
        raise InputError(f"grid step must be > 0, got {step}")
    steps = (start + k * step for k in itertools.count())
    return [round(v, 12) for v in itertools.takewhile(lambda v: v <= stop + step * 1e-9, steps)]


def _registry_with_overrides(args) -> dict:
    reg = dict(D.REGISTRY)
    if getattr(args, "registry", None):
        reg.update(D.load_registry_file(args.registry))
    return reg


def _load_dataset(args) -> D.Dataset:
    if not args.data:
        raise DataError("--data CSV path is required")
    reg = _registry_with_overrides(args)
    name = args.dataset or os.path.splitext(os.path.basename(args.data))[0]
    entry = reg.get(name, {})
    date_col = args.date_col or entry.get("date_col", False)
    ds = D.load_csv(args.data, date_col=date_col, name=name)
    if args.split:
        ds.split_ratio = D.parse_ratio(args.split)
    elif entry.get("split"):
        ds.split_ratio = entry["split"]
    if ds.split_ratio is None:
        raise DataError(
            f"dataset {name!r} is not in the registry; pass --split (e.g. 7:1:2)"
        )
    if ds.rejected_rows:
        print(f"note: dropped {ds.rejected_rows} rows with non-finite values",
              file=sys.stderr)
    expected = entry.get("dim")
    if expected is not None and ds.n_vars != expected:
        print(f"note: {name} has {ds.n_vars} variables, registry expects {expected}",
              file=sys.stderr)
    return ds


def _config(cls, args, **given):
    """A ``cls`` config from the flags named after its fields; ``given`` sets the rest."""
    flags = {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}
    return cls(**flags | given)


def _manifest(config: ModelConfig, tcfg: TrainConfig, ds: D.Dataset, args) -> dict:
    payload = {
        "model_config": config.to_dict(),
        "train_config": tcfg.to_dict(),
        "dataset": {
            "name": ds.name,
            "path": args.data,
            "rows": len(ds),
            "vars": ds.n_vars,
            "split": list(ds.split_ratio),
            "standardize": not args.no_standardize,
            "rejected_rows": ds.rejected_rows,
        },
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    payload["config_hash"] = hashlib.sha256(blob).hexdigest()
    payload["out_dir"] = args.out
    # Seeded gradients depend on the BLAS thread count, so a rerun needs the same cap.
    payload["thread_cap"] = {name: os.environ.get(name) for name in
                             ("SEED_NUM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return payload


def _write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_train(args) -> int:
    ds = _load_dataset(args)
    config = _config(ModelConfig, args, n_vars=ds.n_vars)
    tcfg = _config(TrainConfig, args)
    splits = D.make_splits(ds, config.lookback, config.horizon,
                           standardize=not args.no_standardize)
    model = SeedModel(config)
    model, report = train(model, splits, tcfg)
    os.makedirs(args.out, exist_ok=True)
    model.save(os.path.join(args.out, "model.ckpt"))
    _write_json(os.path.join(args.out, "metrics.json"), report.to_dict())
    _write_json(os.path.join(args.out, "manifest.json"), _manifest(config, tcfg, ds, args))
    print(f"{ds.name} variant={config.variant} "
          f"test mse={report.mse:.6f} mae={report.mae:.6f} "
          f"epochs={report.epochs} ({report.seconds:.1f}s)")
    return 0


def cmd_eval(args) -> int:
    if not os.path.exists(args.ckpt):
        raise DataError(f"no such checkpoint: {args.ckpt}")
    model = SeedModel.load(args.ckpt)
    ds = _load_dataset(args)
    cfg = model.config
    if cfg.n_vars is not None and ds.n_vars != cfg.n_vars:
        raise ConfigError(
            f"checkpoint expects {cfg.n_vars} variables, dataset has {ds.n_vars}"
        )
    splits = D.make_splits(ds, cfg.lookback, cfg.horizon,
                           standardize=not args.no_standardize)
    part = {"train": splits.train, "val": splits.val, "test": splits.test}[args.on]
    report = evaluate(model, part)
    print(f"{ds.name} split={args.on} mse={report.mse:.6f} mae={report.mae:.6f}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, f"metrics_{args.on}.json"), report.to_dict())
    return 0


def _emit_csv(path: str | None, header: list[str], rows: list[tuple]):
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    if args.synthetic and args.data:
        print("error: --synthetic and --data are mutually exclusive", file=sys.stderr)
        return 2
    if args.synthetic:
        alphas = _parse_grid(args.alphas)
        template = SyntheticSpec(alpha=0.0, period=args.period,
                                 length=args.length, seed=args.seed)
        rows = acf_entropy_study(alphas, template, n_seeds=args.seeds)
        _emit_csv(args.out_csv, ["alpha", "acf_peak", "spectral_entropy"],
                  [(a, repr(p), repr(s)) for a, p, s in rows])
        return 0
    if args.data:
        ds = D.load_csv(args.data, date_col=args.date_col)
        max_lag = max(1, len(ds) // 2)
        rows = []
        for i, col in enumerate(ds.values.T):
            name = ds.columns[i] if i < len(ds.columns) else f"var{i}"
            try:
                spen = spectral_entropy(col)
                peak = float(np.max(autocorrelation(col, max_lag)))
            except DegenerateInputError:
                print(f"note: column {name!r} is constant; entropy mapped to 0",
                      file=sys.stderr)
                spen, peak = 0.0, 0.0
            rows.append((name, repr(spen), repr(peak)))
        _emit_csv(args.out_csv, ["variable", "spectral_entropy", "acf_peak"], rows)
        return 0
    print("error: analyze needs --synthetic or --data", file=sys.stderr)
    return 2


def cmd_ablate(args) -> int:
    ds = _load_dataset(args)
    tcfg = _config(TrainConfig, args)
    splits = D.make_splits(ds, args.lookback, args.horizon,
                           standardize=not args.no_standardize)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for variant in ("full",) + tuple(v for v in VARIANTS if v != "full"):
        model = SeedModel(_config(ModelConfig, args, n_vars=ds.n_vars, variant=variant))
        model, report = train(model, splits, tcfg)
        rows.append((variant, repr(report.mse), repr(report.mae)))
        print(f"{variant:10s} mse={report.mse:.6f} mae={report.mae:.6f} "
              f"epochs={report.epochs}")
    _emit_csv(os.path.join(args.out, "ablation.csv"), ["variant", "mse", "mae"], rows)
    return 0


def cmd_synth(args) -> int:
    ds = D.synthetic_mixture(n_sine=args.sine, n_noise=args.noise,
                             length=args.length, periods=tuple(_numbers(args.periods, int)),
                             seed=args.seed)
    D.write_csv(args.out_csv, ds.values, ds.columns)
    print(f"wrote {len(ds)} rows x {ds.n_vars} vars to {args.out_csv}")
    return 0


def _add_data_flags(p: argparse.ArgumentParser):
    p.add_argument("--data", help="CSV file with a header row")
    p.add_argument("--dataset", help="registry name (sets split and date column)")
    p.add_argument("--split", help="train:val:test ratio, e.g. 6:2:2")
    p.add_argument("--date-col", action="store_true",
                   help="skip a leading date column")
    p.add_argument("--registry", help="JSON/TOML file with extra dataset entries")
    p.add_argument("--no-standardize", action="store_true",
                   help="skip global z-scoring by train-split statistics")


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--lookback", type=int, default=96)
    p.add_argument("--horizon", type=int, default=96)
    p.add_argument("--patch-len", type=int, default=16)
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--heads", type=int, default=4,
                   help="attention and graph heads")
    p.add_argument("--knn-k", type=int, default=None,
                   help="edges kept per node (default: half the nodes)")
    p.add_argument("--pool", choices=("mean", "max"), default="mean")
    p.add_argument("--variant", choices=VARIANTS, default="full")
    p.add_argument("--lambda", dest="lam", type=float, default=0.1,
                   help="weight of the entropy-matching loss")
    p.add_argument("--layers", dest="n_layers", type=int, default=2)


def _add_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch", dest="batch_size", type=int, default=32)
    p.add_argument("--lr", dest="learning_rate", type=float, default=1e-3)
    p.add_argument("--patience", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="seedcast_out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seedcast",
        description="Entropy-guided dual-path multivariate forecaster",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write metrics + checkpoint")
    _add_data_flags(p)
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--on", choices=("train", "val", "test"), default="test")
    p.add_argument("--out", default=None)
    _add_data_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze",
                       help="ACF-vs-entropy study (synthetic) or per-variable stats (data)")
    p.add_argument("--synthetic", action="store_true")
    p.add_argument("--alphas", default="0:1:0.1", help="noise grid, start:stop:step")
    p.add_argument("--period", type=int, default=24)
    p.add_argument("--length", type=int, default=512)
    p.add_argument("--seeds", type=int, default=1, help="replicates per alpha")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--data", help="CSV for per-variable analysis")
    p.add_argument("--date-col", action="store_true")
    p.add_argument("--out-csv", default=None, help="write here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("ablate", help="train every variant with a shared seed")
    _add_data_flags(p)
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("synth", help="write a sine+noise mixture dataset to CSV")
    p.add_argument("--sine", type=int, default=4)
    p.add_argument("--noise", type=int, default=4)
    p.add_argument("--length", type=int, default=4000)
    p.add_argument("--periods", default="24,36,48,96")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-csv", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, InputError, ShapeError,
            DegenerateInputError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
