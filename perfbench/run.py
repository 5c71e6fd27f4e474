"""seedcast benchmark: train and forecast throughput end to end, per-layer spans when traced.

    python3 perfbench/run.py --workload train_mixture8 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root. Each workload runs closed-loop with one caller in
fresh child processes (perfbench/child.py), one at a time, with BLAS pinned to
one thread. With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced child,
and an untraced child with the same inputs is run too, to check that tracing
changes no output and to measure its overhead. The exit code is nonzero when
any output check fails. See perfbench/README.md for the metrics.
"""

import os

PIN = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "NUMEXPR_NUM_THREADS", "SEED_NUM_THREADS")}
os.environ.update(PIN)  # before numpy loads, here and in every child

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
from tracer import COUNTERS, SPANS  # noqa: E402  (perfbench/ is this script's sys.path[0])

LOOKBACK = HORIZON = 96
MODEL_SEED = 11  # fixed, so the seed varies the data and not the model
SETUPS = 3  # set-ups per run; setup_s is their median
WARMUP_OPS = 2  # the first steps or batches of a process run 30-50% slower
DEADLINE_S = 170.0

# Why each workload exists is in README.md. All use L=T=96, patch 16, D=64,
# 2 layers, variant full and lambda 0.1 (see child.model_config).
WORKLOADS = {
    "train_mixture8": {
        "kind": "train", "periods": (24, 36, 48, 96), "noise": 4, "rows": 4000,
        "ratio": (7, 1, 2), "batch": 64, "epochs": 2,
    },
    "train_weather21": {
        "kind": "train", "periods": (6, 12, 18, 24, 36, 48, 60, 72, 84, 96), "noise": 11,
        "rows": 2000, "ratio": (7, 1, 2), "batch": 32, "epochs": 1,
    },
    "forecast_mixture8": {
        # 1:1:8 puts 16k distinct windows in the evaluated split, more than a
        # run forecasts, while make_splits' train and val copies stay small.
        "kind": "forecast", "periods": (24, 36, 48, 96), "noise": 4, "rows": 20600,
        "ratio": (1, 1, 8), "chunk": 1024,
    },
}

END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("windows_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("test_mse", "mse"),
    ("peak_rss_mb", "MB"),
)
TRACE_OVERHEAD = ("trace.overhead_ms", "trace.overhead_share")
ABSENT_ON_FORECAST = {  # spans the eval path never reaches
    "training.train", "training.target_entropy", "training.loss_pred",
    "training.validation_mse", "training.Adam.step", "tensor.Tensor.backward",
    "fft.fft_complex", "spectral.entropy_tensor.training",
}
ZERO_ON_FORECAST = ("tensor.Tensor.backward", "training.Adam.step")


class BenchError(RuntimeError):
    """The benchmark could not run to the end; no result is printed."""


# -- inputs -------------------------------------------------------------------------


def make_values(wl: dict, seed: int) -> np.ndarray:
    """Sines at fixed periods with seeded phases, then standard-normal noise columns."""
    rng = np.random.default_rng(seed)
    t = np.arange(wl["rows"])
    sines = [np.sin(2 * np.pi * t / p + rng.uniform(0, 2 * np.pi)) for p in wl["periods"]]
    noise = [rng.standard_normal(wl["rows"]) for _ in range(wl["noise"])]
    return np.stack(sines + noise, axis=1)


def write_csv(path: Path, values: np.ndarray, wl: dict) -> str:
    header = [f"sine_p{p}" for p in wl["periods"]] + [f"noise{i}" for i in range(wl["noise"])]
    np.savetxt(path, values, fmt="%.17g", delimiter=",", header=",".join(header), comments="")
    return hashlib.sha256(path.read_bytes()).hexdigest()


def split_rows(n: int, ratio) -> tuple[int, int]:
    a, b, c = ratio
    n_val, n_test = int(n * b / (a + b + c)), int(n * c / (a + b + c))
    return n - n_val - n_test, n - n_test


def persistence_mse(values: np.ndarray, ratio) -> float:
    """Repeat-the-last-value MSE on the test windows, on train-standardized values.

    Computed here rather than with seedcast's split and window helpers, so a
    defect in them cannot move the reference that test_mse is checked against.
    """
    train_end, test_start = split_rows(len(values), ratio)
    mean, std = values[:train_end].mean(axis=0), values[:train_end].std(axis=0)
    z = (values - mean) / np.where(std > 0, std, 1.0)
    w = np.lib.stride_tricks.sliding_window_view(
        z[test_start - LOOKBACK:], LOOKBACK + HORIZON, axis=0)  # (M, C, L+T)
    return float(((w[..., LOOKBACK:] - w[..., LOOKBACK - 1:LOOKBACK]) ** 2).mean())


# -- processes ----------------------------------------------------------------------


def run_child(spec: dict, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **PIN)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a workload process")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process ran past the {DEADLINE_S:.0f} s budget") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    sha = None
    if (ROOT / ".git").exists():  # a plain source tree has no SHA; never ask a parent repo
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for f in sorted((SRC / "seedcast").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(PIN["OPENBLAS_NUM_THREADS"]), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas, "git_sha": sha,
        "src_sha256": src.hexdigest(), "loadavg_1m": os.getloadavg()[0],
    }


# -- one workload -------------------------------------------------------------------


@dataclass
class Outcome:
    metrics: dict
    lines: list
    attempted: int
    failed: int


def percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def timed_ops(wl: dict, res: dict) -> list[float]:
    """Train steps or forecast batches, less the first WARMUP_OPS of the process."""
    return (res["steps_ms"] if wl["kind"] == "train" else res["batches_ms"])[WARMUP_OPS:]


def end_to_end(wl: dict, setups: list[float], res: dict) -> dict:
    ops = timed_ops(wl, res)
    return {
        "setup_s": float(np.median(setups)),
        "windows_per_s": res["windows"] / res["windows_s"],
        "step_ms_p50": percentile(ops, 50),
        "step_ms_p90": percentile(ops, 90),
        "test_mse": res["test_mse"],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def report_lines(wl: dict, setups, res: dict, e2e: dict, failed: int, attempted: int
                 ) -> list[str]:
    """The end-to-end metrics under their train_*/forecast_* names, for people to read."""
    n_ops = f"{len(timed_ops(wl, res))} after {WARMUP_OPS} warm-up"
    rows = [("setup_s", e2e["setup_s"], "s", f"median of {len(setups)} set-ups")]
    if wl["kind"] == "train":
        batches = res["batches_ms"]
        rows += [
            ("train_windows_per_s", e2e["windows_per_s"], "1/s",
             f"{res['windows']} windows, {res['units']} x train() of {wl['epochs']} epochs"),
            ("train_step_ms_p50", e2e["step_ms_p50"], "ms", f"{n_ops} steps"),
            ("train_step_ms_p90", e2e["step_ms_p90"], "ms", f"{n_ops} steps"),
            ("forecast_windows_per_s", res["forecast_windows"] / (sum(batches) / 1e3), "1/s",
             "validation and test batches inside train()"),
            ("forecast_batch_ms_p50", percentile(batches, 50), "ms", f"{len(batches)} batches"),
            ("forecast_batch_ms_p90", percentile(batches, 90), "ms", f"{len(batches)} batches"),
        ]
    else:
        rows += [
            ("forecast_windows_per_s", e2e["windows_per_s"], "1/s",
             f"{res['windows']} distinct windows, {res['units']} x evaluate()"),
            ("forecast_batch_ms_p50", e2e["step_ms_p50"], "ms", f"{n_ops} batches of 256"),
            ("forecast_batch_ms_p90", e2e["step_ms_p90"], "ms", f"{n_ops} batches of 256"),
        ]
    rows += [
        ("test_mse", e2e["test_mse"], "mse", "first unit"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "ru_maxrss of the workload process"),
        ("failed_ops_share", failed / attempted, "share",
         f"{failed} of {attempted} steps/batches"),
    ]
    return [f"  {n:<24} {v:>14.6g} {u:<6} {note}" for n, v, u, note in rows]


def check_outputs(wl: dict, res: dict, persistence: float) -> dict:
    checks = dict(res["checks"])
    checks["finite_outputs"] = res["nonfinite"] == 0 and bool(np.isfinite(res["test_mse"]))
    if wl["kind"] == "train":
        checks["test_mse_below_persistence"] = res["test_mse"] < persistence
    return checks


def check_trace(name: str, res: dict, traced: dict) -> dict:
    checks = {"traced_test_mse_identical": traced["test_mses"] == res["test_mses"],
              "traced_forecasts_identical": traced["forecast_digest"] == res["forecast_digest"]}
    calls = {span: traced["trace"][f"{span}.calls"] for span in SPANS}
    forecast = WORKLOADS[name]["kind"] == "forecast"
    for span, n in calls.items():
        if not (forecast and span in ABSENT_ON_FORECAST):
            checks[f"span_fires:{span}"] = n > 0
    if forecast:
        for span in ZERO_ON_FORECAST:
            checks[f"span_zero:{span}"] = calls[span] == 0
    return checks


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    return "share" if name.endswith("_share") else "count"


def make_spec(name: str, seed: int, seconds: int, work: Path, deadline: float):
    """Write the workload's inputs; return the child spec, the values and the CSV's sha256."""
    wl = WORKLOADS[name]
    values = make_values(wl, seed)
    csv = work / f"{name}.csv"
    sha = write_csv(csv, values, wl)
    base = {"lookback": LOOKBACK, "horizon": HORIZON, "model_seed": MODEL_SEED}
    spec = dict(base, kind=wl["kind"], csv=str(csv), ratio=list(wl["ratio"]), seconds=seconds,
                ckpt_out=str(work / f"{name}.out.ckpt"))
    if wl["kind"] == "train":
        spec.update(batch=wl["batch"], epochs=wl["epochs"])
    else:
        ckpt = work / f"{name}.ckpt"
        run_child(dict(base, kind="make_checkpoint", n_vars=values.shape[1],
                       ckpt_out=str(ckpt)), deadline)
        probe = int(np.random.default_rng([seed, 1]).integers(wl["chunk"]))
        spec.update(ckpt=str(ckpt), chunk=wl["chunk"], probe=probe)
    return spec, values, sha


def run_workload(name: str, seed: int, seconds: int, trace: bool, work: Path,
                 deadline: float) -> Outcome:
    wl = WORKLOADS[name]
    spec, values, sha = make_spec(name, seed, seconds, work, deadline)
    persistence = persistence_mse(values, wl["ratio"])
    lines = [f"workload {name}  seed {seed}  trace {int(trace)}",
             f"  inputs {name}.csv sha256={sha} rows={values.shape[0]} vars={values.shape[1]}"
             f" persistence_mse={persistence:.6g}"]

    setups = [] if trace else [run_child(dict(spec, setup_only=True), deadline)["setup_s"]
                               for _ in range(SETUPS - 1)]
    res = run_child(spec, deadline)
    setups.append(res["setup_s"])
    checks = check_outputs(wl, res, persistence)
    attempted = len(res["steps_ms"]) + len(res["batches_ms"])
    nonfinite = res["nonfinite"]
    if trace:
        traced = run_child(dict(spec, trace=True, units=res["units"]), deadline)
        checks.update({f"traced_{k}": v for k, v in check_outputs(wl, traced, persistence).items()})
        checks.update(check_trace(name, res, traced))
        attempted += len(traced["steps_ms"]) + len(traced["batches_ms"])
        nonfinite += traced["nonfinite"]
    failed_checks = [k for k, ok in checks.items() if not ok]
    failed = min(attempted, nonfinite + len(failed_checks))

    e2e = end_to_end(wl, setups, res)
    lines += report_lines(wl, setups, res, e2e, failed, attempted)
    if trace:
        tm = traced["trace"]
        overhead = traced["measured_s"] - res["measured_s"]
        tm["trace.overhead_ms"] = overhead * 1e3
        tm["trace.overhead_share"] = overhead / res["measured_s"]
        names = [f"{s}.{f}" for s in SPANS for f in ("calls", "total_ms", "self_ms")]
        metrics = {k: {"value": tm[k], "unit": per_layer_unit(k)}
                   for k in names + list(COUNTERS) + list(TRACE_OVERHEAD)}
        lines.append(f"  tracing overhead {overhead * 1e3:.1f} ms"
                     f" ({100 * overhead / res['measured_s']:.1f}% of the untraced"
                     f" {res['measured_s']:.2f} s)")
        lines += [f"  {k:<48} {v['value']:>14.6g} {v['unit']}" for k, v in metrics.items()]
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    lines.append(f"  checks: {len(checks) - len(failed_checks)} of {len(checks)} passed"
                 + (f"; FAILED: {', '.join(failed_checks)}" if failed_checks else ""))
    return Outcome(metrics, lines, attempted, failed)


# -- entry point --------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "seedcast" / "__init__.py").is_file():
        print(f"error: no seedcast sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("env " + json.dumps(environment()), flush=True)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    all_metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            out = run_workload(name, args.seed, args.seconds, bool(args.trace), work,
                               deadline if len(names) == 1 else time.monotonic() + DEADLINE_S)
            print("\n".join(out.lines), flush=True)
            prefix = "" if len(names) == 1 else f"{name}."
            all_metrics.update({prefix + k: v for k, v in out.metrics.items()})
            attempted, failed = attempted + out.attempted, failed + out.failed
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
