"""One workload process: set up, run the measured loop, check outputs, print a JSON line.

Started by run.py in a fresh interpreter with BLAS threads pinned, so that
``setup_s`` can run from ``import seedcast`` to the first step or batch. The
spec (a JSON argument) fixes every input; this file only drives the public
calls that ``seedcast train`` and ``seedcast eval`` make.

    python3 perfbench/child.py '<spec json>'
"""

import hashlib
import json
import resource
import sys
import time

from tracer import Tracer

T_START = time.perf_counter()
import seedcast  # noqa: E402  (timed: setup_s starts here)
from seedcast import data, model, tensor, training  # noqa: E402

import numpy as np  # noqa: E402  (already loaded by seedcast)


class SetupDone(Exception):
    """Raised at the first step or batch when only the set-up is measured."""


class Clock:
    """End-to-end hooks on SeedModel.forward and Adam.step, present traced or not.

    A forward with the tape on starts a train step, which ends when Adam.step
    returns. A forward without the tape is one forecast batch.
    """

    def __init__(self, setup_only: bool, probe: int | None, tracer):
        self.setup_only = setup_only
        self.tracer = tracer
        self.probe = probe
        self.recording = True
        self.first_call = None
        self.unit_first_step = None
        self.step_start = None
        self.steps_s: list[float] = []
        self.train_windows = 0
        self.batches_s: list[float] = []
        self.forecast_windows = 0
        self.nonfinite = 0
        self.probe_row = None
        self.digest = hashlib.sha256()

    def stop(self):
        """End the measured phase: later forwards are checks, not workload."""
        self.recording = False
        if self.tracer is not None:
            self.tracer.count_windows = False

    def install(self):
        orig_forward = model.SeedModel.forward
        orig_step = training.Adam.step
        clock = time.perf_counter

        def forward(m, window, *args, **kwargs):
            start = clock()
            if self.first_call is None:
                self.first_call = start
                if self.setup_only:
                    raise SetupDone
            out = orig_forward(m, window, *args, **kwargs)
            dur = clock() - start
            if not self.recording:
                return out
            values = out.data
            n = 1 if values.ndim == 2 else values.shape[0]
            if not np.isfinite(values).all():
                self.nonfinite += 1
            if out.requires_grad:
                self.step_start = start
                if self.unit_first_step is None:
                    self.unit_first_step = start
                self.train_windows += n
            else:
                base = self.forecast_windows
                if self.probe is not None and base <= self.probe < base + n:
                    self.probe_row = values.reshape((n,) + values.shape[-2:])[self.probe - base].copy()
                self.batches_s.append(dur)
                self.forecast_windows += n
                self.digest.update(values.tobytes())
            return out

        def step(opt):
            result = orig_step(opt)
            if self.recording and self.step_start is not None:
                self.steps_s.append(clock() - self.step_start)
                self.step_start = None
            return result

        model.SeedModel.forward = forward
        training.Adam.step = step


EVAL_BATCH = 256  # evaluate()'s default batch, as `seedcast eval` uses it


def model_config(spec, n_vars):
    return model.ModelConfig(
        lookback=spec["lookback"], horizon=spec["horizon"], patch_len=16, d_model=64,
        n_layers=2, variant="full", lam=0.1, seed=spec["model_seed"], n_vars=n_vars)


def finished(spec, units_done: int, t_begin: float) -> bool:
    """A run does a fixed number of units when told to, else units until time is up."""
    if spec.get("units") is not None:
        return units_done >= spec["units"]
    return time.perf_counter() - t_begin >= spec["seconds"]


def run_train(spec, clock, out):
    ds = data.load_csv(spec["csv"])
    splits = data.make_splits(ds, spec["lookback"], spec["horizon"], ratio=tuple(spec["ratio"]))
    mses, train_s = [], 0.0
    t_begin = None
    ckpt = spec["ckpt_out"]
    while True:
        m = model.SeedModel(model_config(spec, ds.n_vars))
        cfg = training.TrainConfig(epochs=spec["epochs"], batch_size=spec["batch"],
                                   patience=spec["epochs"], seed=spec["model_seed"])
        clock.unit_first_step = None
        m, report = training.train(m, splits, cfg)
        t_end = time.perf_counter()
        m.save(ckpt)
        if t_begin is None:
            t_begin = clock.unit_first_step
        train_s += t_end - clock.unit_first_step
        mses.append(report.mse)
        if finished(spec, len(mses), t_begin):
            break
    out["measured_s"] = time.perf_counter() - t_begin
    clock.stop()
    out.update(units=len(mses), test_mse=mses[0], test_mses=mses,
               windows=clock.train_windows, windows_s=train_s)

    loaded = model.SeedModel.load(ckpt)
    saved, back = m.state_arrays(), loaded.state_arrays()
    out["checks"]["checkpoint_round_trip"] = (
        saved.keys() == back.keys() and all(np.array_equal(saved[k], back[k]) for k in saved))
    out["checks"]["repeats_identical"] = len(set(mses)) == 1


def run_forecast(spec, clock, out):
    m = model.SeedModel.load(spec["ckpt"])
    ds = data.load_csv(spec["csv"])
    splits = data.make_splits(ds, spec["lookback"], spec["horizon"], ratio=tuple(spec["ratio"]))
    test = splits.test
    chunk = spec["chunk"]
    mses, eval_s = [], 0.0
    t_begin = time.perf_counter()
    for lo in range(0, len(test) - chunk + 1, chunk):
        part = training.SplitWindows(test.x[lo:lo + chunk], test.y[lo:lo + chunk])
        t0 = time.perf_counter()
        report = training.evaluate(m, part)
        eval_s += time.perf_counter() - t0
        mses.append(report.mse)
        if finished(spec, len(mses), t_begin):
            break
    out["measured_s"] = time.perf_counter() - t_begin
    clock.stop()
    out.update(units=len(mses), test_mse=mses[0], test_mses=mses,
               windows=clock.forecast_windows, windows_s=eval_s)
    if spec.get("units") is not None:
        out["checks"]["enough_windows"] = len(mses) == spec["units"]

    probe = spec["probe"]
    with tensor.no_grad():
        alone = m.forward(test.x[probe]).data
        out["checks"]["probe_alone_matches_batch"] = bool(
            clock.probe_row is not None
            and np.max(np.abs(alone - clock.probe_row)) <= 1e-10)
        lo = probe - probe % EVAL_BATCH
        batch = test.x[lo:lo + EVAL_BATCH]
        m.save(spec["ckpt_out"])
        loaded = model.SeedModel.load(spec["ckpt_out"])
        out["checks"]["save_load_same_forecast"] = bool(
            np.array_equal(m.forward(batch).data, loaded.forward(batch).data))


def make_checkpoint(spec):
    model.SeedModel(model_config(spec, spec["n_vars"])).save(spec["ckpt_out"])


def main():
    spec = json.loads(sys.argv[1])
    if spec["kind"] == "make_checkpoint":
        make_checkpoint(spec)
        print(json.dumps({"ok": True}))
        return 0
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install(seedcast)
    clock = Clock(spec.get("setup_only", False), spec.get("probe"), tracer)
    clock.install()
    out = {"checks": {}}
    try:
        (run_train if spec["kind"] == "train" else run_forecast)(spec, clock, out)
    except SetupDone:
        print(json.dumps({"setup_s": clock.first_call - T_START}))
        return 0
    out["setup_s"] = clock.first_call - T_START
    out["steps_ms"] = [s * 1e3 for s in clock.steps_s]
    out["batches_ms"] = [s * 1e3 for s in clock.batches_s]
    out["forecast_windows"] = clock.forecast_windows
    out["nonfinite"] = clock.nonfinite
    out["forecast_digest"] = clock.digest.hexdigest()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["trace"] = tracer.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
