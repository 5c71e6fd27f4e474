"""In-process A/B: this tree's seedcast against a git revision's, in one process.

Both packages run the same seeded work, round after round, so a step-time
ratio is not at the mercy of what the host does between two processes:

- ``train C=8 B=64`` and ``train C=21 B=32``: 4 Adam steps (forward, loss,
  backward, step) of the default ``full`` model;
- ``forecast C=8 B=256`` and ``forecast C=21 B=256``: one no-tape forward.

Each round runs every workload on both sides, the workloads and the sides in
an order drawn from ``--seed``, and asserts that both sides gave the same
losses and forecasts, bit for bit. It prints, per workload, each side's
median ms and the change/parent time ratio per round: its median, its
quartiles and the rounds the change won. Before the rounds it measures each
side's tape and peak above the tape for one default step, as
``tests/test_fused.py`` does. Last it prints a JSON fragment for a
``BENCH_<n>.json``, which names the machine, numpy, the BLAS and the thread
count. Run from the repository root:

    python studies/ab.py HEAD~1              # 20 rounds
    python studies/ab.py HEAD~1 --rounds 30

REV's ``src/`` is exported with ``git archive`` (``digest.export``) and
imported under another package name; ``src/`` uses relative imports only.
The BLAS runs ``SEED_NUM_THREADS`` threads, 1 when unset; the cap is set
before numpy loads.
"""

from __future__ import annotations

import os

os.environ.setdefault("SEED_NUM_THREADS", "1")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = os.environ["SEED_NUM_THREADS"]

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

from digest import ROOT, export  # noqa: E402

TRAIN = {"train C=8 B=64": (8, 64), "train C=21 B=32": (21, 32)}
FORECAST = {"forecast C=8 B=256": (8, 256), "forecast C=21 B=256": (21, 256)}
STEPS = 4  # Adam steps per train round
MIB = 2**20


def load(src: str, name: str):
    """The ``seedcast`` package under ``src`` as package ``name``, with the modules used here."""
    if name not in sys.modules:
        pkg = os.path.join(src, "seedcast")
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    for sub in ("model", "tensor", "training"):
        importlib.import_module(f"{name}.{sub}")
    return sys.modules[name]


def tape_bytes(out, T) -> int:
    """Bytes of the distinct arrays the tape behind ``out`` keeps: ``tests_helpers.tape_bytes``
    for package tensor module ``T``."""
    bases, seen, stack = {}, {}, [out._node]
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if isinstance(obj, T._Node):
            stack += [obj.backward, *obj.parents]
        elif isinstance(obj, T.Tensor):
            stack += [obj.data, obj._node]
        elif isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            bases[id(obj)] = obj
        elif isinstance(obj, (tuple, list)):
            stack += obj
        elif callable(obj):
            for cell in getattr(obj, "__closure__", None) or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:
                    pass
    return sum(a.nbytes for a in bases.values())


def memory(pkg, n_vars: int, batch: int) -> tuple[float, float]:
    """(tape MiB, MiB of peak above the tape) of one default step, as test_fused measures them.

    """
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(batch, n_vars, 96)), rng.normal(size=(batch, n_vars, 96))
    model = pkg.model.SeedModel(pkg.model.ModelConfig(n_vars=n_vars))
    tracemalloc.start()
    try:
        loss = pkg.training.total_loss(y, model.forward(x), 0.1)
        tape = tape_bytes(loss, pkg.tensor)
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return round(tape / MIB, 2), round((peak - tape) / MIB, 2)


# Measured in one fresh interpreter per side, in the order test_fused's tests run:
# a process's first step allocates about 0.13 MiB of caches that later steps reuse.
MEMORY_SHAPES = ((21, 32), (8, 64))
FRESH = """import sys
sys.path[:0] = [{src!r}, {here!r}]
import seedcast.model, seedcast.tensor, seedcast.training
from ab import MEMORY_SHAPES, memory
for n_vars, batch in MEMORY_SHAPES:
    print(*memory(seedcast, n_vars, batch))
"""


def fresh_memory(src: str) -> dict[str, list[float]]:
    """``memory`` of the seedcast under ``src`` at each of ``MEMORY_SHAPES``."""
    code = FRESH.format(src=src, here=os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"memory of {src} failed:\n{proc.stderr}")
    return {f"C={c} B={b}": [float(v) for v in line.split()]
            for (c, b), line in zip(MEMORY_SHAPES, proc.stdout.splitlines())}


class Side:
    """One package's models, optimizers and seeded data for every workload."""

    def __init__(self, pkg):
        self.pkg, self.models, self.adams = pkg, {}, {}
        for name, (n_vars, _) in {**TRAIN, **FORECAST}.items():
            model = pkg.model.SeedModel(pkg.model.ModelConfig(n_vars=n_vars, seed=7))
            self.models[name] = model
            if name in TRAIN:
                self.adams[name] = pkg.training.Adam(model.params(), 1e-3)

    def run(self, name: str, data) -> tuple[float, list[bytes]]:
        """(ms per step or forward, the bits it produced) of one round of workload ``name``."""
        pkg, model = self.pkg, self.models[name]
        gc.collect()
        out = []
        start = time.perf_counter()
        if name in TRAIN:
            adam = self.adams[name]
            for x, y in data:
                adam.zero_grad()
                loss = pkg.training.total_loss(y, model.forward(x), model.config.lam)
                loss.backward()
                adam.step()
                out.append(loss.data.tobytes())
            steps = len(data)
        else:
            with pkg.tensor.no_grad():
                out.append(model.forward(data).data.tobytes())
            steps = 1
        return (time.perf_counter() - start) * 1e3 / steps, out


def draw(rng, name: str):
    """The seeded inputs of one round of workload ``name``."""
    n_vars, batch = {**TRAIN, **FORECAST}[name]
    if name in FORECAST:
        return rng.normal(size=(batch, n_vars, 96))
    return [(rng.normal(size=(batch, n_vars, 96)), rng.normal(size=(batch, n_vars, 96)))
            for _ in range(STEPS)]


def summary(parent_ms: list[float], change_ms: list[float]) -> dict:
    ratio = np.asarray(change_ms) / np.asarray(parent_ms)
    q1, med, q3 = np.percentile(ratio, [25, 50, 75])
    return {"parent_ms": round(float(np.median(parent_ms)), 1),
            "change_ms": round(float(np.median(change_ms)), 1),
            "ratio_median": round(float(med), 3),
            "ratio_iqr": [round(float(q1), 3), round(float(q3), 3)],
            "change_faster": f"{int((ratio < 1).sum())}/{len(ratio)}"}


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": f"{cpu} ({os.cpu_count()} vCPUs)", "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["SEED_NUM_THREADS"])}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="In-process A/B against a git revision.")
    parser.add_argument("rev", help="the parent: a git revision of this repository")
    parser.add_argument("--rounds", type=int, default=20, help="timed rounds (default 20)")
    parser.add_argument("--seed", type=int, default=0, help="seeds the order and the data")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        export(args.rev, tmp, ("src",))
        srcs = {"parent": os.path.join(tmp, "src"), "change": os.path.join(ROOT, "src")}
        mem = {"tape_mib": {}, "peak_above_tape_mib": {}}
        for side, src in srcs.items():
            for shape, (tape, peak) in fresh_memory(src).items():
                mem["tape_mib"].setdefault(shape, {})[side] = tape
                mem["peak_above_tape_mib"].setdefault(shape, {})[side] = peak
        print(json.dumps(mem))
        # digest imported this tree's package as seedcast already
        pkgs = {"parent": load(srcs["parent"], "seedcast_parent"),
                "change": load(srcs["change"], "seedcast")}

    sides = {side: Side(pkg) for side, pkg in pkgs.items()}
    rng = np.random.default_rng(args.seed)
    times = {name: {"parent": [], "change": []} for name in {**TRAIN, **FORECAST}}
    for rnd in range(args.rounds + 1):  # round 0 warms up, untimed
        for name in rng.permutation(list(times)):
            data = draw(rng, name)
            bits = {}
            for side in rng.permutation(list(sides)):
                ms, bits[side] = sides[side].run(name, data)
                if rnd:
                    times[name][side].append(ms)
            if bits["parent"] != bits["change"]:
                raise SystemExit(f"round {rnd}: {name} gave different bits on the two sides")
        if rnd:
            print(f"round {rnd}: " + ", ".join(
                f"{name} {t['change'][-1] / t['parent'][-1]:.3f}" for name, t in times.items()),
                flush=True)

    ab = {name: summary(t["parent"], t["change"]) for name, t in times.items()}
    for name, row in ab.items():
        print(f"{name:<20} parent {row['parent_ms']:7.1f} ms  change {row['change_ms']:7.1f} ms"
              f"  ratio {row['ratio_median']:.3f} {row['ratio_iqr']}"
              f"  faster {row['change_faster']}")
    print(json.dumps({
        "parent_commit": args.rev,
        "machine": machine(),
        "in_process_ab": {
            "method": f"studies/ab.py {args.rev} --rounds {args.rounds} --seed {args.seed}: one "
                      f"process loads both packages and runs, per round, every workload on both "
                      f"sides in a drawn order, after one warm-up round; losses and forecasts "
                      f"are asserted equal every round; ratio is change/parent per round; ms "
                      f"is per Adam step ({STEPS} per round) or per no-tape forward",
            **ab},
        **mem,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
