"""The benchmark's tracer still finds, and sees run, every function it times.

``perfbench/tracer.py`` wraps seedcast's functions by name at every place
they are bound and raises ``CoverageError`` when one is gone or still
reachable unwrapped. Installing it here makes a rename or an inlined traced
function fail the test suite, not only the benchmark's own checks. A micro
run of what the benchmark's workloads call then shows that every span fires,
so a fused path that stops calling a traced function fails here too.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INSTALL = """
import importlib, pkgutil, sys
sys.path[:0] = [{src!r}, {bench!r}]
import seedcast
for info in pkgutil.iter_modules(seedcast.__path__):
    importlib.import_module("seedcast." + info.name)
from tracer import Tracer
tracer = Tracer()
tracer.install(seedcast)
print("installed")
"""


def test_tracer_covers_every_seedcast_module():
    code = INSTALL.format(src=os.path.join(ROOT, "src"), bench=os.path.join(ROOT, "perfbench"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "installed"


# Every call the benchmark's workloads make, at a micro scale: CSV in, train
# with validation, save, load, evaluate.
RUN = """
import json, os
from seedcast import data, model, training
ds = data.synthetic_mixture(n_sine=2, n_noise=2, length=200, periods=(8, 16), seed=3)
path = os.path.join({tmp!r}, "mix.csv")
data.write_csv(path, ds.values, ds.columns)
splits = data.make_splits(data.load_csv(path), 16, 4, ratio=(6, 2, 2))
cfg = model.ModelConfig(lookback=16, horizon=4, patch_len=4, d_model=8, heads=2,
                        n_layers=1, n_vars=4, seed=1)
m, _ = training.train(model.SeedModel(cfg), splits,
                      training.TrainConfig(epochs=1, batch_size=16, seed=1))
m.save(os.path.join({tmp!r}, "m.ckpt"))
training.evaluate(model.SeedModel.load(os.path.join({tmp!r}, "m.ckpt")), splits.test)
from tracer import SPANS
print(json.dumps({{s: tracer.stats[s][0] for s in SPANS}}))
"""


def test_every_traced_span_fires(tmp_path):
    code = INSTALL.format(src=os.path.join(ROOT, "src"), bench=os.path.join(ROOT, "perfbench"))
    code += RUN.format(tmp=str(tmp_path))
    env = {**os.environ, "SEED_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.strip().splitlines()[-1])
    assert calls and not [span for span, n in calls.items() if n == 0], calls
