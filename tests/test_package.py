"""The package's public names, and that it runs on numpy alone, without tests/."""

import importlib
import os
import subprocess
import sys

import pytest

import seedcast

PUBLIC = [
    "Adam", "ConfigError", "DataError", "Dataset", "DegenerateInputError", "DivergenceError",
    "InputError", "MetricsReport", "ModelConfig", "NumericError", "SeedModel",
    "SeedcastError", "ShapeError", "SyntheticSpec", "Tensor", "TrainConfig", "acf_entropy_study",
    "apply_variant", "autocorrelation", "evaluate", "generate_synthetic", "load_csv",
    "loss_pred", "loss_spen", "make_splits", "no_grad", "spectral_entropy", "split",
    "total_loss", "train",
]


def test_every_error_is_a_seedcast_error_and_keeps_its_builtin():
    bases = {"ShapeError": ValueError, "ConfigError": ValueError, "DataError": ValueError,
             "InputError": ValueError, "DegenerateInputError": ValueError,
             "NumericError": ArithmeticError, "DivergenceError": RuntimeError}
    for name, builtin in bases.items():
        cls = getattr(seedcast, name)
        assert issubclass(cls, seedcast.SeedcastError) and issubclass(cls, builtin), name


def test_public_names_and_no_test_tools():
    assert sorted(seedcast.__all__) == PUBLIC
    for name in seedcast.__all__:
        assert getattr(seedcast, name, None) is not None, name
    for name in ("exp", "log", "power", "tanh", "softmax", "stack", "maximum", "matmul",
                 "grad_check", "grad_check_many"):
        assert not hasattr(seedcast.tensor, name), name
    for name in ("__pow__", "__matmul__"):
        assert not hasattr(seedcast.Tensor, name), name
    for name in ("ShapingFilter", "wiener_khinchin_pair"):
        assert not hasattr(seedcast.spectral, name), name
    with pytest.raises(ImportError):
        importlib.import_module("seedcast.rng")
    assert not hasattr(seedcast.SeedModel, "count_params")


# A fresh interpreter, outside tests/, that finds seedcast in src/ and cannot
# import a test module or a test-only dependency.
NUMPY_ONLY = """
import importlib, pkgutil, sys
BLOCKED = {"scipy", "hypothesis", "pytest", "_pytest", "tests", "oracles", "tests_helpers"}

class Block:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in BLOCKED:
            raise ModuleNotFoundError(f"{name} is blocked", name=name)

sys.meta_path.insert(0, Block())

import numpy as np
import seedcast
from seedcast import cli, tensor, training
from seedcast.model import ModelConfig, SeedModel

for info in pkgutil.iter_modules(seedcast.__path__):
    importlib.import_module("seedcast." + info.name)
try:
    cli.main(["--help"])
except SystemExit as exc:
    assert exc.code == 0, exc.code
model = SeedModel(ModelConfig(lookback=8, horizon=4, patch_len=4, d_model=8, heads=2,
                              n_layers=1, n_vars=2, detach_entropy=False))
rng = np.random.default_rng(0)
x, y = rng.normal(size=(3, 2, 8)), rng.normal(size=(3, 2, 4))
with tensor.no_grad():
    assert np.isfinite(model.forward(x).data).all()
training.total_loss(y, model.forward(x), 0.1).backward()
training.Adam(model.params(), 1e-3).step()
assert model.named_params()["filter.gain"].grad is not None
assert not [m for m in sys.modules if m.partition(".")[0] in BLOCKED]
"""


def test_package_runs_without_test_dependencies(tmp_path):
    src = os.path.dirname(os.path.dirname(seedcast.__file__))
    env = {**os.environ, "PYTHONPATH": src, "SEED_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
