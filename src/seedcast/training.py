"""Loss functions, Adam training loop with early stopping, and metrics."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError, DivergenceError, ShapeError
from .model import SeedModel, check_integer, config_dict, finite_real
from .rng import RngState
from .spectral import entropy_tensor


# -- losses -------------------------------------------------------------------


def loss_pred(y, yhat: T.Tensor) -> T.Tensor:
    """Mean squared error over every forecast entry."""
    y = np.ascontiguousarray(y, dtype=np.float64)
    if y.shape != yhat.shape:
        raise ShapeError(f"target shape {y.shape} != forecast shape {yhat.shape}")
    diff = yhat - T.Tensor(y)
    return (diff * diff).mean()


def target_entropy(y: np.ndarray) -> np.ndarray:
    """Spectral entropy of fixed targets (..., T) -> (...), without a gradient.

    ``y`` is copied C-contiguous first, so a strided view scores like its
    copy: numpy sums a strided axis in another order.
    """
    return entropy_tensor(T.Tensor(np.ascontiguousarray(y, dtype=np.float64)),
                          degenerate="zero").data


def loss_spen(y, yhat: T.Tensor) -> T.Tensor:
    """Mean squared per-variable gap between target and forecast spectral entropy.

    Entropies are computed on the raw horizon-length series (no shaping
    filter); constant series map to entropy 0.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    if y.shape != yhat.shape:
        raise ShapeError(f"target shape {y.shape} != forecast shape {yhat.shape}")
    diff = entropy_tensor(yhat, degenerate="zero") - T.Tensor(target_entropy(y))
    return (diff * diff).mean()


def total_loss(y, yhat: T.Tensor, lam: float) -> T.Tensor:
    """Prediction MSE plus lam times the entropy-matching term."""
    if lam < 0:
        raise ConfigError(f"lambda must be >= 0, got {lam}")
    lp = loss_pred(y, yhat)
    if lam == 0.0:
        return lp
    return lp + lam * loss_spen(y, yhat)


# -- optimizer -----------------------------------------------------------------


class Adam:
    """Adaptive moments with bias correction; nothing exotic."""

    def __init__(self, params: list[T.Tensor], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.t += 1
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            self.m[i] = self.b1 * self.m[i] + (1 - self.b1) * g
            self.v[i] = self.b2 * self.v[i] + (1 - self.b2) * g * g
            m_hat = self.m[i] / (1 - self.b1**self.t)
            v_hat = self.v[i] / (1 - self.b2**self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# -- configs and reports ---------------------------------------------------------


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 1e-3
    patience: int = 3
    seed: int = 0

    def __post_init__(self):
        for name, least in (("epochs", 0), ("batch_size", 1), ("patience", 1), ("seed", 0)):
            setattr(self, name, check_integer(name, getattr(self, name), least))
        if not finite_real(self.learning_rate) or self.learning_rate <= 0:
            raise ConfigError(
                f"learning_rate must be finite and > 0, got {self.learning_rate!r}")

    def to_dict(self) -> dict:
        return config_dict(self)


@dataclass
class MetricsReport:
    mse: float
    mae: float
    horizon_mse: list[float]
    horizon_mae: list[float]
    epochs: int = 0
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "mse": self.mse,
            "mae": self.mae,
            "horizon": {"mse": self.horizon_mse, "mae": self.horizon_mae},
            "epochs": self.epochs,
            "seconds": self.seconds,
        }


@dataclass
class SplitWindows:
    """Sliding windows for one split: x (M,C,L), y (M,C,T), often read-only views."""

    x: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass
class DatasetSplits:
    train: SplitWindows
    val: SplitWindows
    test: SplitWindows


# -- evaluation -------------------------------------------------------------------

# Windows per no-tape forward in evaluation. ``forward`` already cuts its batch
# into cache-sized blocks; this batch stays because perfbench/child.py times each
# no-tape forward as one forecast batch (its own EVAL_BATCH holds this value).
EVAL_BATCH = 256


def _forecast_batched(model: SeedModel, split: SplitWindows) -> np.ndarray:
    """Forecasts for ``split.x``, one ``forward`` per ``EVAL_BATCH`` windows."""
    out = np.empty(split.y.shape)
    with T.no_grad():
        for i in range(0, len(split), EVAL_BATCH):
            out[i : i + EVAL_BATCH] = model.forward(split.x[i : i + EVAL_BATCH]).data
    return out


def _report(err: np.ndarray) -> MetricsReport:
    """MSE/MAE of (B, C, T) forecast errors, overall and per horizon step."""
    sq, ab = err**2, np.abs(err)
    return MetricsReport(
        mse=float(sq.mean()),
        mae=float(ab.mean()),
        horizon_mse=[float(v) for v in sq.mean(axis=(0, 1))],
        horizon_mae=[float(v) for v in ab.mean(axis=(0, 1))],
    )


def evaluate(model: SeedModel, split: SplitWindows) -> MetricsReport:
    """MSE/MAE over all windows of the split, on de-normalized values."""
    t0 = time.perf_counter()
    report = _report(_forecast_batched(model, split) - split.y)
    report.seconds = time.perf_counter() - t0
    return report


def validation_mse(model: SeedModel, split: SplitWindows) -> float:
    yhat = _forecast_batched(model, split)
    return float(((yhat - split.y) ** 2).mean())


# -- training loop ------------------------------------------------------------------


def train(model: SeedModel, splits: DatasetSplits, cfg: TrainConfig,
          on_epoch=None) -> tuple[SeedModel, MetricsReport]:
    """Adam with early stopping on validation MSE; restores the best checkpoint.

    The loss weights its entropy-matching term by ``model.config.lam``.
    Deterministic given the seed: batch order comes from the config's RNG and
    every update is sequential. ``on_epoch(epoch, val_mse)``, when given, is
    called after each epoch's validation pass.
    """
    for name, part in (("train", splits.train), ("val", splits.val), ("test", splits.test)):
        if len(part) == 0:
            raise DataError(f"{name} split has no windows")
    rng = RngState(cfg.seed)
    opt = Adam(model.params(), cfg.learning_rate)
    t0 = time.perf_counter()
    best_val = np.inf
    best_state = model.state_arrays()
    bad_epochs = 0
    epochs_run = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(splits.train))
        for step, lo in enumerate(range(0, len(order), cfg.batch_size)):
            idx = order[lo : lo + cfg.batch_size]
            loss = total_loss(splits.train.y[idx], model.forward(splits.train.x[idx]),
                              model.config.lam)
            if not np.isfinite(loss.data):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, step {step}"
                )
            opt.zero_grad()
            loss.backward()
            opt.step()
        epochs_run = epoch + 1
        val = validation_mse(model, splits.val)
        if on_epoch is not None:
            on_epoch(epoch, val)
        if val < best_val:
            best_val = val
            best_state = model.state_arrays()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    model.load_state_arrays(best_state)
    report = evaluate(model, splits.test)
    report.epochs = epochs_run
    report.seconds = time.perf_counter() - t0
    return model, report
