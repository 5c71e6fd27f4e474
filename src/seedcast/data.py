"""CSV ingestion, dataset registry with split rules, and sliding windows."""

from __future__ import annotations

import csv
import io
import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, InputError
from .model import finite_real
from .rng import RngState
from .training import DatasetSplits, SplitWindows

# Benchmark split conventions: ETT family 6:2:2, the larger long-horizon
# sets 7:1:2, the traffic-sensor sets 3:1:1. All carry a leading date column.
REGISTRY: dict[str, dict] = {
    "ETTh1": {"split": (6, 2, 2), "dim": 7, "date_col": True},
    "ETTh2": {"split": (6, 2, 2), "dim": 7, "date_col": True},
    "ETTm1": {"split": (6, 2, 2), "dim": 7, "date_col": True},
    "ETTm2": {"split": (6, 2, 2), "dim": 7, "date_col": True},
    "Weather": {"split": (7, 1, 2), "dim": 21, "date_col": True},
    "ECL": {"split": (7, 1, 2), "dim": 321, "date_col": True},
    "Traffic": {"split": (7, 1, 2), "dim": 862, "date_col": True},
    "Solar": {"split": (7, 1, 2), "dim": 137, "date_col": True},
    "PEMS03": {"split": (3, 1, 1), "dim": 358, "date_col": True},
    "PEMS04": {"split": (3, 1, 1), "dim": 307, "date_col": True},
    "PEMS07": {"split": (3, 1, 1), "dim": 883, "date_col": True},
    "PEMS08": {"split": (3, 1, 1), "dim": 170, "date_col": True},
}


def _check_ratio(ratio) -> tuple:
    """``ratio`` as a tuple; InputError unless it is three finite reals >= 0 with a sum > 0."""
    ratio = tuple(ratio)
    if len(ratio) != 3 or not all(finite_real(r) for r in ratio):
        raise InputError(f"split ratio must be three finite numbers, got {ratio!r}")
    if any(r < 0 for r in ratio) or sum(ratio) <= 0:
        raise InputError(f"split ratio must be nonnegative and nonzero, got {ratio!r}")
    return ratio


def parse_ratio(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"split ratio must look like 6:2:2, got {text!r}")
    try:
        ratio = [float(p) for p in parts]
    except ValueError:
        raise InputError(f"split ratio must be numeric, got {text!r}") from None
    return _check_ratio(ratio)


def load_registry_file(path: str) -> dict[str, dict]:
    """Extra dataset entries from a JSON (or TOML, on 3.11+) config file."""
    toml = path.endswith(".toml")
    if toml:
        try:
            import tomllib
        except ImportError:
            raise DataError("TOML registry files need Python 3.11+; use JSON") from None
    try:
        with open(path, "rb") as fh:
            raw = tomllib.load(fh) if toml else json.load(fh)
    # ValueError: JSON or TOML syntax, or bytes that are not UTF-8.
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: unreadable registry file ({exc})") from exc
    if not isinstance(raw, dict):
        raise DataError(f"{path}: a registry maps dataset names to tables")
    out = {}
    for name, entry in raw.items():
        split = entry.get("split") if isinstance(entry, dict) else None
        if not isinstance(split, (str, list)):
            raise DataError(f'{path}: dataset {name!r} needs a table with split "a:b:c" '
                            "or [a, b, c]")
        try:
            split = parse_ratio(split) if isinstance(split, str) else _check_ratio(split)
        except InputError as exc:
            raise DataError(f"{path}: dataset {name!r}: {exc}") from None
        date_col = entry.get("date_col", False)
        if not isinstance(date_col, bool):
            raise DataError(f"{path}: dataset {name!r}: date_col must be true or false, "
                            f"got {date_col!r}")
        dim = entry.get("dim")
        if dim is not None and (not isinstance(dim, int) or isinstance(dim, bool) or dim < 1):
            raise DataError(f"{path}: dataset {name!r}: dim must be an integer >= 1, "
                            f"got {dim!r}")
        out[name] = {"split": split, "date_col": date_col, "dim": dim}
    return out


@dataclass
class Dataset:
    name: str
    values: np.ndarray  # (time, C)
    split_ratio: tuple[float, float, float] | None = None
    columns: list[str] = field(default_factory=list)
    rejected_rows: int = 0

    @property
    def n_vars(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return self.values.shape[0]


def load_csv(path: str, date_col: bool = False, name: str | None = None) -> Dataset:
    """Parse a headered CSV into a time x C float matrix.

    numpy's C reader parses the body. A file it rejects is scanned row by
    row, which reports the first bad cell's row/column, or loads the forms
    Python's ``float`` takes and numpy does not (``1_0``, quoted cells).
    Rows containing any non-finite value are dropped and counted.
    """
    if not os.path.exists(path):
        raise DataError(f"no such file: {path}")
    start_col = 1 if date_col else 0
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise DataError(f"{path}: empty file")
            body = fh.read()
        columns = header[start_col:]
        values = _parse_body(body, date_col)
        if values.shape[0] == 0 or values.shape[1] != len(columns):
            values = _scan_rows(path, len(columns), start_col)
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not {exc.encoding} text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from None
    finite = np.isfinite(values).all(axis=1)
    rejected = len(values) - int(finite.sum())
    if rejected == len(values):
        raise DataError(f"{path}: no data rows")
    if rejected:
        values = values[finite]
    if name is None:
        name = os.path.splitext(os.path.basename(path))[0]
    entry = REGISTRY.get(name, {})
    return Dataset(
        name=name,
        values=np.ascontiguousarray(values),
        split_ratio=entry.get("split"),
        columns=columns,
        rejected_rows=rejected,
    )


def _skip_date(cell: str) -> float:
    # A quote may open a cell that spans lines or holds a comma; only the row
    # scan splits those the way the csv module does.
    if '"' in cell:
        raise ValueError("quoted date cell")
    return 0.0


# numpy strips these around a number and Python's float does not.
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _parse_body(body: str, date_col: bool) -> np.ndarray:
    """The value columns of the rows after the header; (0, 0) if numpy rejects them."""
    if any(c in body for c in _NUMPY_ONLY_SPACE):
        return np.empty((0, 0))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            values = np.loadtxt(io.StringIO(body, newline=""), dtype=np.float64,
                                delimiter=",", comments=None, ndmin=2,
                                converters={0: _skip_date} if date_col else None)
    except ValueError:
        return np.empty((0, 0))
    return values[:, 1:] if date_col else values


def _scan_rows(path: str, n_values: int, start_col: int) -> np.ndarray:
    """Row-by-row parse after the header; raises DataError at the first bad cell or row."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for i, row in enumerate(reader, start=2):  # header is line 1
            if not row:
                continue
            vals = []
            for j, cell in enumerate(row[start_col:], start=start_col + 1):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}: row {i}, column {j}: cannot parse {cell!r}"
                    ) from None
            if len(vals) != n_values:
                raise DataError(
                    f"{path}: row {i} has {len(vals)} values, header has {n_values}"
                )
            rows.append(vals)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def write_csv(path: str, values: np.ndarray, columns: list[str] | None = None):
    values = np.asarray(values)
    if columns is None:
        columns = [f"var{i}" for i in range(values.shape[1])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in values:
            writer.writerow([repr(float(v)) for v in row])  # shortest exact round-trip


def split_bounds(dataset: Dataset, ratio=None) -> tuple[int, int]:
    """(train_end, val_end) by ``ratio`` or else the dataset's own; rounding favors train."""
    ratio = ratio if ratio is not None else dataset.split_ratio
    if ratio is None:
        raise DataError(
            f"dataset {dataset.name!r} is not in the registry; pass a split ratio "
            "(e.g. --split 7:1:2)"
        )
    a, b, c = _check_ratio(ratio)
    n, total = len(dataset), a + b + c
    n_val = int(n * b / total)
    n_test = int(n * c / total)
    return n - n_val - n_test, n - n_test


def split(dataset: Dataset, ratio=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chronological, non-overlapping train/val/test segments."""
    a, b = split_bounds(dataset, ratio)
    v = dataset.values
    return v[:a], v[a:b], v[b:]


def window_arrays(segment: np.ndarray, lookback: int, horizon: int) -> SplitWindows:
    """Every window of a segment, one per start step, oldest first: x (M,C,L) and y (M,C,T).

    Both are read-only strided views of ``segment``, so they cost no memory
    beyond it. Code that reduces over a window copies its batch first (see
    ``SeedModel.forward``), since numpy sums a strided axis in another order.
    """
    segment = np.asarray(segment, dtype=np.float64)
    n = segment.shape[0]
    if n < lookback + horizon:
        raise DataError(
            f"segment length {n} < lookback + horizon ({lookback + horizon})"
        )
    view = np.lib.stride_tricks.sliding_window_view(segment, lookback + horizon, axis=0)
    return SplitWindows(x=view[..., :lookback], y=view[..., lookback:])  # (M, C, L|T)


def standardize_by_train(values: np.ndarray, train_end: int
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Global z-score using train-segment statistics only (no leakage)."""
    mean = values[:train_end].mean(axis=0)
    std = values[:train_end].std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return (values - mean) / std, mean, std


def make_splits(dataset: Dataset, lookback: int, horizon: int, ratio=None,
                standardize: bool = True) -> DatasetSplits:
    """Windowed train/val/test splits ready for the training loop.

    Val/test lookbacks reach back into the preceding segment by exactly L
    steps (the usual protocol), so target timesteps stay disjoint across
    splits.
    """
    values = dataset.values
    a, b = split_bounds(dataset, ratio)
    if a < lookback + horizon:
        raise DataError(f"train segment ({a} steps) shorter than lookback + horizon")
    if standardize:
        values = standardize_by_train(values, a)[0]
    return DatasetSplits(
        train=window_arrays(values[:a], lookback, horizon),
        val=window_arrays(values[max(0, a - lookback):b], lookback, horizon),
        test=window_arrays(values[max(0, b - lookback):], lookback, horizon),
    )


def synthetic_mixture(n_sine: int = 4, n_noise: int = 4, length: int = 4000,
                      periods=(24, 36, 48, 96), seed: int = 0) -> Dataset:
    """Half clean sinusoids at distinct periods, half standard normal noise."""
    if n_sine < 0 or n_noise < 0:
        raise InputError(f"sine and noise counts must be >= 0, got {n_sine} and {n_noise}")
    if n_sine + n_noise == 0:
        raise InputError("a mixture needs at least one sine or noise column")
    if length < 1:
        raise InputError(f"length must be >= 1, got {length}")
    if len(periods) < n_sine:
        raise InputError(f"need {n_sine} periods, got {len(periods)}")
    if any(p <= 0 for p in periods[:n_sine]):
        raise InputError(f"sine periods must be > 0, got {tuple(periods[:n_sine])}")
    rng = RngState(seed)
    t = np.arange(length)
    cols = [np.sin(2 * np.pi * t / periods[i]) for i in range(n_sine)]
    cols += [rng.normal(length) for _ in range(n_noise)]
    names = [f"sine_p{periods[i]}" for i in range(n_sine)]
    names += [f"noise{i}" for i in range(n_noise)]
    return Dataset(
        name="synthetic_mixture",
        values=np.stack(cols, axis=1),
        split_ratio=(7, 1, 2),
        columns=names,
    )
