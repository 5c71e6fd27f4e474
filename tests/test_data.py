import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from seedcast import data as D
from seedcast.errors import DataError, InputError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@dataclass
class WindowSample:
    lookback: np.ndarray  # (C, L)
    target: np.ndarray    # (C, T)
    start: int


def windows(segment: np.ndarray, lookback: int, horizon: int) -> list[WindowSample]:
    """Oracle for ``D.window_arrays``: every sample as its own copy, chronological."""
    segment = np.asarray(segment, dtype=np.float64)
    n = segment.shape[0]
    if n < lookback + horizon:
        raise DataError(
            f"segment length {n} < lookback + horizon ({lookback + horizon})"
        )
    out = []
    for s in range(n - lookback - horizon + 1):
        out.append(WindowSample(
            lookback=segment[s : s + lookback].T.copy(),
            target=segment[s + lookback : s + lookback + horizon].T.copy(),
            start=s,
        ))
    return out


class TestLoadCsv:
    def test_toy_file(self, tmp_path):
        path = write_lines(tmp_path / "toy.csv",
                           ["a,b", "1,2", "3,4", "5,6"])
        ds = D.load_csv(path)
        assert ds.values.shape == (3, 2)
        assert np.array_equal(ds.values, [[1, 2], [3, 4], [5, 6]])
        assert ds.columns == ["a", "b"]

    def test_header_only_is_error(self, tmp_path):
        path = write_lines(tmp_path / "empty.csv", ["a,b"])
        with pytest.raises(DataError):
            D.load_csv(path)

    def test_ett_style_date_column(self, tmp_path):
        header = "date," + ",".join(f"v{i}" for i in range(7))
        rows = [f"2016-07-01 0{i}:00:00," + ",".join(str(i + j) for j in range(7))
                for i in range(5)]
        path = write_lines(tmp_path / "ETTh1.csv", [header] + rows)
        ds = D.load_csv(path, date_col=True)
        assert ds.n_vars == 7
        assert ds.split_ratio == (6, 2, 2)  # registry hit by name

    def test_parse_error_reports_coordinates(self, tmp_path):
        path = write_lines(tmp_path / "bad.csv", ["a,b", "1,2", "3,oops"])
        with pytest.raises(DataError, match="row 3, column 2"):
            D.load_csv(path)

    def test_nonfinite_rows_rejected_and_counted(self, tmp_path):
        path = write_lines(tmp_path / "gaps.csv",
                           ["a,b", "1,2", "nan,4", "5,inf", "7,8"])
        ds = D.load_csv(path)
        assert ds.values.shape == (2, 2)
        assert ds.rejected_rows == 2

    def test_missing_file(self):
        with pytest.raises(DataError):
            D.load_csv("/nonexistent/nowhere.csv")

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(20, 3))
        path = str(tmp_path / "rt.csv")
        D.write_csv(path, values, ["x", "y", "z"])
        again = D.load_csv(path)
        assert np.array_equal(again.values, values)
        assert again.columns == ["x", "y", "z"]

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(1000, 5)) * 10.0 ** rng.integers(-300, 300, size=(1000, 5))
        values[0] = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, -1 / 3]
        path = str(tmp_path / "exact.csv")
        D.write_csv(path, values)
        again = D.load_csv(path)
        assert again.values.flags.c_contiguous
        assert again.values.tobytes() == values.tobytes()

    def test_crlf_blank_lines_and_spaces(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"a,b\r\n 1 , 2\t\r\n\r\n\n3,-4e0 \r\n\r\n")
        ds = D.load_csv(str(path))
        assert np.array_equal(ds.values, [[1, 2], [3, -4]])

    def test_python_float_forms_numpy_rejects(self, tmp_path):
        path = write_lines(tmp_path / "forms.csv",
                           ["a,b", '"1.5",2', "1_0,3", '4,"5"'])
        ds = D.load_csv(path)
        assert np.array_equal(ds.values, [[1.5, 2], [10, 3], [4, 5]])

    def test_nonfinite_spellings_dropped_and_counted(self, tmp_path):
        path = write_lines(tmp_path / "spell.csv",
                           ["a,b", "1,2", "NaN,4", "5,-Infinity", "+inf,1e999", "7,8"])
        ds = D.load_csv(path)
        assert np.array_equal(ds.values, [[1, 2], [7, 8]])
        assert ds.rejected_rows == 3

    def test_only_nonfinite_rows_is_error(self, tmp_path):
        path = write_lines(tmp_path / "allnan.csv", ["a,b", "nan,1", "2,inf"])
        with pytest.raises(DataError, match="no data rows"):
            D.load_csv(path)

    def test_header_only_warns_nothing(self, tmp_path):
        path = write_lines(tmp_path / "empty.csv", ["a,b", ""])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="no data rows"):
                D.load_csv(path)

    def test_bad_cell_after_many_rows_reports_coordinates(self, tmp_path):
        rows = [f"{i},{i + 1},{i + 2}" for i in range(50)]
        rows[40] = "40,41,4x2"
        path = write_lines(tmp_path / "late.csv", ["a,b,c"] + rows)
        with pytest.raises(DataError, match="row 42, column 3: cannot parse '4x2'"):
            D.load_csv(path)

    def test_space_only_python_rejects_reports_coordinates(self, tmp_path):
        # numpy strips \x1c around a number; Python's float does not
        path = write_lines(tmp_path / "sep.csv", ["a,b", "1,2", "3\x1c,4"])
        with pytest.raises(DataError, match="row 3, column 1"):
            D.load_csv(path)

    def test_short_row_reports_row(self, tmp_path):
        path = write_lines(tmp_path / "short.csv", ["a,b", "1,2", "3,4", "5"])
        with pytest.raises(DataError, match="row 4 has 1 values, header has 2"):
            D.load_csv(path)

    def test_date_col_extra_column_rejected(self, tmp_path):
        path = write_lines(tmp_path / "extra.csv",
                           ["date,a,b", "2016-07-01,1,2", "2016-07-02,3,4,5"])
        with pytest.raises(DataError, match="row 3 has 3 values, header has 2"):
            D.load_csv(path, date_col=True)

    @pytest.mark.parametrize("date", ['"2016-07-01, 00:00"', '"2016-07-01,9\n01:00"'])
    def test_date_col_quoted_cells(self, tmp_path, date):
        path = write_lines(tmp_path / "quoted.csv", ["date,a", f"{date},1", "x,2"])
        ds = D.load_csv(path, date_col=True)
        assert np.array_equal(ds.values, [[1], [2]])
        assert ds.columns == ["a"]

    def test_directory_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            D.load_csv(str(tmp_path))

    def test_undecodable_bytes_are_data_error(self, tmp_path):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"a,b\n1,2\n3,\xff\n")
        with pytest.raises(DataError):
            D.load_csv(str(path))


class TestSplit:
    def test_exact_division(self):
        ds = D.Dataset("t", np.zeros((100, 2)), split_ratio=(6, 2, 2))
        a, b, c = D.split(ds)
        assert (len(a), len(b), len(c)) == (60, 20, 20)

    def test_rounding_toward_train(self):
        ds = D.Dataset("t", np.zeros((101, 2)), split_ratio=(6, 2, 2))
        a, b, c = D.split(ds)
        assert (len(a), len(b), len(c)) == (61, 20, 20)

    def test_pems_style_ratio(self):
        ds = D.Dataset("t", np.zeros((500, 2)), split_ratio=(3, 1, 1))
        a, b, c = D.split(ds)
        assert (len(a), len(b), len(c)) == (300, 100, 100)

    def test_chronological_and_disjoint(self):
        values = np.arange(50, dtype=float)[:, None]
        ds = D.Dataset("t", values, split_ratio=(6, 2, 2))
        a, b, c = D.split(ds)
        assert a[-1, 0] < b[0, 0] < c[0, 0]
        assert len(a) + len(b) + len(c) == 50

    def test_unregistered_needs_explicit_ratio(self):
        ds = D.Dataset("mystery", np.zeros((50, 1)))
        with pytest.raises(DataError):
            D.split(ds)
        D.split(ds, ratio=(8, 1, 1))  # explicit works


class TestRegistry:
    def test_table_entries(self):
        assert D.REGISTRY["ETTh1"]["split"] == (6, 2, 2)
        assert D.REGISTRY["ETTm2"]["split"] == (6, 2, 2)
        assert D.REGISTRY["Weather"]["split"] == (7, 1, 2)
        assert D.REGISTRY["Traffic"]["split"] == (7, 1, 2)
        for name in ("PEMS03", "PEMS04", "PEMS07", "PEMS08"):
            assert D.REGISTRY[name]["split"] == (3, 1, 1)
        assert D.REGISTRY["ETTh1"]["dim"] == 7

    def test_registry_file_override(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text('{"MyData": {"split": "8:1:1", "date_col": true}}')
        reg = D.load_registry_file(str(path))
        assert reg["MyData"]["split"] == (8.0, 1.0, 1.0)
        assert reg["MyData"]["date_col"] is True

    def test_parse_ratio_errors(self):
        with pytest.raises(InputError):
            D.parse_ratio("6:2")
        with pytest.raises(InputError):
            D.parse_ratio("a:b:c")

    @pytest.mark.parametrize("text", ["nan:1:1", "1:inf:1", "-1:2:2", "0:0:0"])
    def test_parse_ratio_checks_values(self, text):
        with pytest.raises(InputError, match="split ratio"):
            D.parse_ratio(text)

    @pytest.mark.parametrize("split", [
        "[0, 0, 0]", "[NaN, 1, 1]", "[-1, 2, 2]", "[true, 1, 1]", "[1, 1]", '"nan:1:1"',
    ])
    def test_registry_file_checks_split(self, tmp_path, split):
        path = tmp_path / "extra.json"
        path.write_text('{"MyData": {"split": %s}}' % split)
        with pytest.raises(DataError, match="split ratio") as exc:
            D.load_registry_file(str(path))
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("date_col", ['"no"', "0", "null"])
    def test_registry_date_col_must_be_bool(self, tmp_path, date_col):
        path = tmp_path / "extra.json"
        path.write_text('{"MyData": {"split": [6, 2, 2], "date_col": %s}}' % date_col)
        with pytest.raises(DataError, match="date_col") as exc:
            D.load_registry_file(str(path))
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("ratio", [
        (0, 0, 0), (float("nan"), 1, 1), (-1, 2, 2), (True, 1, 1), (6, 2),
    ], ids=["zero", "nan", "negative", "bool", "two_parts"])
    def test_explicit_ratio_is_checked(self, ratio):
        ds = D.Dataset("t", np.zeros((200, 1)))
        with pytest.raises(InputError, match="split ratio"):
            D.make_splits(ds, 16, 4, ratio=ratio)
        with pytest.raises(InputError, match="split ratio"):
            D.split(ds, ratio=ratio)


class TestWindows:
    def test_exact_fit_single_window(self):
        seg = np.zeros((192, 2))
        assert len(windows(seg, 96, 96)) == 1

    def test_stride_one_count(self):
        seg = np.zeros((200, 2))
        assert len(windows(seg, 96, 96)) == 9

    def test_too_short(self):
        with pytest.raises(DataError):
            windows(np.zeros((100, 2)), 96, 96)

    def test_contents_and_order(self):
        seg = np.arange(20, dtype=float)[:, None]
        ws = windows(seg, 4, 2)
        assert len(ws) == 15
        assert [w.start for w in ws] == list(range(15))
        assert np.array_equal(ws[3].lookback, [[3, 4, 5, 6]])
        assert np.array_equal(ws[3].target, [[7, 8]])

    def test_enumeration_duplicate_free(self):
        seg = np.random.default_rng(1).normal(size=(40, 1))
        ws = windows(seg, 8, 4)
        starts = [w.start for w in ws]
        assert len(starts) == len(set(starts)) == 40 - 12 + 1

    def test_window_arrays_match_list(self):
        seg = np.random.default_rng(2).normal(size=(30, 3))
        ws = windows(seg, 8, 4)
        arrs = D.window_arrays(seg, 8, 4)
        assert len(arrs) == len(ws)
        for i, w in enumerate(ws):
            assert np.array_equal(arrs.x[i], w.lookback)
            assert np.array_equal(arrs.y[i], w.target)

    @pytest.mark.parametrize("horizon", [1, 3, 8])
    def test_window_arrays_match_oracle(self, horizon):
        seg = np.random.default_rng(horizon).normal(size=(57, 3))
        ws = windows(seg, 8, horizon)
        arrs = D.window_arrays(seg, 8, horizon)
        assert arrs.x.shape == (len(ws), 3, 8) and arrs.y.shape == (len(ws), 3, horizon)
        assert np.array_equal(arrs.x, np.stack([w.lookback for w in ws]))
        assert np.array_equal(arrs.y, np.stack([w.target for w in ws]))
        assert np.array_equal(arrs.x[:, :, 0], seg[[w.start for w in ws]])


def _root(a):
    """The array that owns the memory behind view ``a``."""
    while getattr(a, "base", None) is not None:
        a = a.base
    return a


class TestMakeSplits:
    def test_targets_disjoint_across_splits(self):
        values = np.arange(200, dtype=float)[:, None]
        ds = D.Dataset("t", values, split_ratio=(6, 2, 2))
        splits = D.make_splits(ds, 16, 4, standardize=False)
        seen = set()
        for part in (splits.train, splits.val, splits.test):
            for i in range(len(part)):
                stamps = set(part.y[i, 0].astype(int))
                assert not stamps & seen or part is splits.train
            for i in range(len(part)):
                seen |= set(part.y[i, 0].astype(int))
        # border overlap: val lookbacks reach back L steps into train
        train_end = 120
        assert splits.val.x[0, 0, 0] == train_end - 16

    def test_val_test_target_ranges(self):
        values = np.arange(100, dtype=float)[:, None]
        ds = D.Dataset("t", values, split_ratio=(6, 2, 2))
        splits = D.make_splits(ds, 8, 2, standardize=False)
        assert splits.val.y.min() == 60  # first val target right at the boundary
        assert splits.test.y.min() == 80

    def test_standardization_uses_train_stats_only(self):
        rng = np.random.default_rng(3)
        values = np.concatenate([rng.normal(0, 1, size=(60, 1)),
                                 rng.normal(50, 9, size=(40, 1))])
        scaled, mean, std = D.standardize_by_train(values, 60)
        assert mean[0] == pytest.approx(values[:60].mean())
        assert std[0] == pytest.approx(values[:60].std())
        assert abs(scaled[:60].mean()) < 1e-12

    def test_overflowing_train_statistics_raise(self):
        # At 1e200 the train std overflows to inf, which would map every value to 0.
        values = np.random.default_rng(4).normal(size=(100, 2))
        ds = D.Dataset("t", values * 1e200, split_ratio=(6, 2, 2))
        with pytest.raises(DataError, match="overflow"):
            D.make_splits(ds, 8, 2)
        big = D.make_splits(D.Dataset("t", values * 1e150, split_ratio=(6, 2, 2)), 8, 2)
        assert np.isfinite(big.train.x).all()

    def test_windows_are_read_only_views_of_one_series(self):
        ds = D.Dataset("t", np.random.default_rng(5).normal(size=(300, 3)),
                       split_ratio=(6, 2, 2))
        for standardize in (True, False):
            splits = D.make_splits(ds, 16, 4, standardize=standardize)
            arrays = [a for part in (splits.train, splits.val, splits.test)
                      for a in (part.x, part.y)]
            series = _root(arrays[0])
            if standardize:
                assert np.array_equal(series, D.standardize_by_train(ds.values, 180)[0])
            else:
                assert series is ds.values
            for a in arrays:
                assert not a.flags.writeable
                assert _root(a) is series and np.shares_memory(a, series)

    def test_no_per_window_storage(self):
        values = np.random.default_rng(6).normal(size=(2000, 4))
        ds = D.Dataset("t", values, split_ratio=(7, 1, 2))
        tracemalloc.start()
        try:
            splits = D.make_splits(ds, 16, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        windowed = sum(p.x.size + p.y.size for p in (splits.train, splits.val, splits.test))
        assert windowed * 8 > 20 * values.nbytes  # what copies of the windows would cost
        assert peak < 4 * values.nbytes

    def test_train_segment_too_short(self):
        ds = D.Dataset("t", np.zeros((30, 1)), split_ratio=(6, 2, 2))
        with pytest.raises(DataError):
            D.make_splits(ds, 16, 4)


class TestSyntheticMixture:
    def test_shapes_and_columns(self):
        ds = D.synthetic_mixture(n_sine=4, n_noise=4, length=500,
                                 periods=(24, 36, 48, 96), seed=0)
        assert ds.values.shape == (500, 8)
        assert ds.columns[0] == "sine_p24"
        assert ds.columns[-1] == "noise3"
        assert ds.split_ratio == (7, 1, 2)

    def test_sine_channels_are_pure(self):
        ds = D.synthetic_mixture(n_sine=2, n_noise=1, length=200, periods=(10, 20), seed=1)
        t = np.arange(200)
        assert np.allclose(ds.values[:, 0], np.sin(2 * np.pi * t / 10), atol=1e-15)

    def test_deterministic_in_seed(self):
        a = D.synthetic_mixture(length=300, seed=5).values
        b = D.synthetic_mixture(length=300, seed=5).values
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kwargs", [
        dict(n_sine=0, n_noise=0), dict(n_sine=-1), dict(n_noise=-1), dict(length=0),
        dict(periods=(0, 36, 48, 96)), dict(seed=-1), dict(seed=1.5), dict(seed=True),
    ])
    def test_bad_arguments_are_input_errors(self, kwargs):
        with pytest.raises(InputError):
            D.synthetic_mixture(**{"length": 50, **kwargs})
