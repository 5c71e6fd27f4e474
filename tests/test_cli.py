import argparse
import json
import os
from dataclasses import fields

import numpy as np
import pytest

from seedcast import cli
from seedcast import data as D
from seedcast.errors import NumericError
from seedcast.model import ModelConfig, SeedModel
from seedcast.training import TrainConfig

TINY = ["--lookback", "16", "--horizon", "4", "--patch-len", "4",
        "--d-model", "8", "--heads", "2", "--layers", "1",
        "--epochs", "1", "--batch", "16", "--seed", "7"]


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "mix.csv")
    ds = D.synthetic_mixture(n_sine=2, n_noise=2, length=400, periods=(8, 16), seed=3)
    D.write_csv(path, ds.values, ds.columns)
    return path


def run(argv):
    return cli.main(argv)


def subparser(command: str) -> argparse.ArgumentParser:
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices[command]


class TestSynth:
    def test_writes_csv(self, tmp_path):
        out = str(tmp_path / "synth.csv")
        code = run(["synth", "--sine", "2", "--noise", "1", "--length", "100",
                    "--periods", "10,20", "--seed", "1", "--out-csv", out])
        assert code == 0
        ds = D.load_csv(out)
        assert ds.values.shape == (100, 3)


class TestBadInput:
    """A bad value on the command line ends as ``error: ...`` with exit code 1."""

    CASES = {
        "alphas_list": ["analyze", "--synthetic", "--alphas", "0,x"],
        "alphas_range": ["analyze", "--synthetic", "--alphas", "0:1:y"],
        "alphas_unbounded": ["analyze", "--synthetic", "--alphas", "0:inf:1"],
        "zero_seeds": ["analyze", "--synthetic", "--seeds", "0"],
        "analyze_negative_seed": ["analyze", "--synthetic", "--seed", "-1"],
        "periods": ["synth", "--periods", "24,x"],
        "zero_period": ["synth", "--periods", "0,36,48,96"],
        "no_columns": ["synth", "--sine", "0", "--noise", "0"],
        "negative_sine": ["synth", "--sine", "-1"],
        "negative_noise": ["synth", "--noise", "-1"],
        "zero_length": ["synth", "--length", "0"],
        "synth_negative_seed": ["synth", "--seed", "-1"],
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_fails_cleanly(self, name, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = run(self.CASES[name] + ["--out-csv", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert not out.exists() and not captured.out

    @pytest.mark.parametrize("flag, value, named", [
        ("--seed", "-1", "seed"), ("--lambda", "nan", "lambda"), ("--lr", "nan", "learning_rate"),
        ("--split", "nan:1:1", "split ratio"), ("--horizon", "1", "horizon"),
    ])
    def test_train_rejects_before_training(self, tiny_csv, tmp_path, capsys, flag, value, named):
        out = tmp_path / "run"
        code = run(["train", "--data", tiny_csv, "--split", "6:2:2", "--out", str(out)]
                   + TINY + [flag, value])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and named in err and "Traceback" not in err
        assert not out.exists()

    def test_every_seedcast_error_fails_cleanly(self, monkeypatch, capsys):
        def fail(args):
            raise NumericError("forecast is not finite")

        monkeypatch.setattr(cli, "cmd_synth", fail)
        assert run(["synth", "--out-csv", "unused.csv"]) == 1
        assert capsys.readouterr().err == "error: forecast is not finite\n"


class TestTrain:
    def test_writes_metrics_manifest_checkpoint(self, tiny_csv, tmp_path):
        out = str(tmp_path / "run")
        code = run(["train", "--data", tiny_csv, "--split", "6:2:2",
                    "--out", out] + TINY)
        assert code == 0
        metrics = json.load(open(os.path.join(out, "metrics.json")))
        assert np.isfinite(metrics["mse"]) and np.isfinite(metrics["mae"])
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["model_config"]["variant"] == "full"
        assert manifest["dataset"]["vars"] == 4
        assert "config_hash" in manifest
        assert os.path.exists(os.path.join(out, "model.ckpt"))

    def test_variant_recorded_in_manifest(self, tiny_csv, tmp_path):
        out = str(tmp_path / "run_variant")
        code = run(["train", "--data", tiny_csv, "--split", "6:2:2",
                    "--variant", "wo_cse", "--out", out] + TINY)
        assert code == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["model_config"]["variant"] == "wo_cse"

    @pytest.mark.parametrize("cap", [
        {"SEED_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None},
        {"SEED_NUM_THREADS": None, "OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "2"},
    ], ids=["seed_and_openblas", "omp_only"])
    def test_thread_cap_recorded_in_manifest(self, tiny_csv, tmp_path, monkeypatch, cap):
        # Seeded gradients depend on the BLAS thread count; the manifest names the cap.
        for name, value in cap.items():
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        out = str(tmp_path / "run_threads")
        assert run(["train", "--data", tiny_csv, "--split", "6:2:2", "--out", out] + TINY) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["thread_cap"] == cap

    def test_zero_epochs_still_emits_metrics(self, tiny_csv, tmp_path):
        out = str(tmp_path / "run0")
        argv = ["train", "--data", tiny_csv, "--split", "6:2:2", "--out", out] + TINY
        argv[argv.index("--epochs") + 1] = "0"
        assert run(argv) == 0
        metrics = json.load(open(os.path.join(out, "metrics.json")))
        assert metrics["epochs"] == 0 and np.isfinite(metrics["mse"])

    def test_determinism_identical_metrics_json(self, tiny_csv, tmp_path):
        outs = [str(tmp_path / f"det{i}") for i in range(2)]
        payloads = []
        for out in outs:
            assert run(["train", "--data", tiny_csv, "--split", "6:2:2",
                        "--out", out] + TINY) == 0
            m = json.load(open(os.path.join(out, "metrics.json")))
            m.pop("seconds")  # wall clock is the one permitted difference
            payloads.append(json.dumps(m, sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_unknown_dataset_without_split_fails(self, tiny_csv, tmp_path):
        code = run(["train", "--data", tiny_csv, "--out", str(tmp_path / "x")] + TINY)
        assert code == 1

    @pytest.mark.parametrize("kind", ["directory", "binary"])
    def test_unreadable_data_fails_cleanly(self, kind, tmp_path, capsys):
        data = tmp_path / "data"
        if kind == "directory":
            data.mkdir()
        else:
            data.write_bytes(b"a,b\n1,2\n\xff\xfe,3\n")
        code = run(["train", "--data", str(data), "--split", "6:2:2",
                    "--out", str(tmp_path / "x")] + TINY)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    BAD_REGISTRIES = {
        "truncated.json": '{"x": ',
        "scalar_entry.json": '{"x": 5}',
        "list.json": "[1]",
        "null_split.json": '{"x": {"split": null}}',
        "zero_split.json": '{"x": {"split": [0, 0, 0]}}',
        "nan_split.json": '{"x": {"split": [NaN, 1, 1]}}',
        "negative_split.json": '{"x": {"split": [-1, 2, 2]}}',
        "bool_split.json": '{"x": {"split": [true, 1, 1]}}',
        "text_date_col.json": '{"x": {"split": [6, 2, 2], "date_col": "no"}}',
        "text_dim.json": '{"x": {"split": [6, 2, 2], "dim": "2"}}',
        "float_dim.json": '{"x": {"split": [6, 2, 2], "dim": 2.5}}',
        "bool_dim.json": '{"x": {"split": [6, 2, 2], "dim": true}}',
        "zero_dim.json": '{"x": {"split": [6, 2, 2], "dim": 0}}',
        "bad.toml": "[x\nsplit = ",
        "missing.json": None,
    }

    @pytest.mark.parametrize("name", list(BAD_REGISTRIES))
    def test_bad_registry_fails_cleanly(self, tiny_csv, tmp_path, capsys, name):
        registry, text = tmp_path / name, self.BAD_REGISTRIES[name]
        if text is not None:
            registry.write_text(text)
        code = run(["train", "--data", tiny_csv, "--split", "6:2:2", "--registry",
                    str(registry), "--out", str(tmp_path / "x")] + TINY)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and str(registry) in err and "Traceback" not in err


class TestConfigFlags:
    """Each config field has one flag whose dest is the field's name; the CLI copies nothing."""

    NOT_FLAGS = {"n_vars", "detach_entropy"}  # taken from the data; library only

    FIELDS = {f.name for cls in (ModelConfig, TrainConfig) for f in fields(cls)}

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_every_config_field_has_a_flag(self, command):
        dests = {a.dest for a in subparser(command)._actions if a.option_strings}
        wanted = self.FIELDS - self.NOT_FLAGS
        assert wanted <= dests, sorted(wanted - dests)
        assert not self.NOT_FLAGS & dests

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_no_config_flag_has_a_default_of_its_own(self, command):
        flags = [a for a in subparser(command)._actions if a.dest in self.FIELDS]
        assert flags and all(a.default is argparse.SUPPRESS for a in flags)
        args = cli.build_parser().parse_args([command])
        assert not self.FIELDS & vars(args).keys()

    def test_lambda_sets_the_model_config_only(self, tiny_csv, tmp_path):
        mse = {}
        for lam in ("0", "0.5"):
            out = tmp_path / f"lam{lam}"
            assert run(["train", "--data", tiny_csv, "--split", "6:2:2", "--out", str(out)]
                       + TINY + ["--lambda", lam]) == 0
            mse[lam] = json.loads((out / "metrics.json").read_text())["mse"]
            manifest = (out / "manifest.json").read_text()
            assert json.loads(manifest)["model_config"]["lambda"] == float(lam)
            assert manifest.count('"lambda"') == 1
        assert mse["0"] != mse["0.5"]


class TestEval:
    def test_eval_reproduces_train_test_metrics(self, tiny_csv, tmp_path):
        out = str(tmp_path / "run")
        assert run(["train", "--data", tiny_csv, "--split", "6:2:2",
                    "--out", out] + TINY) == 0
        eval_out = str(tmp_path / "eval")
        assert run(["eval", "--ckpt", os.path.join(out, "model.ckpt"),
                    "--data", tiny_csv, "--split", "6:2:2",
                    "--on", "test", "--out", eval_out]) == 0
        train_metrics = json.load(open(os.path.join(out, "metrics.json")))
        eval_metrics = json.load(open(os.path.join(eval_out, "metrics_test.json")))
        assert eval_metrics["mse"] == train_metrics["mse"]
        assert eval_metrics["mae"] == train_metrics["mae"]
        assert eval_metrics["horizon"] == train_metrics["horizon"]

    def test_train_split_also_finite(self, tiny_csv, tmp_path):
        out = str(tmp_path / "run")
        assert run(["train", "--data", tiny_csv, "--split", "6:2:2",
                    "--out", out] + TINY) == 0
        assert run(["eval", "--ckpt", os.path.join(out, "model.ckpt"),
                    "--data", tiny_csv, "--split", "6:2:2", "--on", "train"]) == 0

    def test_missing_checkpoint_fails(self, tiny_csv, tmp_path):
        code = run(["eval", "--ckpt", str(tmp_path / "missing.ckpt"),
                    "--data", tiny_csv, "--split", "6:2:2"])
        assert code == 1

    def test_truncated_checkpoint_fails_cleanly(self, tiny_csv, tmp_path, capsys):
        ckpt = str(tmp_path / "model.ckpt")
        SeedModel(ModelConfig(lookback=16, horizon=4, patch_len=4, d_model=8,
                              heads=2, n_layers=1, n_vars=4)).save(ckpt)
        raw = open(ckpt, "rb").read()
        with open(ckpt, "wb") as fh:
            fh.write(raw[: len(raw) // 2])
        code = run(["eval", "--ckpt", ckpt, "--data", tiny_csv, "--split", "6:2:2"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_weight_fails_cleanly(self, tiny_csv, tmp_path, capsys, bad):
        # A well-formed archive whose weights would forecast NaN for every window.
        ckpt = str(tmp_path / "model.ckpt")
        model = SeedModel(ModelConfig(lookback=16, horizon=4, patch_len=4, d_model=8,
                                      heads=2, n_layers=1, n_vars=4))
        model.head.bias.data[1] = bad
        model.save(ckpt)
        code = run(["eval", "--ckpt", ckpt, "--data", tiny_csv, "--split", "6:2:2"])
        captured = capsys.readouterr()
        assert code == 1 and "mse=" not in captured.out
        assert captured.err.startswith("error:") and "'head.bias'" in captured.err

    def test_overflowing_forecast_fails_cleanly(self, tiny_csv, tmp_path, capsys):
        # Finite weights load, but a head scaled by 1e308 forecasts inf for every window.
        ckpt = str(tmp_path / "model.ckpt")
        model = SeedModel(ModelConfig(lookback=16, horizon=4, patch_len=4, d_model=8,
                                      heads=2, n_layers=1, n_vars=4))
        model.head.weight.data *= 1e308
        model.save(ckpt)
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(["eval", "--ckpt", ckpt, "--data", tiny_csv, "--split", "6:2:2"])
        captured = capsys.readouterr()
        assert code == 1 and "mse=" not in captured.out
        assert captured.err.startswith("error:") and "non-finite forecast" in captured.err


class TestAnalyze:
    def test_synthetic_grid_row_count(self, tmp_path):
        out = str(tmp_path / "study.csv")
        code = run(["analyze", "--synthetic", "--alphas", "0:1:0.1",
                    "--period", "24", "--length", "512", "--seed", "3",
                    "--out-csv", out])
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "alpha,acf_peak,spectral_entropy"
        assert len(lines) == 12  # header + 11 alphas

    def test_emitted_csv_shows_negative_correlation(self, tmp_path):
        from scipy import stats
        out = str(tmp_path / "study.csv")
        assert run(["analyze", "--synthetic", "--alphas", "0:1:0.1",
                    "--period", "24", "--length", "512", "--seed", "3",
                    "--seeds", "3", "--out-csv", out]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (33, 3)
        assert stats.pearsonr(rows[:, 1], rows[:, 2]).statistic < -0.8

    def test_data_mode_constant_column(self, tmp_path, capsys):
        path = str(tmp_path / "const.csv")
        values = np.stack([np.full(64, 2.0),
                           np.random.default_rng(0).normal(size=64)], axis=1)
        D.write_csv(path, values, ["flat", "wavy"])
        out = str(tmp_path / "vars.csv")
        assert run(["analyze", "--data", path, "--out-csv", out]) == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "variable,spectral_entropy,acf_peak"
        flat = lines[1].split(",")
        assert flat[0] == "flat" and float(flat[1]) == 0.0
        assert "entropy mapped to 0" in capsys.readouterr().err

    @pytest.mark.parametrize("name, flags", [
        ("ETTh1.csv", []),
        ("dated.csv", ["--dataset", "ETTh1"]),
        ("dated.csv", ["--dataset", "mine", "--registry", "registry.json"]),
    ])
    def test_data_mode_reads_the_registry(self, tmp_path, name, flags):
        # The registry marks these datasets' first column as a date.
        rows = [f"2020-01-{1 + i // 24:02d} {i % 24:02d}:00:00,"
                + ",".join(f"{v:.6f}" for v in np.random.default_rng(i).normal(size=7))
                for i in range(96)]
        (tmp_path / name).write_text("\n".join(["date," + ",".join("abcdefg")] + rows) + "\n")
        (tmp_path / "registry.json").write_text('{"mine": {"split": "6:2:2", "date_col": true}}')
        flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
        out = tmp_path / "vars.csv"
        assert run(["analyze", "--data", str(tmp_path / name), "--out-csv", str(out)]
                   + flags) == 0
        lines = out.read_text().strip().splitlines()
        assert [ln.split(",")[0] for ln in lines[1:]] == list("abcdefg")

    def test_conflicting_modes_usage_error(self, tmp_path):
        code = run(["analyze", "--synthetic", "--data", "whatever.csv"])
        assert code == 2

    def test_no_mode_usage_error(self):
        assert run(["analyze"]) == 2


class TestAblate:
    def test_roster_and_finite(self, tiny_csv, tmp_path):
        out = str(tmp_path / "ablate")
        code = run(["ablate", "--data", tiny_csv, "--split", "6:2:2",
                    "--out", out] + TINY)
        assert code == 0
        lines = open(os.path.join(out, "ablation.csv")).read().strip().splitlines()
        assert lines[0] == "variant,mse,mae"
        assert len(lines) == 11  # header + full + 9 variants
        names = [ln.split(",")[0] for ln in lines[1:]]
        assert names[0] == "full" and len(set(names)) == 10
        for ln in lines[1:]:
            _, mse, mae = ln.split(",")
            assert np.isfinite(float(mse)) and np.isfinite(float(mae))


class TestHelp:
    SPEC_FLAGS = ["--data", "--dataset", "--split", "--date-col", "--lookback",
                  "--horizon", "--patch-len", "--d-model", "--heads", "--knn-k",
                  "--variant", "--lambda", "--epochs", "--batch",
                  "--lr", "--seed", "--out"]

    def test_train_help_documents_every_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in self.SPEC_FLAGS:
            assert flag in text, flag

    def test_graph_flag_is_gone(self, capsys):
        # The variant alone picks the graph builder: --variant re_s2 is the softmax graph.
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--data", "x.csv", "--graph", "softmax"])
        assert exc.value.code == 2
        assert "--graph" in capsys.readouterr().err

    def test_subcommands_have_help(self, capsys):
        for sub in ("train", "eval", "analyze", "ablate", "synth"):
            with pytest.raises(SystemExit) as exc:
                cli.main([sub, "--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out