"""End-to-end tests for the command-line interface."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import read_taps_csv

from sparsechan import cli, estimators
from sparsechan.experiments import ExperimentConfig, run_trial, sweep_snr
from sparsechan.model import DEMO_TAP_VALUES


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def only_run_dir(out_root, prefix):
    dirs = [p for p in out_root.iterdir() if p.name.startswith(prefix)]
    assert len(dirs) == 1
    return dirs[0]


class TestBudget:
    def test_prints_minimum_training_length(self, capsys):
        code, out, _ = run_cli(["budget", "--T", "4", "--p", "60", "--c", "2"], capsys)
        assert code == 0
        assert out.strip() == "22"

    def test_invalid_inputs_exit_two(self, capsys):
        code, _, err = run_cli(["budget", "--T", "60", "--p", "60"], capsys)
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize("c", ["inf", "nan", "1e308"])
    def test_non_finite_c_or_budget_exit_two(self, capsys, c):
        code, out, err = run_cli(["budget", "--T", "4", "--p", "60", "--c", c], capsys)
        assert code == 2
        assert "config error" in err and f"c={float(c)}" in err
        assert out == ""

    def test_out_writes_meta(self, tmp_path, capsys):
        code, out, _ = run_cli(["budget", "--T", "4", "--p", "60", "--c", "2",
                                "--out", str(tmp_path)], capsys)
        assert code == 0 and out.strip() == "22"
        meta = json.loads((only_run_dir(tmp_path, "budget-") / "meta.json").read_text())
        assert meta == {"subcommand": "budget", "T": 4, "p": 60, "c": 2.0, "n_min": 22}

    def test_console_entry_point(self):
        # The child must import the package under test, installed or not.
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "sparsechan.cli", "budget", "--T", "1", "--p", "3", "--c", "1"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "2"


class TestSweepCommands:
    def test_minimal_one_row_sweep(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["sweep-snr", "--M", "1", "--methods", "oracle", "--snr", "10",
             "--out", str(tmp_path), "--seed", "1"],
            capsys,
        )
        assert code == 0
        run_dir = only_run_dir(tmp_path, "sweep-snr-")
        rows = list(csv.DictReader(open(run_dir / "result.csv")))
        assert len(rows) == 1
        assert rows[0]["method"] == "oracle"
        assert rows[0]["axis_value"] == "10.0"
        assert (run_dir / "meta.json").exists()
        assert (run_dir / "plot.gp").exists()
        assert (run_dir / "result_normalized.csv").exists()

    def test_plot_script_mentions_methods_and_log_axis(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["sweep-n", "--M", "1", "--methods", "ls,oracle", "--n", "8,12",
             "--snr", "15", "--L", "16", "--T", "2", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        script = (only_run_dir(tmp_path, "sweep-n-") / "plot.gp").read_text()
        assert "set logscale y" in script
        assert "'ls'" in script and "'oracle'" in script

    def test_rerun_same_seed_byte_identical(self, tmp_path, capsys):
        argv = ["sweep-snr", "--M", "2", "--methods", "ls,oracle", "--snr", "10,20",
                "--L", "16", "--T", "2", "--n", "8", "--seed", "9"]
        code1, _, _ = run_cli(argv + ["--out", str(tmp_path / "a")], capsys)
        code2, _, _ = run_cli(argv + ["--out", str(tmp_path / "b")], capsys)
        assert code1 == code2 == 0
        csv_a = (only_run_dir(tmp_path / "a", "sweep-snr-") / "result.csv").read_bytes()
        csv_b = (only_run_dir(tmp_path / "b", "sweep-snr-") / "result.csv").read_bytes()
        assert csv_a == csv_b

    def test_failed_cells_exit_three(self, tmp_path, capsys):
        # Genie-aided OMP takes T atoms, more than the n = 8 rows allow.
        code, _, err = run_cli(
            ["sweep-snr", "--M", "1", "--methods", "omp",
             "--snr", "10", "--n", "8", "--L", "16", "--T", "10", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 3
        assert "failed" in err
        meta = json.loads((only_run_dir(tmp_path, "sweep-snr-") / "meta.json").read_text())
        assert meta["excluded_failed_cells"] == {"10.0/omp": 1}
        assert meta["failed_cell_errors"] == {
            "10.0/omp": ["EstimationError: OMP atom budget 10 exceeds min(N, L)=8"]
        }

    def test_nan_or_minus_inf_snr_exit_two(self, tmp_path, capsys):
        for argv in (["sweep-snr", "--snr", "nan"], ["sweep-n", "--snr=-inf"],
                     ["estimate", "--snr", "nan"]):
            code, _, err = run_cli(argv + ["--out", str(tmp_path)], capsys)
            assert code == 2
            assert "config error" in err and "SNR" in err
        assert not any(tmp_path.iterdir())  # rejected before any run directory


class TestConfigHandling:
    def test_unknown_key_named_and_exit_two(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"trails": 100}))
        code, _, err = run_cli(
            ["sweep-snr", "--config", str(config), "--out", str(tmp_path)], capsys
        )
        assert code == 2
        assert "trails" in err

    @pytest.mark.parametrize("content, message", [
        (None, "config file not found: {path}"),
        ("{\"trials\": ", "config file {path} is not valid JSON: "),
        ("[1, 2]", "config file {path} must hold a JSON object"),
    ], ids=["missing", "not-json", "array"])
    def test_unreadable_config_file_exit_two(self, tmp_path, capsys, content, message):
        config = tmp_path / "config.json"
        if content is not None:
            config.write_text(content)
        code, _, err = run_cli(
            ["sweep-snr", "--config", str(config), "--out", str(tmp_path / "out")], capsys
        )
        assert code == 2
        assert message.format(path=config) in err
        assert not (tmp_path / "out").exists()  # rejected before any run directory

    def test_unknown_method_exit_two(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["sweep-snr", "--methods", "ls,unknown", "--out", str(tmp_path)], capsys
        )
        assert code == 2
        assert "unknown" in err

    def test_flags_override_config_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"trials": 3, "methods": ["ls"], "L": 16, "T": 2,
                                      "snr_grid_db": [10.0], "fixed_n": 8}))
        code, _, _ = run_cli(
            ["sweep-snr", "--config", str(config), "--M", "1", "--out", str(tmp_path)], capsys
        )
        assert code == 0
        rows = list(csv.DictReader(open(only_run_dir(tmp_path, "sweep-snr-") / "result.csv")))
        assert rows[0]["trials"] == "1"

    def test_metadata_round_trip_reproduces_csv(self, tmp_path, capsys):
        argv = ["sweep-snr", "--M", "2", "--methods", "ls,ds", "--snr", "12,18",
                "--L", "16", "--T", "2", "--n", "8", "--seed", "4"]
        code, _, _ = run_cli(argv + ["--out", str(tmp_path / "first")], capsys)
        assert code == 0
        first = only_run_dir(tmp_path / "first", "sweep-snr-")
        code, _, _ = run_cli(
            ["sweep-snr", "--config", str(first / "meta.json"), "--out", str(tmp_path / "second")],
            capsys,
        )
        assert code == 0
        second = only_run_dir(tmp_path / "second", "sweep-snr-")
        assert (first / "result.csv").read_bytes() == (second / "result.csv").read_bytes()

    def test_complex_mode_key_of_older_meta(self, tmp_path, capsys):
        # Older meta.json files record the retired complex_mode, lp_tolerance,
        # lp_max_iterations, omp_max_atoms and omp_residual_tol at their last
        # defaults; they still load, and any other value is an unknown key.
        argv = ["sweep-snr", "--M", "2", "--methods", "ls,omp,ds", "--snr", "12",
                "--L", "16", "--T", "2", "--n", "8", "--seed", "4"]
        code, _, _ = run_cli(argv + ["--out", str(tmp_path / "first")], capsys)
        assert code == 0
        first = only_run_dir(tmp_path / "first", "sweep-snr-")
        meta = json.loads((first / "meta.json").read_text())
        retired = {"complex_mode": "real_composite", "lp_tolerance": 1e-08,
                   "lp_max_iterations": 200, "omp_max_atoms": "auto",
                   "omp_residual_tol": "auto"}
        for name, changed, bad_key in (("old", {}, None),
                                       ("modulus", {"complex_mode": "modulus"}, "complex_mode"),
                                       ("loose_lp", {"lp_tolerance": 1e-3}, "lp_tolerance"),
                                       ("omp_budget", {"omp_max_atoms": 3}, "omp_max_atoms"),
                                       ("omp_tol", {"omp_residual_tol": 0.5}, "omp_residual_tol")):
            meta["config"]["estimator"].update(retired, **changed)
            old_meta = tmp_path / f"{name}.json"
            old_meta.write_text(json.dumps(meta))
            out = tmp_path / name
            code, _, err = run_cli(
                ["sweep-snr", "--config", str(old_meta), "--out", str(out)], capsys
            )
            if bad_key is None:
                assert code == 0
                rerun = only_run_dir(out, "sweep-snr-")
                assert (first / "result.csv").read_bytes() == (rerun / "result.csv").read_bytes()
            else:
                assert code == 2
                assert f"unknown config key: {bad_key!r}" in err
                assert not out.exists()

    @pytest.mark.parametrize("argv, config, named", [
        (["estimate", "--n", "0"], None, "fixed_n"),
        (["ric", "--n", "0"], None, "fixed_n"),
        (["ric", "--order", "20", "--L", "12"], None, "--order"),
        (["ric", "--max-supports", "0"], None, "--max-supports"),
        (["sweep-snr", "--M", "1", "--methods", "omp"], {"omp_residual_tol": "abc"},
         "omp_residual_tol"),
        (["sweep-snr", "--M", "1", "--methods", "ls", "--workers", "0"], None, "workers"),
        (["sweep-snr", "--M", "2", "--snr", "10", "--methods", "lasso", "--lambda-lasso", "nan"],
         None, "lambda_lasso"),
        (["estimate", "--lambda-ds", "nan"], None, "lambda_ds"),
        (["estimate", "--lambda-ds", "inf"], None, "lambda_ds"),
        (["sweep-n", "--M", "1", "--methods", "ls", "--lambda-lasso=-inf"], None, "lambda_lasso"),
        (["sweep-snr", "--M", "1", "--methods", "omp"], {"omp_residual_tol": float("inf")},
         "omp_residual_tol"),
        (["sweep-snr", "--M", "1", "--methods", "omp"], {"omp_residual_tol": float("nan")},
         "omp_residual_tol"),
        (["sweep-snr", "--M", "3", "--methods", "ls,ls"], None, "methods"),
        (["ric", "--seed", "-1"], None, "base_seed"),
        (["demo-fig2", "--seed", "-1"], None, "base_seed"),
        (["sweep-snr", "--M", "1", "--methods", "ls", "--seed", "-1"], None, "base_seed"),
        (["sweep-n", "--M", "1", "--methods", "ls"], {"base_seed": 2**64}, "base_seed"),
        (["sweep-n", "--M", "1", "--methods", "ls"], {"base_seed": 1.5}, "base_seed"),
        (["sweep-n", "--M", "1", "--methods", "ls"], {"base_seed": True}, "base_seed"),
        (["sweep-n", "--M", "1", "--methods", "ls"], {"n_grid": [10.7, 20]}, "n_grid"),
        (["estimate", "--methods", "ls"], {"fixed_n": 10.7}, "fixed_n"),
        (["sweep-snr", "--methods", "ls"], {"trials": 2.5}, "trials"),
        (["sweep-snr", "--M", "1", "--methods", "ls"], {"L": True, "T": 1}, "L"),
        (["sweep-snr", "--M", "1", "--methods", "ls"], {"distribution": "uniform"},
         "distribution"),
        (["estimate", "--methods", "ls"], {"distribution": "uniform"}, "distribution"),
        (["estimate", "--methods", "ls"], {"fixed_snr_db": "12"}, "fixed_snr_db"),
        (["sweep-snr", "--M", "1", "--methods", "ls"], {"snr_grid_db": ["12"]}, "snr_grid_db"),
        (["estimate", "--methods", "ls"], {"fixed_snr_db": True}, "fixed_snr_db"),
        (["estimate"], {"lambda_ds": True}, "lambda_ds"),
        (["estimate"], {"lambda_lasso": None}, "lambda_lasso"),
        (["estimate"], {"lambda_lasso": [1]}, "lambda_lasso"),
        (["estimate"], {"methods": "ds"}, "methods must be a list"),
        (["sweep-snr", "--M", "1", "--methods", "ls"], {"snr_grid_db": "12"},
         "snr_grid_db must be a list"),
        (["sweep-n", "--M", "1", "--methods", "ls"], {"n_grid": "30"}, "n_grid must be a list"),
        (["sweep-n", "--M", "1", "--methods", "ls"], {"n_grid": 30}, "n_grid must be a list"),
    ])
    def test_out_of_range_values_exit_two(self, tmp_path, capsys, argv, config, named):
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        code, _, err = run_cli(argv + ["--out", str(tmp_path / "runs")], capsys)
        assert code == 2
        assert "config error" in err and named in err
        assert not (tmp_path / "runs").exists()  # rejected before any run directory

    @pytest.mark.parametrize("argv, flag", [
        (["estimate", "--snr", "10,20"], "--snr"),
        (["sweep-snr", "--snr", "abc"], "--snr"),
        (["sweep-n", "--lambda-ds", "x"], "--lambda-ds"),
    ])
    def test_malformed_flag_values_exit_two(self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path / "runs")])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["demo-fig2", "--n", "12"], "--n"),
        (["demo-fig2", "--methods", "omp"], "--methods"),
        (["estimate", "--M", "5"], "--M"),
        (["estimate", "--workers", "2"], "--workers"),
        (["ric", "--T", "2"], "--T"),
    ])
    def test_flags_a_subcommand_does_not_read_exit_two(self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path / "runs")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_every_flag_sets_a_config_field_or_is_cli_only(self):
        # resolve_config overlays only the flags named like config fields, so
        # a mistyped dest would be silently ignored.
        cli_only = {"config", "out", "order", "max_supports", "subcommand"}
        parser = cli.build_parser()
        for subcommand in ("estimate", "sweep-snr", "sweep-n", "demo-fig2", "ric"):
            dests = set(vars(parser.parse_args([subcommand])))
            assert dests - cli_only <= cli.CONFIG_KEYS, subcommand


class TestEstimateCommand:
    def test_writes_taps_and_diagnostics(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["estimate", "--methods", "ls,ds,oracle", "--L", "16", "--T", "2",
             "--n", "8", "--snr", "15", "--seed", "2", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        run_dir = only_run_dir(tmp_path, "estimate-")
        truth = read_taps_csv(run_dir / "channel_true.csv")
        assert truth.shape == (16,)
        for method in ("ls", "ds", "oracle"):
            assert (run_dir / f"estimate_{method}.csv").exists()
        diag = json.loads((run_dir / "diagnostics.json").read_text())
        assert set(diag) == {"ls", "ds", "oracle"}
        assert diag["ds"]["lambda"] > 0
        meta = json.loads((run_dir / "meta.json").read_text())
        assert meta["config"]["L"] == 16

    def test_sds_weights_written(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["estimate", "--methods", "ds,sds", "--L", "16", "--T", "2",
             "--n", "8", "--snr", "15", "--seed", "2", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        diag = json.loads((only_run_dir(tmp_path, "estimate-") / "diagnostics.json").read_text())
        assert len(diag["sds"]["weights"]) == 16
        assert all(w >= 0 for w in diag["sds"]["weights"])

    def test_failed_method_exit_three_keeps_the_others(self, tmp_path, capsys):
        # Genie-aided OMP takes T = 10 atoms, more than the n = 8 rows allow.
        code, _, err = run_cli(["estimate", "--L", "16", "--T", "10", "--n", "8",
                                "--methods", "ls,omp,ds", "--out", str(tmp_path / "runs")], capsys)
        assert code == 3
        assert "solver failure in omp" in err
        run_dir = only_run_dir(tmp_path / "runs", "estimate-")
        diag = json.loads((run_dir / "diagnostics.json").read_text())
        assert list(diag) == ["ls", "omp", "ds"]
        assert diag["omp"] == {"failed": True,
                               "error": "EstimationError: OMP atom budget 10 exceeds min(N, L)=8"}
        assert diag["ls"]["regularized"] is False and diag["ds"]["lambda"] > 0
        assert (run_dir / "estimate_ls.csv").exists() and (run_dir / "estimate_ds.csv").exists()
        assert not (run_dir / "estimate_omp.csv").exists()

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        # Only expected estimator failures become failed cells or exit 3.
        def broken(*args):
            raise TypeError("broken estimator")

        # The minimum-norm solve inside `ls` (N=8 < L=16) breaks.
        monkeypatch.setattr(estimators, "_solve_psd", broken)
        cfg = ExperimentConfig(L=16, T=2, trials=1, methods=("ls",), fixed_n=8)
        with pytest.raises(TypeError, match="broken estimator"):
            run_trial(cfg, 10.0, 8, 0)
        with pytest.raises(TypeError, match="broken estimator"):
            cli.main(["estimate", "--methods", "ls", "--L", "16", "--T", "2", "--n", "8",
                      "--out", str(tmp_path)])

    def test_matches_trial_zero_of_sweep_point(self, tmp_path, capsys):
        methods = ("ls", "oracle", "ds")
        code, _, _ = run_cli(
            ["estimate", "--methods", ",".join(methods), "--L", "16", "--T", "2",
             "--n", "8", "--snr", "15", "--seed", "2", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        diag = json.loads((only_run_dir(tmp_path, "estimate-") / "diagnostics.json").read_text())
        # Trial 0 of a sweep point with more trials, whose selector programs
        # are solved together with those of the other trials.
        cfg = ExperimentConfig(L=16, T=2, trials=4, methods=methods, base_seed=2,
                               snr_grid_db=(15.0,), fixed_n=8)
        trials = sweep_snr(cfg).trials
        for method in methods:
            assert diag[method]["mse"] == trials[(15.0, method)][0].mse


class TestRicCommand:
    def test_writes_support_table(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["ric", "--n", "8", "--L", "12", "--order", "2", "--seed", "3",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        run_dir = only_run_dir(tmp_path, "ric-")
        rows = list(csv.DictReader(open(run_dir / "result.csv")))
        assert len(rows) == 66  # C(12, 2)
        meta = json.loads((run_dir / "meta.json").read_text())
        assert meta["exact"] is True
        assert 0 <= meta["delta"]
        assert "delta_2" in out

    def test_config_file_training_length_holds(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fixed_n": 10}))
        for name, extra, n in (("file", ["--config", str(config)], 10), ("default", [], 8)):
            out = tmp_path / name
            code, _, _ = run_cli(["ric", "--L", "12", "--out", str(out), *extra], capsys)
            assert code == 0
            assert json.loads((only_run_dir(out, "ric-") / "meta.json").read_text())["N"] == n

    def test_metadata_round_trip_reproduces_csv(self, tmp_path, capsys):
        argv = ["--order", "3", "--max-supports", "40"]
        code, _, _ = run_cli(["ric", "--n", "9", "--L", "14", "--seed", "6",
                              "--distribution", "complex_gaussian", *argv,
                              "--out", str(tmp_path / "first")], capsys)
        assert code == 0
        first = only_run_dir(tmp_path / "first", "ric-")
        code, _, _ = run_cli(["ric", "--config", str(first / "meta.json"), *argv,
                              "--out", str(tmp_path / "second")], capsys)
        assert code == 0
        second = only_run_dir(tmp_path / "second", "ric-")
        assert (first / "result.csv").read_bytes() == (second / "result.csv").read_bytes()
        assert (first / "meta.json").read_bytes() == (second / "meta.json").read_bytes()


class TestDemoCommand:
    def test_demo_outputs(self, tmp_path, capsys):
        code, _, _ = run_cli(["demo-fig2", "--seed", "0", "--out", str(tmp_path)], capsys)
        assert code == 0
        run_dir = only_run_dir(tmp_path, "demo-fig2-")
        truth = read_taps_csv(run_dir / "channel_true.csv")
        assert truth.shape == (60,)
        support_rows = list(csv.DictReader(open(run_dir / "support_ds.csv")))
        moduli = {round(float(r["modulus"]), 3) for r in support_rows}
        largest_four = sorted(abs(v) for v in DEMO_TAP_VALUES)[1:]
        recovered = 0
        for value in largest_four:
            recovered += any(abs(m - value) < 0.35 for m in moduli)
        assert recovered == 4
        script = (run_dir / "plot.gp").read_text()
        assert "impulses" in script
        meta = json.loads((run_dir / "meta.json").read_text())
        assert meta["instance"]["snr_db"] == 10.0

    def test_config_records_the_fixed_point_it_ran(self, tmp_path, capsys):
        # A config file cannot move the demo off its point, and the config
        # block of meta.json records that point.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"L": 20, "T": 2, "fixed_n": 12, "fixed_snr_db": 5,
                                      "methods": ["omp"]}))
        for name, extra in (("plain", []), ("file", ["--config", str(config)])):
            code, _, _ = run_cli(["demo-fig2", "--seed", "1", "--out", str(tmp_path / name),
                                  *extra], capsys)
            assert code == 0
        plain = only_run_dir(tmp_path / "plain", "demo-fig2-")
        from_file = only_run_dir(tmp_path / "file", "demo-fig2-")
        for name in ("result.csv", "diagnostics.json", "meta.json"):
            assert (plain / name).read_bytes() == (from_file / name).read_bytes()
        meta = json.loads((plain / "meta.json").read_text())
        config = meta["config"]
        assert (config["L"], config["T"], config["methods"]) == (60, 5, ["ls", "ds"])
        assert (config["fixed_n"], config["fixed_snr_db"]) == (meta["instance"]["n"],
                                                               meta["instance"]["snr_db"])
        assert (config["fixed_n"], config["fixed_snr_db"]) == (30, 10.0)

    def test_failed_method_exit_three_keeps_meta(self, tmp_path, capsys, monkeypatch):
        def failing(Xm, y, levels):
            return [estimators.SelectorLpError("selector LP reported infeasible")
                    for _ in Xm]

        monkeypatch.setattr(estimators, "ds_estimates", failing)
        code, _, err = run_cli(["demo-fig2", "--out", str(tmp_path)], capsys)
        assert code == 3
        assert "solver failure in ds" in err
        run_dir = only_run_dir(tmp_path, "demo-fig2-")
        meta = json.loads((run_dir / "meta.json").read_text())
        assert meta["config"]["methods"] == ["ls", "ds"]
        diag = json.loads((run_dir / "diagnostics.json").read_text())
        assert diag["ds"]["failed"] is True and "ls" in diag
        assert not (run_dir / "result.csv").exists()

    def test_demo_support_indices_cover_largest_true_taps(self, tmp_path, capsys):
        code, _, _ = run_cli(["demo-fig2", "--seed", "5", "--out", str(tmp_path)], capsys)
        assert code == 0
        run_dir = only_run_dir(tmp_path, "demo-fig2-")
        truth = read_taps_csv(run_dir / "channel_true.csv")
        support = {int(r["index"]) for r in csv.DictReader(open(run_dir / "support_ds.csv"))}
        largest_four = set(np.argsort(np.abs(truth))[-4:])
        assert largest_four <= support
