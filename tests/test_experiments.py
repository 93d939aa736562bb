"""Tests for the Monte Carlo harness: determinism, aggregation, trends."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_bench_hooks import load_bench

from sparsechan import estimators, experiments
from sparsechan.estimators import ALL_METHODS, Estimate, run_estimator
from sparsechan.experiments import (
    ExperimentConfig,
    derive_trial_seed,
    make_instance,
    mse,
    run_trial,
    sweep_snr,
    sweep_training_length,
    write_sweep_csv,
)
from sparsechan.model import SparseChannel


# bench/checks.py rebuilds instances from its own copy of the seed derivation.
BENCH_CHECKS = load_bench("checks")


def channel_of(taps) -> SparseChannel:
    taps = np.asarray(taps, dtype=np.complex128)
    support = tuple(int(i) for i in np.flatnonzero(taps))
    return SparseChannel(taps=taps, support=support)


def estimate_of(taps) -> Estimate:
    taps = np.asarray(taps, dtype=np.complex128)
    return Estimate(h_hat=taps, diagnostics={})


SMALL = ExperimentConfig(
    L=24, T=2, trials=6, methods=("ls", "omp", "ds", "oracle"),
    snr_grid_db=(5.0, 20.0), n_grid=(8, 16), fixed_snr_db=20.0, fixed_n=12,
    base_seed=42,
)


class TestMse:
    def test_perfect_estimate(self):
        ch = channel_of([1.0, 0, 2.0j])
        assert mse(ch, estimate_of(ch.taps)) == 0.0

    def test_zero_estimate(self):
        ch = channel_of([1.0, 0, 2.0j])
        assert mse(ch, estimate_of(np.zeros(3))) == pytest.approx(5.0)

    def test_orthogonal_unit_error(self):
        ch = channel_of([1.0, 0.0])
        assert mse(ch, estimate_of([0.0, 1.0])) == pytest.approx(2.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse(channel_of([1.0, 0.0]), estimate_of([1.0]))


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        a = derive_trial_seed(1, 10.0, 30, 0, 1)
        assert a == derive_trial_seed(1, 10.0, 30, 0, 1)
        others = {
            derive_trial_seed(1, 10.0, 30, 0, 2),
            derive_trial_seed(1, 10.0, 30, 1, 1),
            derive_trial_seed(1, 12.0, 30, 0, 1),
            derive_trial_seed(1, 10.0, 31, 0, 1),
            derive_trial_seed(2, 10.0, 30, 0, 1),
        }
        assert a not in others and len(others) == 5

    def test_frozen_reference_value(self):
        # Pins the stream so stored sweeps stay reproducible across edits.
        assert derive_trial_seed(0, 3.0, 10, 0, 1) == 1402755758075369253

    @settings(max_examples=200, deadline=None)
    @given(base_seed=st.integers(0, 2**64 - 1),
           snr_db=st.one_of(st.sampled_from([math.inf, -0.0, 0.0]),
                            st.floats(allow_nan=False, allow_infinity=False)),
           n=st.integers(1, 2**40), trial=st.integers(0, 2**40))
    def test_instance_seeds_are_the_derived_ones(self, base_seed, snr_db, n, trial):
        # make_instance folds a trial's prefix once for its three streams;
        # each seed must still be derive_trial_seed's, and the benchmark's
        # own re-implementation of the fold must agree with both.
        seeds = {}

        def recorder(stream, value):
            def record(*args, seed):
                seeds[stream] = seed
                return value
            return record

        channel = SparseChannel(taps=np.zeros(4, dtype=np.complex128), support=())
        cfg = ExperimentConfig(L=4, T=1, base_seed=base_seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "generate_sparse_channel", recorder(1, channel))
            patch.setattr(experiments, "build_toeplitz_training", recorder(2, None))
            patch.setattr(experiments, "observe", recorder(3, None))
            make_instance(cfg, snr_db, n, trial)
        assert seeds == {stream: derive_trial_seed(base_seed, snr_db, n, trial, stream)
                         for stream in (1, 2, 3)}
        assert seeds == {stream: BENCH_CHECKS.trial_seed(base_seed, snr_db, n, trial, stream)
                         for stream in (1, 2, 3)}


class TestRunTrial:
    def test_repeat_call_is_bit_identical(self):
        a = run_trial(SMALL, 20.0, 12, 0)
        b = run_trial(SMALL, 20.0, 12, 0)
        assert a == b

    def test_noiseless_oracle_error_vanishes(self):
        record = run_trial(SMALL, float("inf"), 12, 1)
        assert record["oracle"].mse <= 1e-20

    def test_trial_index_validated(self):
        with pytest.raises(ValueError):
            run_trial(SMALL, 20.0, 12, 6)
        # A negative index must not wrap to the trial 2**64 - 1.
        with pytest.raises(ValueError, match="trial_index -1 out of range"):
            run_trial(SMALL, 20.0, 12, -1)
        with pytest.raises(ValueError, match="trial_index -1 out of range"):
            experiments._run_trials(SMALL, 20.0, 12, [0, -1])

    def test_failed_method_does_not_sink_others(self):
        # Genie-aided OMP takes T = 10 atoms, more than min(N, L) = 8 allows,
        # so it raises for every trial.
        bad = ExperimentConfig(
            L=24, T=10, trials=2, methods=("ls", "omp"), snr_grid_db=(10.0,),
            n_grid=(8,), fixed_n=8, base_seed=0,
        )
        record = run_trial(bad, 10.0, 8, 0)
        assert record["omp"].failed
        assert record["omp"].error == "EstimationError: OMP atom budget 10 exceeds min(N, L)=8"
        assert not record["ls"].failed and math.isfinite(record["ls"].mse)

    @pytest.mark.parametrize("distribution, programs", [("complex_gaussian", 2), ("gaussian", 4)])
    def test_sds_reuses_the_ds_solve(self, monkeypatch, distribution, programs):
        # A standalone sds solves the ds programs again: 3 and 6 programs.
        # The sds of the trial reuses every ds base and makes no empty call.
        cfg = ExperimentConfig(L=16, T=2, trials=2, methods=("ds", "sds"), fixed_n=8,
                               base_seed=5, distribution=distribution)
        counts = []
        solve_selectors = estimators.solve_selectors
        monkeypatch.setattr(estimators, "solve_selectors",
                            lambda batch: counts.append(len(batch)) or solve_selectors(batch))
        record = run_trial(cfg, 15.0, 8, 1)
        assert sum(counts) == programs
        assert 0 not in counts
        channel, X, obs = make_instance(cfg, 15.0, 8, 1)
        assert record["sds"].mse == mse(channel, run_estimator("sds", X, obs, cfg.estimator))


def selector_config(distribution, methods=("ds", "sds")) -> ExperimentConfig:
    return ExperimentConfig(L=16, T=2, trials=6, methods=methods, snr_grid_db=(15.0,),
                            fixed_n=8, base_seed=9, distribution=distribution)


class TestSelectorBatches:
    """Sweeps solve the selector programs of a chunk of trials together; a
    trial's cells must not depend on that."""

    @pytest.mark.parametrize("distribution", ["gaussian", "complex_gaussian", "rademacher"])
    def test_sweep_cell_equals_instance_alone(self, distribution):
        # Every method runs once per chunk (of 8 trials and then of 3 here);
        # each cell is the bits of its instance estimated alone.
        cfg = replace(selector_config(distribution, methods=ALL_METHODS), trials=11)
        result = sweep_snr(cfg)
        for trial in range(cfg.trials):
            channel, X, obs = make_instance(cfg, 15.0, cfg.fixed_n, trial)
            for method in cfg.methods:
                cell = result.trials[(15.0, method)][trial]
                assert not cell.failed
                alone = run_estimator(method, X, obs, cfg.estimator, true_support=channel.support,
                                      true_sparsity=channel.sparsity)
                assert cell.mse == mse(channel, alone)

    def test_failure_stays_in_its_trial(self, monkeypatch):
        cfg = selector_config("gaussian", methods=("ls", "ds"))
        reference = sweep_snr(cfg).trials
        _channel, X, obs = make_instance(cfg, 15.0, cfg.fixed_n, 3)
        target = X.matrix.real.T @ obs.y.real  # d of trial 3's real-part program
        solve_selectors = estimators.solve_selectors

        def failing(programs):
            solutions = solve_selectors(programs)
            return [replace(sol, status="infeasible") if np.array_equal(d, target) else sol
                    for (_B, d, _lam), sol in zip(programs, solutions)]

        monkeypatch.setattr(estimators, "solve_selectors", failing)
        trials = sweep_snr(cfg).trials
        for t in range(cfg.trials):
            assert trials[(15.0, "ls")][t] == reference[(15.0, "ls")][t]
            cell = trials[(15.0, "ds")][t]
            if t == 3:
                assert cell.failed and cell.error.startswith("SelectorLpError: ")
            else:
                assert cell == reference[(15.0, "ds")][t]

    def test_programming_error_propagates(self, monkeypatch):
        def broken(programs):
            raise TypeError("broken selector")

        monkeypatch.setattr(estimators, "solve_selectors", broken)
        with pytest.raises(TypeError, match="broken selector"):
            sweep_snr(selector_config("gaussian"))


class TestSweeps:
    def test_grid_integrity(self):
        result = sweep_snr(SMALL)
        assert result.points == (5.0, 20.0)
        assert set(result.cells) == {(p, m) for p in result.points for m in SMALL.methods}
        for agg in result.cells.values():
            assert agg.trials_used + agg.failed == SMALL.trials

    def test_single_trial_mean_equals_median(self):
        cfg = ExperimentConfig(L=16, T=2, trials=1, methods=("oracle",),
                               snr_grid_db=(10.0,), n_grid=(8,), fixed_n=8, base_seed=7)
        result = sweep_snr(cfg)
        agg = result.cells[(10.0, "oracle")]
        assert agg.mean_mse == agg.median_mse

    def test_mean_is_compensated_sum_of_trials(self):
        result = sweep_snr(SMALL)
        for key, agg in result.cells.items():
            values = [c.mse for c in result.trials[key] if not c.failed]
            assert agg.mean_mse == math.fsum(values) / len(values)

    def test_oracle_floor_small_batch(self):
        cfg = ExperimentConfig(L=24, T=2, trials=40, methods=("ls", "ds", "oracle"),
                               snr_grid_db=(10.0,), n_grid=(12,), fixed_n=12, base_seed=3)
        result = sweep_snr(cfg)
        oracle = result.cells[(10.0, "oracle")].mean_mse
        for m in ("ls", "ds"):
            assert oracle <= result.cells[(10.0, m)].mean_mse

    def test_snr_improves_every_method(self):
        cfg = ExperimentConfig(L=24, T=2, trials=30, methods=("ls", "omp", "ds", "oracle"),
                               snr_grid_db=(3.0, 30.0), n_grid=(12,), fixed_n=12, base_seed=11)
        result = sweep_snr(cfg)
        for m in cfg.methods:
            assert result.cells[(30.0, m)].mean_mse < result.cells[(3.0, m)].mean_mse

    def test_training_length_sweep_points(self):
        cfg = ExperimentConfig(L=24, T=2, trials=3, methods=("oracle",),
                               snr_grid_db=(10.0,), n_grid=(6, 12, 18), fixed_snr_db=15.0,
                               base_seed=5)
        result = sweep_training_length(cfg)
        assert result.axis == "n_training"
        assert result.points == (6, 12, 18)

    def test_default_grids_match_documented_ranges(self):
        cfg = ExperimentConfig()
        assert cfg.snr_grid_db == tuple(float(s) for s in range(3, 31, 3))
        assert cfg.n_grid == tuple(range(10, 56, 5))
        assert len(cfg.snr_grid_db) == 10 and len(cfg.n_grid) == 10

    def test_invalid_grids_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_grid=(10, 5))
        with pytest.raises(ValueError):
            ExperimentConfig(snr_grid_db=())
        with pytest.raises(ValueError):
            ExperimentConfig(n_grid=(0, 5))
        with pytest.raises(ValueError):
            ExperimentConfig(methods=("ls", "mp"))
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)

    def test_numpy_integers_accepted_as_ints(self):
        cfg = ExperimentConfig(n_grid=np.arange(10, 56, 5), trials=np.int64(3),
                               base_seed=np.uint64(7))
        assert cfg.n_grid == tuple(range(10, 56, 5))
        assert all(type(v) is int for v in (*cfg.n_grid, cfg.trials, cfg.base_seed))


class TestReproducibility:
    def test_serial_and_concurrent_csv_identical(self, tmp_path):
        serial = sweep_snr(SMALL)
        concurrent = sweep_snr(
            ExperimentConfig(**{**_as_kwargs(SMALL), "workers": 4})
        )
        p1, p2 = tmp_path / "serial.csv", tmp_path / "concurrent.csv"
        write_sweep_csv(serial, p1)
        write_sweep_csv(concurrent, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rerun_with_same_seed_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(sweep_training_length(SMALL), p1)
        write_sweep_csv(sweep_training_length(SMALL), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_header(self, tmp_path):
        path = tmp_path / "result.csv"
        write_sweep_csv(sweep_snr(SMALL), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "axis,axis_value,method,mean_mse,median_mse,std_mse,trials,non_converged"
        assert len(lines) == 1 + len(SMALL.snr_grid_db) * len(SMALL.methods)


def _as_kwargs(cfg: ExperimentConfig) -> dict:
    return {
        "L": cfg.L, "T": cfg.T, "trials": cfg.trials, "methods": cfg.methods,
        "snr_grid_db": cfg.snr_grid_db, "n_grid": cfg.n_grid,
        "fixed_snr_db": cfg.fixed_snr_db, "fixed_n": cfg.fixed_n,
        "base_seed": cfg.base_seed, "distribution": cfg.distribution,
        "estimator": cfg.estimator,
    }
