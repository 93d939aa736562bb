"""Tests for the channel estimators."""

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    composite_correlation_excess,
    composite_l1,
    identity_training,
    selector_objective_bruteforce,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsechan import estimators
from sparsechan.estimators import (
    ALL_METHODS,
    EstimationError,
    EstimatorConfig,
    SingularMatrixError,
    least_squares_solve,
    resolve_lambda,
    run_estimator,
    sds_weighting,
)
from sparsechan.experiments import ExperimentConfig
from sparsechan.experiments import make_instance as make_trial_instance
from sparsechan.model import (
    Observation,
    SparseChannel,
    ToeplitzTraining,
    build_toeplitz_training,
    fixed_channel_figure_demo,
    generate_sparse_channel,
    observe,
)


def make_instance(L=60, T=4, N=30, snr_db=20.0, seed=0, distribution="gaussian"):
    channel = generate_sparse_channel(L, T, seed=seed)
    X = build_toeplitz_training(N, L, distribution, seed=seed + 10_000)
    obs = observe(X, channel, snr_db, seed=seed + 20_000)
    return channel, X, obs


def full_support_channel(taps) -> SparseChannel:
    taps = np.asarray(taps, dtype=np.complex128)
    support = tuple(int(i) for i in np.flatnonzero(taps))
    return SparseChannel(taps=taps, support=support)


def lasso_kkt_residual(Xm, y, h, lam):
    """Largest violation of the complex subgradient conditions of the Lasso:
    x_j^H r = lam * h_j / |h_j| where h_j != 0, |x_j^H r| <= lam elsewhere."""
    c = Xm.conj().T @ (y - Xm @ h)
    nz = h != 0
    on = np.abs(c[nz] - lam * h[nz] / np.abs(h[nz]))
    off = np.maximum(np.abs(c[~nz]) - lam, 0.0)
    return float(np.concatenate([on, off]).max(initial=0.0))


def plain_cd_lasso(Xm, y, lam, tol=1e-11):
    """Reference Lasso: cyclic coordinate descent over every tap until the
    subgradient residual is at most tol * lam."""
    G = Xm.conj().T @ Xm
    c = Xm.conj().T @ y
    d = G.diagonal().real
    h = np.zeros(Xm.shape[1], dtype=np.complex128)
    while lasso_kkt_residual(Xm, y, h, lam) > tol * lam:
        for j in range(h.size):
            rho = c[j] - G[j] @ h + d[j] * h[j]
            h[j] = (1.0 - lam / abs(rho)) * rho / d[j] if abs(rho) > lam else 0.0
    return h


class TestResolveLambda:
    def test_zero_sigma(self):
        X = build_toeplitz_training(8, 12, "gaussian", seed=0)
        assert resolve_lambda(0.0, X.matrix, "auto") == 0.0

    def test_unit_columns_reference_value(self):
        X = identity_training(60)
        assert resolve_lambda(0.1, X.matrix, "auto") == pytest.approx(0.286158, abs=1e-5)

    def test_small_channel_reference_value(self):
        X = identity_training(7)
        assert resolve_lambda(1.0, X.matrix, "auto") == pytest.approx(math.sqrt(2 * math.log(7)))
        assert resolve_lambda(1.0, X.matrix, "auto") == pytest.approx(1.97277, abs=1e-4)

    def test_fixed_value_passthrough(self):
        X = identity_training(4)
        assert resolve_lambda(3.0, X, 0.75) == 0.75

    def test_negative_fixed_rejected(self):
        X = identity_training(4)
        with pytest.raises(ValueError):
            resolve_lambda(1.0, X, -0.5)


class TestLeastSquares:
    def test_identity_system(self):
        x = least_squares_solve(np.eye(2), np.array([3.0, 4.0j]))
        np.testing.assert_allclose(x, [3.0, 4.0j], atol=1e-14)

    def test_mean_of_symmetric_residuals(self):
        x = least_squares_solve(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
        np.testing.assert_allclose(x, [2.0], atol=1e-14)

    def test_recovers_known_solution(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        x0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = least_squares_solve(M, M @ x0)
        assert np.linalg.norm(x - x0) <= 1e-10 * np.linalg.norm(x0)

    def test_normal_equation_residual_small(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            M = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
            b = rng.standard_normal(10) + 1j * rng.standard_normal(10)
            x = least_squares_solve(M, b)
            Mh = np.conj(M.T)
            resid = np.linalg.norm(Mh @ (M @ x - b), np.inf)
            assert resid <= 1e-8 * np.linalg.norm(Mh @ b, np.inf)

    def test_rank_deficient_names_pivot(self):
        M = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError) as err:
            least_squares_solve(M, np.ones(3))
        assert err.value.pivot_index == 1

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            least_squares_solve(np.ones((2, 3)), np.ones(2))

    def test_non_finite_rejected_by_name(self):
        with pytest.raises(ValueError, match="contains NaN or Inf entries"):
            least_squares_solve(np.eye(2), np.array([1.0, np.nan]))


class TestLeastSquaresEstimator:
    def test_identity(self):
        X = identity_training(2)
        obs = Observation(y=np.array([1.0, 2.0j]), noise_variance=0.0)
        est = run_estimator("ls", X, obs, EstimatorConfig())
        np.testing.assert_allclose(est.h_hat, [1.0, 2.0j], atol=1e-12)

    def test_min_norm_splits_equally(self):
        X = ToeplitzTraining(matrix=np.array([[1.0, 1.0]]))
        obs = Observation(y=np.array([2.0 + 0j]), noise_variance=0.0)
        est = run_estimator("ls", X, obs, EstimatorConfig())
        np.testing.assert_allclose(est.h_hat, [1.0, 1.0], atol=1e-10)

    def test_underdetermined_output_is_dense(self):
        _, X, obs = make_instance(snr_db=10.0, seed=3)
        est = run_estimator("ls", X, obs, EstimatorConfig())
        assert np.mean(np.abs(est.h_hat) > 1e-6) >= 0.9

    def test_fits_observation_in_range(self):
        _, X, obs = make_instance(seed=4)
        est = run_estimator("ls", X, obs, EstimatorConfig())
        np.testing.assert_allclose(X.matrix @ est.h_hat, obs.y, atol=1e-8)

    def test_duplicate_columns_fall_back_to_ridge(self):
        # A constant probe repeats one column: QR rejects the tall system,
        # and the ridge solution still fits y by its projection, mean(y).
        X = ToeplitzTraining(matrix=np.ones((6, 3)))
        y = np.arange(6.0) + 1j
        est = run_estimator("ls", X, Observation(y=y, noise_variance=0.0), EstimatorConfig())
        assert est.diagnostics["regularized"]
        assert np.all(np.isfinite(est.h_hat))
        np.testing.assert_allclose(X.matrix @ est.h_hat, np.full(6, y.mean()), rtol=1e-8)


class TestOmp:
    def test_orthonormal_single_atom(self):
        X = identity_training(6)
        y = np.zeros(6, dtype=complex)
        y[3] = 2.0 - 1.0j
        obs = Observation(y=y, noise_variance=0.0)
        est = run_estimator("omp", X, obs, EstimatorConfig(), true_sparsity=3)
        assert est.diagnostics["atoms"] == [3]
        np.testing.assert_allclose(est.h_hat, y, atol=1e-12)

    def test_zero_observation(self):
        X = identity_training(4)
        obs = Observation(y=np.zeros(4, dtype=complex), noise_variance=0.0)
        est = run_estimator("omp", X, obs, EstimatorConfig(), true_sparsity=2)
        assert est.diagnostics["atoms"] == []
        np.testing.assert_array_equal(est.h_hat, 0)

    def test_noiseless_support_recovery_rate(self):
        hits = 0
        trials = 200
        for seed in range(trials):
            channel, X, obs = make_instance(snr_db=np.inf, seed=seed)
            est = run_estimator("omp", X, obs, EstimatorConfig(), true_sparsity=4)
            hits += set(est.diagnostics["atoms"]) == set(channel.support)
        assert hits / trials >= 0.9

    def test_atom_budget_validated(self):
        _, X, obs = make_instance(seed=5)
        with pytest.raises(ValueError):
            run_estimator("omp", X, obs, EstimatorConfig(), true_sparsity=31)


class TestLasso:
    def test_full_shrinkage_gives_zero(self):
        _, X, obs = make_instance(seed=6)
        lam = float(np.abs(X.matrix.conj().T @ obs.y).max()) * 1.01
        est = run_estimator("lasso", X, obs, EstimatorConfig(lambda_lasso=lam))
        np.testing.assert_array_equal(est.h_hat, 0)
        assert est.support_hat == ()

    def test_identity_small_lambda_approaches_data(self):
        X = identity_training(5)
        rng = np.random.default_rng(7)
        y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        obs = Observation(y=y, noise_variance=0.0)
        est = run_estimator("lasso", X, obs, EstimatorConfig(lambda_lasso=1e-10))
        np.testing.assert_allclose(est.h_hat, y, atol=1e-8)

    def test_single_column_closed_form(self):
        X = build_toeplitz_training(8, 1, "gaussian", seed=8)
        rng = np.random.default_rng(9)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        obs = Observation(y=y, noise_variance=0.0)
        lam = 0.3
        est = run_estimator("lasso", X, obs, EstimatorConfig(lambda_lasso=lam))
        col = X.matrix[:, 0]
        rho = np.vdot(col, y)
        expected = max(0.0, 1.0 - lam / abs(rho)) * rho / np.vdot(col, col).real
        assert abs(est.h_hat[0] - expected) <= 1e-8

    def test_subgradient_conditions(self):
        channel, X, obs = make_instance(seed=10)
        est = run_estimator("lasso", X, obs, EstimatorConfig())
        lam = est.diagnostics["lambda"]
        corr = X.matrix.conj().T @ (obs.y - X.matrix @ est.h_hat)
        for j in range(X.L):
            if abs(est.h_hat[j]) > 1e-10:
                phase = est.h_hat[j] / abs(est.h_hat[j])
                assert abs(corr[j] - lam * phase) <= 1e-6
            else:
                assert abs(corr[j]) <= lam + 1e-6

    def test_reports_convergence(self):
        _, X, obs = make_instance(seed=11)
        est = run_estimator("lasso", X, obs, EstimatorConfig())
        assert est.diagnostics["converged"]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**31), st.sampled_from(["gaussian", "rademacher", "complex_gaussian"]),
           st.integers(4, 40), st.sampled_from([0.5, 1.0, 1.5]), st.floats(0.0, 30.0),
           st.one_of(st.just("auto"), st.floats(0.02, 0.9)))
    def test_kkt_certificate(self, seed, distribution, L, aspect, snr_db, level):
        # Wide (N < L), square and tall training; a fixed level is drawn as
        # a fraction of max |X^H y|, the level at which h = 0.
        N = max(2, round(aspect * L))
        _, X, obs = make_instance(L=L, T=min(3, L), N=N, snr_db=snr_db, seed=seed,
                                  distribution=distribution)
        if level != "auto":
            level *= float(np.abs(X.matrix.conj().T @ obs.y).max())
        est = run_estimator("lasso", X, obs, EstimatorConfig(lambda_lasso=level))
        lam = est.diagnostics["lambda"]
        residual = lasso_kkt_residual(X.matrix, obs.y, est.h_hat, lam)
        assert est.diagnostics["converged"]
        assert residual <= 1e-6 * lam
        assert abs(est.diagnostics["kkt_residual"] - residual) <= 1e-10 * lam

    def test_converged_exactly_when_certified(self, monkeypatch):
        # Rademacher training at n=10 (seed 4, 20 dB); trials 12 to 15 need
        # 34, 42, 32 and 54 passes, so a cap of 40 cuts two of them short.
        monkeypatch.setattr(estimators, "LASSO_MAX_SWEEPS", 40)
        cfg = ExperimentConfig(base_seed=4, distribution="rademacher")
        outcomes = []
        for trial in range(12, 16):
            _channel, X, obs = make_trial_instance(cfg, 20.0, 10, trial)
            est = run_estimator("lasso", X, obs, EstimatorConfig())
            lam = est.diagnostics["lambda"]
            residual = lasso_kkt_residual(X.matrix, obs.y, est.h_hat, lam)
            assert est.diagnostics["converged"] == (residual <= 1e-7 * lam)
            assert abs(est.diagnostics["kkt_residual"] - residual) <= 1e-10 * lam
            outcomes.append(est.diagnostics["converged"])
        assert outcomes == [True, False, True, False]

    @pytest.mark.parametrize("seed, trial", [(4, 15), (6, 55)])
    def test_non_unique_minimisers_certified(self, seed, trial):
        # Two +-1 calls (n=10, 20 dB) whose minimisers are not unique: their
        # Newton steps take taps across zero. They once ran all 10,000
        # passes and ended uncertified; cutting each step at the first
        # crossing lets them settle.
        cfg = ExperimentConfig(base_seed=seed, distribution="rademacher")
        _channel, X, obs = make_trial_instance(cfg, 20.0, 10, trial)
        est = run_estimator("lasso", X, obs, EstimatorConfig())
        lam = est.diagnostics["lambda"]
        assert est.diagnostics["converged"]
        assert lasso_kkt_residual(X.matrix, obs.y, est.h_hat, lam) <= 1e-7 * lam
        assert est.diagnostics["sweeps"] <= 200

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**31), st.sampled_from(["gaussian", "complex_gaussian"]),
           st.integers(4, 16), st.sampled_from([0.5, 1.0, 1.5]), st.floats(0.0, 30.0),
           st.floats(0.02, 0.9))
    def test_unique_minimiser_properties(self, seed, distribution, L, aspect, snr_db, level):
        # Continuous training puts the columns in general position, so the
        # minimiser is unique almost surely (Tibshirani, EJS 2013). It is
        # certified, and scaling y and lambda by alpha scales it by alpha, up
        # to the absolute LASSO_CONVERGENCE_TOL at which passes stop.
        N = max(2, round(aspect * L))
        _, X, obs = make_instance(L=L, T=min(3, L), N=N, snr_db=snr_db, seed=seed,
                                  distribution=distribution)
        lam = level * float(np.abs(X.matrix.conj().T @ obs.y).max())
        est = run_estimator("lasso", X, obs, EstimatorConfig(lambda_lasso=lam))
        assert est.diagnostics["converged"]
        assert lasso_kkt_residual(X.matrix, obs.y, est.h_hat, lam) <= 1e-7 * lam
        for alpha in (1e-3, 1e3):
            scaled = run_estimator("lasso", X, replace(obs, y=alpha * obs.y),
                                   EstimatorConfig(lambda_lasso=alpha * lam))
            assert scaled.diagnostics["converged"]
            assert (np.linalg.norm(scaled.h_hat - alpha * est.h_hat)
                    <= 1e-5 * np.linalg.norm(alpha * est.h_hat))

    def test_few_passes_at_small_n(self):
        # On these near-singular Gram matrices (L=60, n=10, 20 dB), descent
        # that stops when a full sweep changes no tap by 1e-9 takes a median
        # of 169 passes; the Newton finish brings it under 60.
        sweeps = []
        for seed in range(16):
            _, X, obs = make_instance(N=10, seed=seed)
            est = run_estimator("lasso", X, obs, EstimatorConfig())
            reference = plain_cd_lasso(X.matrix, obs.y, est.diagnostics["lambda"])
            assert (np.linalg.norm(est.h_hat - reference)
                    <= 1e-7 * np.linalg.norm(reference))
            sweeps.append(est.diagnostics["sweeps"])
        assert np.median(sweeps) <= 60

    @pytest.mark.parametrize("distribution, n, sweeps, newton", [
        ("gaussian", 10, 38, True),
        ("rademacher", 30, 10, False),
        ("complex_gaussian", 55, 11, False),
    ])
    def test_pinned_sweeps(self, monkeypatch, distribution, n, sweeps, newton):
        # Pass counts of three sweep calls (seed 3, 20 dB, trial 0); the
        # Gaussian one at n=10 takes Newton steps. The updates write into
        # buffers of their own, never into the call's data.
        runs = []
        newton_steps = estimators._lasso_newton

        def newton_spy(*args):
            runs.append(newton_steps(*args))
            return runs[-1]

        monkeypatch.setattr(estimators, "_lasso_newton", newton_spy)
        cfg = ExperimentConfig(base_seed=3, distribution=distribution)
        _channel, X, obs = make_trial_instance(cfg, 20.0, n, 0)
        matrix, y = X.matrix.copy(), obs.y.copy()
        lam = float(resolve_lambda(math.sqrt(obs.noise_variance), X.matrix, "auto"))
        est = estimators._lasso_estimate(X.matrix, obs.y, lam)
        np.testing.assert_array_equal(X.matrix, matrix)
        np.testing.assert_array_equal(obs.y, y)
        assert est.diagnostics["sweeps"] == sweeps
        assert est.diagnostics["converged"]
        assert bool(runs) == newton

    def test_singular_newton_system(self, monkeypatch):
        # Columns 0 and 1 of X are equal and rounding leaves both taps
        # nonzero, so the Newton system on that support is exactly singular:
        # dgesv reports info > 0, the Newton run ends after its first step
        # and the passes resume to a certified stop.
        rng = np.random.default_rng(235)
        Xm = rng.standard_normal((12, 6)) + 0.9 * rng.standard_normal((12, 1))
        Xm[:, 1] = Xm[:, 0]
        y = (Xm @ rng.standard_normal(6)).astype(np.complex128)
        lam = 0.05 * float(np.abs(Xm.T @ y).max())
        infos, runs = [], []
        dgesv, newton = estimators.dgesv, estimators._lasso_newton

        def dgesv_spy(*args, **kwargs):
            out = dgesv(*args, **kwargs)
            infos.append(out[3])
            return out

        def newton_spy(G, c, h, support, lam, budget):
            runs.append((list(support), newton(G, c, h, support, lam, budget)))
            return runs[-1][1]

        monkeypatch.setattr(estimators, "dgesv", dgesv_spy)
        monkeypatch.setattr(estimators, "_lasso_newton", newton_spy)
        est = run_estimator("lasso", ToeplitzTraining(matrix=Xm),
                            Observation(y=y, noise_variance=0.0), EstimatorConfig(lambda_lasso=lam))
        assert runs[0][0][:2] == [0, 1]
        assert infos[0] > 0 and runs[0][1] == (1, False)
        assert est.diagnostics["converged"]
        assert lasso_kkt_residual(Xm, y, est.h_hat, lam) <= 1e-7 * lam
        # The singular step leaves the taps where the passes put them.
        G = Xm.T @ Xm
        h = [1.0 + 0j, 0.5 + 0j, 0j, 0j, 0j, 0j]
        assert newton(G, Xm.T @ y, h, [0, 1], lam, 10) == (1, False)
        assert h == [1.0 + 0j, 0.5 + 0j, 0j, 0j, 0j, 0j]

    def test_newton_step_cut_at_first_crossing(self):
        # Orthonormal columns, c = (1, 0.05) and lambda = 0.1: the minimiser
        # is (0.9, 0). From (0.5, 0.3) the whole Newton step, (0.4, -0.35),
        # takes tap 1 across zero; it is cut at t = 0.3 / 0.35, where tap 1
        # reaches 0 and leaves the support, and Newton finishes on tap 0.
        G, c = np.eye(2, dtype=np.complex128), np.array([1.0, 0.05 + 0j])
        h = [0.5 + 0j, 0.3 + 0j]
        assert estimators._lasso_newton(G, c, h, [0, 1], 0.1, 1) == (1, False)
        assert h[1] == 0 and abs(h[0] - (0.5 + 0.4 * 0.3 / 0.35)) <= 1e-15
        h = [0.5 + 0j, 0.3 + 0j]
        assert estimators._lasso_newton(G, c, h, [0, 1], 0.1, 10) == (3, True)
        assert h[1] == 0 and abs(h[0] - 0.9) <= 1e-15

    def test_newton_rearms_on_a_steady_support(self, monkeypatch):
        # With Newton runs that take one step and change nothing, a call
        # (seed 3, n=10, 20 dB, trial 0) tries Newton again after every
        # LASSO_NEWTON_PASSES passes on a support that does not change.
        runs = []

        def idle_newton(G, c, h, support, lam, budget):
            runs.append((list(support), estimators.LASSO_MAX_SWEEPS - budget))
            return 1, False

        monkeypatch.setattr(estimators, "_lasso_newton", idle_newton)
        cfg = ExperimentConfig(base_seed=3, distribution="gaussian")
        _channel, X, obs = make_trial_instance(cfg, 20.0, 10, 0)
        assert run_estimator("lasso", X, obs, EstimatorConfig()).diagnostics["converged"]
        repeats = [b - a for (s, a), (t, b) in zip(runs, runs[1:]) if s == t]
        assert len(repeats) >= 5
        assert repeats == [estimators.LASSO_NEWTON_PASSES + 1] * len(repeats)

    def test_sweep_cap(self, monkeypatch):
        monkeypatch.setattr(estimators, "LASSO_MAX_SWEEPS", 1)
        _, X, obs = make_instance(seed=11)
        est = run_estimator("lasso", X, obs, EstimatorConfig())
        assert est.diagnostics["sweeps"] == 1
        assert not est.diagnostics["converged"]

    def test_zero_column_stays_zero(self):
        # A probe whose first N entries vanish zeroes the last column.
        N, L = 12, 20
        rng = np.random.default_rng(27)
        probe = rng.standard_normal(N + L - 1)
        probe[:N] = 0.0
        X = ToeplitzTraining(matrix=probe[np.arange(N)[:, None] - np.arange(L)[None, :] + L - 1])
        assert not X.matrix[:, L - 1].any() and X.matrix[:, L - 2].any()
        y = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        lam = 0.05 * float(np.abs(X.matrix.conj().T @ y).max())
        est = run_estimator("lasso", X, Observation(y=y, noise_variance=0.0),
                            EstimatorConfig(lambda_lasso=lam))
        assert est.h_hat[L - 1] == 0
        assert est.diagnostics["converged"]
        assert lasso_kkt_residual(X.matrix, y, est.h_hat, lam) <= 1e-6 * lam


class TestDantzigSelector:
    def test_full_shrinkage_gives_zero(self):
        _, X, obs = make_instance(seed=12)
        lam = float(np.abs(X.matrix.conj().T @ obs.y).max()) * 1.01
        est = run_estimator("ds", X, obs, EstimatorConfig(lambda_ds=lam))
        assert np.abs(est.h_hat).max() <= 1e-6
        assert est.support_hat == ()

    def test_identity_noiseless_lambda_zero(self):
        X = identity_training(5)
        rng = np.random.default_rng(13)
        y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        obs = Observation(y=y, noise_variance=0.0)
        est = run_estimator("ds", X, obs, EstimatorConfig(lambda_ds=0.0))
        np.testing.assert_allclose(est.h_hat, y, atol=1e-7)

    def test_constraint_feasible_and_matches_bruteforce(self):
        # Tiny noiseless instance: exhaustive support enumeration is exact.
        channel, X, obs = make_instance(L=6, T=1, N=4, snr_db=np.inf, seed=14)
        est = run_estimator("ds", X, obs, EstimatorConfig(lambda_ds=0.0))
        assert composite_correlation_excess(X.matrix, X.matrix, obs.y, est.h_hat, 0.0) <= 1e-6
        reference = selector_objective_bruteforce(X.matrix, obs.y, 0.0)
        assert composite_l1(est.h_hat) == pytest.approx(reference, abs=1e-6)

    def test_noisy_matches_bruteforce(self):
        channel, X, obs = make_instance(L=5, T=1, N=3, snr_db=15.0, seed=15)
        est = run_estimator("ds", X, obs, EstimatorConfig())
        lam = est.diagnostics["lambda"]
        assert composite_correlation_excess(X.matrix, X.matrix, obs.y, est.h_hat, lam) <= 1e-6
        reference = selector_objective_bruteforce(X.matrix, obs.y, lam)
        assert composite_l1(est.h_hat) == pytest.approx(reference, abs=1e-6)

    def test_demo_channel_keeps_four_largest_taps(self):
        channel = fixed_channel_figure_demo(seed=16)
        X = build_toeplitz_training(30, 60, "gaussian", seed=17)
        obs = observe(X, channel, 10.0, seed=18)
        est = run_estimator("ds", X, obs, EstimatorConfig())
        largest_four = set(np.argsort(np.abs(channel.taps))[-4:])
        assert largest_four <= set(est.support_hat)

    def test_complex_training_matrix_round_trip(self):
        channel, X, obs = make_instance(L=12, T=2, N=8, snr_db=np.inf, seed=19,
                                        distribution="complex_gaussian")
        est = run_estimator("ds", X, obs, EstimatorConfig(lambda_ds=0.0))
        assert not est.diagnostics["decoupled"]
        assert np.linalg.norm(est.h_hat - channel.taps) <= 1e-5 * np.linalg.norm(channel.taps)

    def test_noiseless_exact_recovery_rate_above_budget(self):
        # Training length comfortably above the sparsity budget.
        hits = 0
        trials = 50
        for seed in range(trials):
            channel, X, obs = make_instance(N=44, snr_db=np.inf, seed=700 + seed)
            est = run_estimator("ds", X, obs, EstimatorConfig(lambda_ds=0.0))
            rel = np.linalg.norm(est.h_hat - channel.taps) / np.linalg.norm(channel.taps)
            hits += rel <= 1e-6
        assert hits / trials >= 0.95

    # The overflowing products then give inf - inf in a later sum.
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
    def test_bad_instance_fails_alone(self):
        # Instances whose programs are solved in one call keep their own
        # failures: a program that overflows fails only its own estimate.
        _, X, obs = make_instance(seed=31)
        bad = replace(X, matrix=1e160 * X.matrix)
        with pytest.warns(RuntimeWarning, match="overflow"):
            outcomes = estimators.run_estimators(("ds", "sds"), [(bad, obs), (X, obs)],
                                                 EstimatorConfig())
        for method in ("ds", "sds"):
            failed, good = (outcome[method] for outcome in outcomes)
            assert type(failed) is EstimationError
            assert str(failed) == "selector program contains NaN or Inf entries"
            alone = run_estimator(method, X, obs, EstimatorConfig())
            np.testing.assert_array_equal(good.h_hat, alone.h_hat)

    def test_deterministic(self):
        _, X, obs = make_instance(seed=20)
        a = run_estimator("ds", X, obs, EstimatorConfig())
        b = run_estimator("ds", X, obs, EstimatorConfig())
        np.testing.assert_array_equal(a.h_hat, b.h_hat)
        assert a.support_hat == b.support_hat


class TestSensingSelector:
    def test_zero_observation_degenerates_to_plain_selector(self):
        X = build_toeplitz_training(8, 12, "gaussian", seed=21)
        obs = Observation(y=np.zeros(8, dtype=complex), noise_variance=0.01)
        est = run_estimator("sds", X, obs, EstimatorConfig())
        assert est.diagnostics["degenerate_weighting"]
        np.testing.assert_array_equal(est.h_hat,
                                      run_estimator("ds", X, obs, EstimatorConfig()).h_hat)

    def test_unit_weights_reduce_to_plain_gram(self):
        X = build_toeplitz_training(6, 9, "gaussian", seed=22)
        X_alt, regularized = sds_weighting(X.matrix, np.ones(9))
        R = X.matrix @ X.matrix.conj().T
        scale = np.real(np.einsum("ij,ij->j", np.conj(X.matrix), np.linalg.solve(R, X.matrix)))
        np.testing.assert_allclose(X_alt, np.linalg.solve(R, X.matrix) / scale, atol=1e-10)
        assert not regularized

    def test_zero_weights_fall_back_to_ridge(self):
        # Zero weights make R = X W^2 X^H the zero matrix.
        X = build_toeplitz_training(6, 9, "gaussian", seed=22)
        X_alt, regularized = sds_weighting(X.matrix, np.zeros(9))
        assert regularized
        assert np.all(np.isfinite(X_alt))

    def test_negative_weights_rejected(self):
        X = build_toeplitz_training(6, 9, "gaussian", seed=23)
        with pytest.raises(ValueError):
            sds_weighting(X.matrix, -np.ones(9))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        X = build_toeplitz_training(6, 9, "gaussian", seed=23)
        with pytest.raises(ValueError, match="weights or training matrix contain NaN or Inf"):
            sds_weighting(X.matrix, np.where(np.arange(9) == 4, bad, 1.0))

    def test_reweighted_constraint_feasible(self):
        channel, X, obs = make_instance(seed=24)
        est = run_estimator("sds", X, obs, EstimatorConfig())
        assert not est.diagnostics["degenerate_weighting"]
        X_alt, _ = sds_weighting(X.matrix, est.diagnostics["weights"])
        lam = est.diagnostics["lambda"]
        excess = composite_correlation_excess(X_alt, X.matrix, obs.y, est.h_hat, lam)
        assert excess <= 1e-6

    def test_one_ds_pass_per_call(self, monkeypatch):
        # ds runs once per call, and its outcomes serve ds and sds alike,
        # in either order or when sds runs alone.
        instances = [make_instance(seed=50 + s, distribution="complex_gaussian")[1:]
                     for s in range(3)]
        calls, ds_estimates = [], estimators.ds_estimates

        def counted(*args):
            calls.append(args)
            return ds_estimates(*args)

        monkeypatch.setattr(estimators, "ds_estimates", counted)
        taps = {}
        for methods in (("ds", "sds"), ("sds", "ds"), ("sds",)):
            calls.clear()
            outcomes = estimators.run_estimators(methods, instances, EstimatorConfig())
            assert len(calls) == 1, methods
            for method in methods:
                h = np.array([outcome[method].h_hat for outcome in outcomes])
                np.testing.assert_array_equal(h, taps.setdefault(method, h))


class TestConjugationSymmetry:
    """With real training, the selectors commute with conjugating y."""

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**31), st.sampled_from(["gaussian", "rademacher"]),
           st.floats(0.0, 30.0))
    def test_real_training(self, seed, distribution, snr_db):
        _, X, obs = make_instance(snr_db=snr_db, seed=seed, distribution=distribution)
        conj_obs = replace(obs, y=np.conj(obs.y))
        for method in ("ds", "sds"):
            h = run_estimator(method, X, obs, EstimatorConfig()).h_hat
            h_conj = run_estimator(method, X, conj_obs, EstimatorConfig()).h_hat
            assert np.linalg.norm(h_conj - np.conj(h)) <= 1e-7 * np.linalg.norm(h)


class TestOracle:
    def test_full_support_equals_least_squares(self):
        channel, X, obs = make_instance(L=8, T=2, N=8, snr_db=12.0, seed=25)
        est_oracle = run_estimator("oracle", X, obs, EstimatorConfig(), true_support=range(8))
        est_ls = run_estimator("ls", X, obs, EstimatorConfig())
        np.testing.assert_allclose(est_oracle.h_hat, est_ls.h_hat, atol=1e-9)

    def test_noiseless_is_exact(self):
        channel, X, obs = make_instance(snr_db=np.inf, seed=26)
        est = run_estimator("oracle", X, obs, EstimatorConfig(), true_support=channel.support)
        np.testing.assert_allclose(est.h_hat, channel.taps, atol=1e-10)

    def test_empirical_mse_matches_error_covariance(self):
        trials = 1000
        total_mse = 0.0
        total_pred = 0.0
        for seed in range(trials):
            channel, X, obs = make_instance(snr_db=10.0, seed=2000 + seed)
            est = run_estimator("oracle", X, obs, EstimatorConfig(), true_support=channel.support)
            total_mse += float(np.linalg.norm(est.h_hat - channel.taps) ** 2)
            cols = X.matrix[:, list(channel.support)]
            gram = cols.conj().T @ cols
            total_pred += obs.noise_variance * float(
                np.trace(np.linalg.inv(gram)).real
            )
        assert total_mse / trials == pytest.approx(total_pred / trials, rel=0.1)

    def test_oversized_support_rejected(self):
        channel, X, obs = make_instance(L=12, T=2, N=4, seed=27)
        with pytest.raises(ValueError):
            run_estimator("oracle", X, obs, EstimatorConfig(), true_support=range(5))


def finite_only(factorization):
    """`factorization`, failing the test when it is handed non-finite data."""
    def guarded(M, *args, **kwargs):
        assert np.all(np.isfinite(M)), "non-finite data reached a factorization"
        return factorization(M, *args, **kwargs)
    return guarded


class TestStackedBaselines:
    """`run_estimators` stacks a call's instances once, and `ls_estimates`,
    `omp_estimates` and `oracle_estimates` solve the stack; each instance
    keeps its own outcome, and its estimate has the bits of its solo run."""

    def instances(self, count=4, **kwargs):
        return [make_instance(seed=40 + s, **kwargs) for s in range(count)]

    def outcomes(self, method, instances, true_sparsities=None):
        """Each instance's outcome of `method` in one `run_estimators` call,
        given the instances' true supports."""
        results = estimators.run_estimators(
            [method], [(X, obs) for _channel, X, obs in instances], EstimatorConfig(),
            [channel.support for channel, _X, _obs in instances], true_sparsities)
        return [result[method] for result in results]

    def assert_alone(self, outcomes, instances, method, bad=None, **options):
        """Each outcome but the `bad` one equals `run_estimator(method, ...)`
        on its instance alone, given the instance's true support."""
        for i, (outcome, (channel, X, obs)) in enumerate(zip(outcomes, instances)):
            if i == bad:
                continue
            alone = run_estimator(method, X, obs, EstimatorConfig(),
                                  true_support=channel.support, **options)
            np.testing.assert_array_equal(outcome.h_hat, alone.h_hat)
            np.testing.assert_equal(outcome.diagnostics, alone.diagnostics)

    @pytest.mark.parametrize("field", ["y", "matrix"])
    def test_non_finite_data_fails_alone_at_the_boundary(self, monkeypatch, field):
        instances = self.instances(N=30)
        channel, X, obs = instances[1]
        if field == "y":
            instances[1] = (channel, X, replace(obs, y=np.where(np.arange(X.N) == 3, np.nan, obs.y)))
        else:
            instances[1] = (channel, replace(X, matrix=np.where(X.matrix == X.matrix[0, 0],
                                                                np.inf, X.matrix)), obs)
        monkeypatch.setattr(np.linalg, "qr", finite_only(np.linalg.qr))
        monkeypatch.setattr(estimators, "_solve_psd", finite_only(estimators._solve_psd))
        message = "training matrix or observation contains NaN or Inf entries"
        for method in ALL_METHODS:
            outcomes = self.outcomes(method, instances, [4] * 4)
            assert type(outcomes[1]) is EstimationError and str(outcomes[1]) == message
            self.assert_alone(outcomes, instances, method, bad=1, true_sparsity=4)

    def test_rank_deficient_oracle_support_fails_alone(self):
        instances = self.instances()
        channel, X, obs = instances[2]
        # Equal columns: the second support column adds no rank.
        instances[2] = (channel, replace(X, matrix=np.ones_like(X.matrix)), obs)
        outcomes = self.outcomes("oracle", instances)
        failed = outcomes[2]
        assert type(failed) is SingularMatrixError and failed.pivot_index == 1
        assert isinstance(failed, EstimationError)
        assert str(failed) == "matrix is singular within tolerance at pivot 1"
        self.assert_alone(outcomes, instances, "oracle", bad=2)

    def test_omp_budget_above_limit_fails_alone(self):
        instances = self.instances(N=30)
        outcomes = self.outcomes("omp", instances, [4, 31, None, 2])
        failed = outcomes[1]
        assert type(failed) is EstimationError
        assert str(failed) == "OMP atom budget 31 exceeds min(N, L)=30"
        budgets = {0: 4, 2: None, 3: 2}
        for i in budgets:
            _channel, X, obs = instances[i]
            alone = run_estimator("omp", X, obs, EstimatorConfig(), true_sparsity=budgets[i])
            np.testing.assert_array_equal(outcomes[i].h_hat, alone.h_hat)
            assert outcomes[i].diagnostics == alone.diagnostics

    @pytest.mark.parametrize("budget", [-1, 2.5, True, np.True_, 3.0],
                             ids=["-1", "2.5", "True", "np.True_", "3.0"])
    def test_omp_budget_not_a_count_fails_alone(self, budget):
        # A budget must be an integer in [0, min(N, L)]; a negative one used
        # to give an all-zero estimate, 2.5 three atoms and True one.
        instances = self.instances(L=16, T=2, N=8)
        outcomes = self.outcomes("omp", instances, [2, budget, None, 0])
        failed = outcomes[1]
        assert type(failed) is EstimationError
        assert str(failed) == f"OMP atom budget must be an integer >= 0, got {budget!r}"
        with pytest.raises(EstimationError, match="must be an integer >= 0"):
            run_estimator("omp", *instances[1][1:], EstimatorConfig(), true_sparsity=budget)
        assert outcomes[3].diagnostics["atoms"] == [] and not outcomes[3].h_hat.any()
        budgets = {0: 2, 2: None, 3: np.int64(0)}
        for i in budgets:
            _channel, X, obs = instances[i]
            alone = run_estimator("omp", X, obs, EstimatorConfig(), true_sparsity=budgets[i])
            np.testing.assert_array_equal(outcomes[i].h_hat, alone.h_hat)
            assert outcomes[i].diagnostics == alone.diagnostics

    # The overflowing products then give inf - inf in a later sum.
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
    @pytest.mark.parametrize("method, N", [("ls", 30), ("ls", 80), ("lasso", 30)])
    def test_overflowing_gram_product_fails_alone(self, method, N):
        # Scaled by 1e160 the training is finite but its Gram products are
        # not. Gaussian columns at N=80 still fit by QR, so equal columns
        # send that instance to the ridge on X^H X.
        instances = self.instances(count=2, N=N)
        channel, X, obs = instances[1]
        matrix = np.ones_like(X.matrix) if N >= X.L else X.matrix
        instances[1] = (channel, replace(X, matrix=1e160 * matrix), obs)
        with pytest.warns(RuntimeWarning, match="overflow"):
            outcomes = self.outcomes(method, instances)
        failed = outcomes[1]
        assert type(failed) is EstimationError
        assert str(failed) == "Gram product or correlation of the training matrix is not finite"
        self.assert_alone(outcomes, instances, method, bad=1)

    @pytest.mark.parametrize("N", [30, 80])
    def test_ls_ridge_stays_with_its_instance(self, N):
        # Equal columns (N >= L) or equal rows (N < L) make the system
        # singular; only that instance falls back to the ridge. At 1e6 the
        # ridge is lost to rounding, and only that instance fails.
        instances = self.instances(N=N)
        for i, scale in ((0, 1.0), (2, 1e6)):
            channel, X, obs = instances[i]
            instances[i] = (channel, replace(X, matrix=np.full_like(X.matrix, scale)), obs)
        outcomes = self.outcomes("ls", instances)
        failed = outcomes[2]
        assert type(failed) is EstimationError and str(failed) == "Singular matrix"
        assert isinstance(failed.__cause__, np.linalg.LinAlgError)
        assert [outcomes[i].diagnostics["regularized"] for i in (0, 1, 3)] == [True, False, False]
        self.assert_alone(outcomes, instances, "ls", bad=2)

    @pytest.mark.parametrize("variance", [np.nan, np.inf, -1.0])
    def test_bad_noise_variance_fails_alone_at_the_boundary(self, variance):
        instances = self.instances(N=30)
        channel, X, obs = instances[1]
        instances[1] = (channel, X, replace(obs, noise_variance=variance))

        def run(rows):
            return estimators.run_estimators(
                ALL_METHODS, [instances[i][1:] for i in rows], EstimatorConfig(),
                [instances[i][0].support for i in rows], [instances[i][0].sparsity for i in rows])

        outcomes, without = run(range(4)), run([0, 2, 3])
        message = f"noise variance must be finite and >= 0, got {variance!r}"
        for method in ALL_METHODS:
            failed = outcomes[1][method]
            assert type(failed) is EstimationError and str(failed) == message
            for outcome, alone in zip([outcomes[i] for i in (0, 2, 3)], without):
                np.testing.assert_array_equal(outcome[method].h_hat, alone[method].h_hat)


class TestDispatch:
    def test_unknown_method_rejected(self):
        channel, X, obs = make_instance(seed=28)
        with pytest.raises(ValueError):
            run_estimator("mp", X, obs, EstimatorConfig())

    def test_oracle_requires_support(self):
        channel, X, obs = make_instance(seed=29)
        with pytest.raises(ValueError):
            run_estimator("oracle", X, obs, EstimatorConfig())

    STACK_FUNCTIONS = ("ls_estimates", "omp_estimates", "lasso_estimates", "ds_estimates",
                       "sds_estimates", "oracle_estimates")

    def forbid_methods(self, monkeypatch):
        """Make every stack function, and np.stack, fail the test if called."""
        def never(*args, **kwargs):
            raise AssertionError("a method ran or a stack was built")

        for name in self.STACK_FUNCTIONS:
            monkeypatch.setattr(estimators, name, never)
        monkeypatch.setattr(np, "stack", never)

    @pytest.mark.parametrize("methods, supports, message, kinds", [
        (("ds", "mp"), [(0,)], "unknown estimator 'mp'", [{}]),
        (("ds", "oracle"), None, "oracle estimator needs the true support", [{}]),
        (ALL_METHODS, [(0,)] * 2, "instances differ in shape or dtype", [{}, {"N": 20}]),
        (ALL_METHODS, [(0,)] * 2, "instances differ in shape or dtype",
         [{}, {"distribution": "complex_gaussian"}]),
    ])
    def test_rejected_before_any_method_runs(self, monkeypatch, methods, supports, message,
                                             kinds):
        instances = [make_instance(seed=28, **kind)[1:] for kind in kinds]
        self.forbid_methods(monkeypatch)
        with pytest.raises(ValueError, match=message) as err:
            estimators.run_estimators(methods, instances, EstimatorConfig(), supports)
        assert type(err.value) is ValueError  # not an EstimationError, so never a failed cell

    @pytest.mark.parametrize("count", [0, 2])
    def test_nothing_to_stack_runs_no_method(self, monkeypatch, count):
        # Every instance fails the screen, or there is none.
        _channel, X, obs = make_instance(seed=28)
        instances = [(X, replace(obs, y=np.full_like(obs.y, np.inf)))] * count
        self.forbid_methods(monkeypatch)
        results = estimators.run_estimators(ALL_METHODS, instances, EstimatorConfig(),
                                            [(0,)] * count, [1] * count)
        assert len(results) == count
        for result in results:
            assert list(result) == list(ALL_METHODS)
            for outcome in result.values():
                assert type(outcome) is EstimationError
                assert str(outcome) == "training matrix or observation contains NaN or Inf entries"

    def test_genie_atom_budget(self):
        channel, X, obs = make_instance(seed=30)
        est = run_estimator("omp", X, obs, EstimatorConfig(),
                            true_support=channel.support, true_sparsity=channel.sparsity)
        assert len(est.diagnostics["atoms"]) <= channel.sparsity


class TestConfigValidation:
    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            EstimatorConfig(lambda_ds=-1.0)
