"""Acceptance suite.

Each test prints one `criterion N: PASS/FAIL` line (through pytest's
capture) and enforces its gates at the stated tolerances. The heavyweight
Monte Carlo sweeps are computed once per module in fixtures and shared by
the criteria that read them.
"""

import math
import time

import numpy as np
import pytest
from conftest import (
    composite_correlation_excess,
    composite_l1,
    enumerate_lp_vertices,
    random_bounded_lp,
    selector_objective_bruteforce,
)

from sparsechan.estimators import EstimatorConfig, run_estimator
from sparsechan.experiments import ExperimentConfig, sweep_snr, sweep_training_length, write_sweep_csv
from sparsechan.lp import solve_lp
from sparsechan.model import (
    build_toeplitz_training,
    fixed_channel_figure_demo,
    generate_sparse_channel,
    observe,
    restricted_isometry_constant,
)

METHODS = ("ls", "omp", "lasso", "ds", "oracle")


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line, flush=True)

    return _announce


def check(announce, name, ok, detail):
    announce(f"{name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{name} failed: {detail}"


@pytest.fixture(scope="module")
def sweep_snr_10_20():
    cfg = ExperimentConfig(
        L=60, T=4, trials=200, methods=METHODS,
        snr_grid_db=(10.0, 20.0), fixed_n=30, base_seed=101,
    )
    start = time.monotonic()
    result = sweep_snr(cfg)
    return result, time.monotonic() - start


@pytest.fixture(scope="module")
def sweep_snr_full_grid():
    cfg = ExperimentConfig(
        L=60, T=4, trials=200, methods=METHODS, fixed_n=30, base_seed=202,
    )
    return sweep_snr(cfg)


@pytest.fixture(scope="module")
def sweep_training_grid():
    cfg = ExperimentConfig(
        L=60, T=4, trials=200, methods=METHODS, fixed_snr_db=20.0, base_seed=303,
    )
    return sweep_training_length(cfg)


def test_criterion_1_selector_feasibility_and_optimality(announce):
    # 100 small seeded instances; objective checked against exhaustive
    # support enumeration, constraint checked componentwise.
    start = time.monotonic()
    specs = []
    for i in range(60):
        L = 5 + (i % 4)
        specs.append(("noiseless", L, max(3, L - 2), 1 + (i % 2), 100 + i))
    for i in range(40):
        specs.append(("noisy", 5, 3, 1, 500 + i))

    worst_gap = 0.0
    worst_excess = -math.inf
    for kind, L, N, T, seed in specs:
        channel = generate_sparse_channel(L, T, seed=seed)
        X = build_toeplitz_training(N, L, "gaussian", seed=seed + 10_000)
        if kind == "noiseless":
            obs = observe(X, channel, float("inf"), seed=seed + 20_000)
            cfg = EstimatorConfig(lambda_ds=0.0)
        else:
            obs = observe(X, channel, 15.0, seed=seed + 20_000)
            cfg = EstimatorConfig()
        est = run_estimator("ds", X, obs, cfg)
        lam = est.diagnostics["lambda"]
        worst_excess = max(
            worst_excess,
            composite_correlation_excess(X.matrix, X.matrix, obs.y, est.h_hat, lam),
        )
        reference = selector_objective_bruteforce(X.matrix, obs.y, lam)
        worst_gap = max(worst_gap, abs(composite_l1(est.h_hat) - reference))
    elapsed = time.monotonic() - start

    ok = worst_excess <= 1e-6 and worst_gap <= 1e-6 and elapsed < 60.0
    check(
        announce, "criterion 1", ok,
        f"100 instances: max constraint excess {worst_excess:.2e} (<=1e-6), "
        f"max objective gap vs enumeration {worst_gap:.2e} (<=1e-6), {elapsed:.1f}s (<60s)",
    )


def test_criterion_2_lp_matches_vertex_enumeration(announce):
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst_obj = 0.0
    worst_kkt = 0.0
    for _ in range(50):
        lp = random_bounded_lp(rng)
        sol = solve_lp(lp)
        ref_val, _ = enumerate_lp_vertices(lp.c, lp.A, lp.b)
        assert sol.status == "optimal"
        worst_obj = max(worst_obj, abs(sol.objective_value - ref_val))
        worst_kkt = max(worst_kkt, sol.kkt_report.max_residual())
    elapsed = time.monotonic() - start
    ok = worst_obj <= 1e-7 and worst_kkt <= 1e-8 and elapsed < 10.0
    check(
        announce, "criterion 2", ok,
        f"50 LPs: max objective error {worst_obj:.2e} (<=1e-7), "
        f"max KKT residual {worst_kkt:.2e} (<=1e-8), {elapsed:.1f}s (<10s)",
    )


def test_criterion_3_oracle_floor(announce, sweep_snr_10_20):
    result, elapsed = sweep_snr_10_20
    gaps = []
    ok = elapsed < 300.0
    for snr in (10.0, 20.0):
        oracle = result.cells[(snr, "oracle")].mean_mse
        for m in METHODS:
            if m == "oracle":
                continue
            other = result.cells[(snr, m)].mean_mse
            gaps.append(f"{m}@{snr:g}dB={other / oracle:.1f}x")
            ok = ok and oracle <= other
    check(
        announce, "criterion 3", ok,
        f"mean MSE(oracle) <= every method at 10/20 dB, M=200 "
        f"({', '.join(gaps)}); sweep took {elapsed:.0f}s (<300s)",
    )


def test_criterion_4_estimator_ordering(announce, sweep_snr_10_20):
    result, _ = sweep_snr_10_20
    cells = {m: result.cells[(20.0, m)] for m in METHODS}
    ds_lt_ls = cells["ds"].mean_mse < cells["ls"].mean_mse
    lasso_lt_ls = cells["lasso"].mean_mse < cells["ls"].mean_mse
    ratio = cells["ds"].median_mse / cells["lasso"].median_mse
    ok = ds_lt_ls and lasso_lt_ls and ratio <= 1.1
    check(
        announce, "criterion 4", ok,
        f"20 dB, M=200: mean ds {cells['ds'].mean_mse:.4f} < ls {cells['ls'].mean_mse:.4f}; "
        f"mean lasso {cells['lasso'].mean_mse:.4f} < ls; "
        f"median ds/lasso = {ratio:.3f} (<=1.1)",
    )


def test_criterion_5_snr_monotonicity(announce, sweep_snr_full_grid):
    result = sweep_snr_full_grid
    grid = result.points
    assert grid == tuple(float(s) for s in range(3, 31, 3))
    assert len(result.cells) == 10 * len(METHODS)
    endpoints_ok = all(
        result.cells[(30.0, m)].mean_mse < result.cells[(3.0, m)].mean_mse for m in METHODS
    )
    ds_means = [result.cells[(snr, "ds")].mean_mse for snr in grid]
    decreasing_steps = sum(b < a for a, b in zip(ds_means, ds_means[1:]))
    ok = endpoints_ok and decreasing_steps >= 8
    check(
        announce, "criterion 5", ok,
        f"3..30 dB, M=200: every method improves endpoint-to-endpoint "
        f"({endpoints_ok}); ds decreases on {decreasing_steps}/9 steps (>=8)",
    )


def test_criterion_6_training_length_trend(announce, sweep_training_grid):
    result = sweep_training_grid
    ds10 = result.cells[(10, "ds")].mean_mse
    ds55 = result.cells[(55, "ds")].mean_mse
    ls10 = result.cells[(10, "ls")].mean_mse
    ls55 = result.cells[(55, "ls")].mean_mse
    ds_factor = ds10 / ds55
    ls_factor = ls10 / ls55
    ok = ds55 < ds10 / 10.0 and ls_factor < ds_factor and ds55 < ls55
    check(
        announce, "criterion 6", ok,
        f"20 dB, M=200, n 10->55: ds improves {ds_factor:.0f}x (>10x), "
        f"ls improves {ls_factor:.1f}x (smaller), ds({ds55:.4f}) < ls({ls55:.4f}) at n=55",
    )


def test_criterion_7_demo_channel_reproduction(announce):
    hits = 0
    ls_dense_all = True
    placements = 100
    for seed in range(placements):
        channel = fixed_channel_figure_demo(seed=seed)
        X = build_toeplitz_training(30, 60, "gaussian", seed=7000 + seed)
        obs = observe(X, channel, 10.0, seed=9000 + seed)
        est_ds = run_estimator("ds", X, obs, EstimatorConfig())
        largest_four = set(int(i) for i in np.argsort(np.abs(channel.taps))[-4:])
        hits += largest_four <= set(est_ds.support_hat)
        est_ls = run_estimator("ls", X, obs, EstimatorConfig())
        ls_dense_all = ls_dense_all and np.mean(np.abs(est_ls.h_hat) > 1e-6) >= 0.9
    ok = hits >= 90 and ls_dense_all
    check(
        announce, "criterion 7", ok,
        f"fixed five-tap demo, 100 placements: selector support kept the 4 "
        f"largest taps {hits}/100 (>=90); LS dense in every trial ({ls_dense_all})",
    )


def test_criterion_8_isometry_constant_brute_force(announce):
    worst = 0.0
    for seed in (0, 1, 2):
        X = build_toeplitz_training(8, 12, "gaussian", seed=seed)
        est = restricted_isometry_constant(X, 2)
        assert est.exact and est.supports_checked == 66
        rng = np.random.default_rng(1000 + seed)
        for support, lo, hi in est.per_support_extremes:
            cols = X.matrix[:, list(support)]
            gram = (cols.T @ cols).real
            directions = rng.standard_normal((100_000, 2))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            quotients = np.einsum("ij,jk,ik->i", directions, gram, directions)
            worst = max(worst, abs(quotients.min() - lo), abs(hi - quotients.max()))

    monotone = True
    for seed in range(20):
        X = build_toeplitz_training(8, 12, "gaussian", seed=100 + seed)
        d1, d2, d3 = (restricted_isometry_constant(X, t).delta for t in (1, 2, 3))
        monotone = monotone and d1 <= d2 <= d3

    ok = worst <= 1e-6 and monotone
    check(
        announce, "criterion 8", ok,
        f"random-direction quotient oracle agrees per support to {worst:.2e} "
        f"(<=1e-6); delta_1<=delta_2<=delta_3 on 20 matrices ({monotone})",
    )


def test_criterion_9_noiseless_exact_recovery(announce):
    trials = 200
    hits = 0
    cfg = EstimatorConfig(lambda_ds=0.0)
    for seed in range(trials):
        channel = generate_sparse_channel(60, 4, seed=4000 + seed)
        X = build_toeplitz_training(30, 60, "gaussian", seed=5000 + seed)
        obs = observe(X, channel, float("inf"), seed=6000 + seed)
        est = run_estimator("ds", X, obs, cfg)
        rel = np.linalg.norm(est.h_hat - channel.taps) / np.linalg.norm(channel.taps)
        hits += rel <= 1e-6
    ok = hits / trials >= 0.95
    check(
        announce, "criterion 9", ok,
        f"noiseless selector with zero level: relative error <=1e-6 in "
        f"{hits}/{trials} trials (>=95%)",
    )


def test_criterion_10_reproducibility(announce, tmp_path):
    cfg = ExperimentConfig(
        L=30, T=3, trials=5, methods=("ls", "ds", "oracle"),
        snr_grid_db=(10.0, 20.0), fixed_n=15, base_seed=55,
    )
    cfg_concurrent = ExperimentConfig(
        L=30, T=3, trials=5, methods=("ls", "ds", "oracle"),
        snr_grid_db=(10.0, 20.0), fixed_n=15, base_seed=55, workers=4,
    )
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    write_sweep_csv(sweep_snr(cfg), paths[0])
    write_sweep_csv(sweep_snr(cfg), paths[1])
    write_sweep_csv(sweep_snr(cfg_concurrent), paths[2])
    blobs = [p.read_bytes() for p in paths]
    ok = blobs[0] == blobs[1] == blobs[2]
    check(
        announce, "criterion 10", ok,
        "same base seed gives byte-identical result CSVs across reruns and "
        "serial vs concurrent execution",
    )


def test_informational_reweighted_selector_comparison(announce):
    # Observational only (no gate): how the reweighted selector compares to
    # the plain one at 20 dB, L=60, T=4, over 200 trials.
    values = {"ds": [], "sds": []}
    cfg = EstimatorConfig()
    for seed in range(200):
        channel = generate_sparse_channel(60, 4, seed=8000 + seed)
        X = build_toeplitz_training(30, 60, "gaussian", seed=8500 + seed)
        obs = observe(X, channel, 20.0, seed=8800 + seed)
        est_ds = run_estimator("ds", X, obs, cfg)
        est_sds = run_estimator("sds", X, obs, cfg)
        values["ds"].append(float(np.linalg.norm(est_ds.h_hat - channel.taps) ** 2))
        values["sds"].append(float(np.linalg.norm(est_sds.h_hat - channel.taps) ** 2))
    med_ds = float(np.median(values["ds"]))
    med_sds = float(np.median(values["sds"]))
    announce(
        f"informational — reweighted selector at 20 dB over 200 trials: "
        f"median {med_sds:.4f} vs plain {med_ds:.4f} "
        f"({'<=' if med_sds <= med_ds else '>'} plain; recorded, not gated)"
    )
    assert math.isfinite(med_ds) and math.isfinite(med_sds)
