"""Tests for channel/training/observation generation and the isometry
constant evaluator."""

import math

import numpy as np
import pytest
from conftest import identity_training, read_taps_csv

from sparsechan.model import (
    DEMO_TAP_VALUES,
    SparseChannel,
    ToeplitzTraining,
    build_toeplitz_training,
    fixed_channel_figure_demo,
    generate_sparse_channel,
    measurement_budget,
    observe,
    restricted_isometry_constant,
    save_taps_csv,
)


class TestSparseChannel:
    def test_exact_sparsity(self):
        ch = generate_sparse_channel(60, 4, seed=1)
        assert ch.length == 60 and ch.sparsity == 4
        assert np.count_nonzero(ch.taps) == 4
        assert np.count_nonzero(ch.taps == 0) == 56
        assert set(np.flatnonzero(ch.taps)) == set(ch.support)

    def test_single_tap(self):
        ch = generate_sparse_channel(1, 1, seed=3)
        assert ch.support == (0,)
        assert ch.taps[0] != 0

    def test_uniform_support_frequency(self):
        counts = np.zeros(60)
        draws = 10_000
        for seed in range(draws):
            counts[list(generate_sparse_channel(60, 4, seed=seed).support)] += 1
        freq = counts / draws
        assert np.all(np.abs(freq - 4 / 60) <= 0.01)

    def test_oversparse_rejected(self):
        with pytest.raises(ValueError):
            generate_sparse_channel(3, 4, seed=0)

    def test_deterministic(self):
        a = generate_sparse_channel(20, 3, seed=9)
        b = generate_sparse_channel(20, 3, seed=9)
        np.testing.assert_array_equal(a.taps, b.taps)
        assert a.support == b.support


class TestDemoChannel:
    def test_coefficient_multiset(self):
        ch = fixed_channel_figure_demo(seed=17)
        values = sorted(ch.taps[list(ch.support)], key=lambda v: (v.real, v.imag))
        expected = sorted(DEMO_TAP_VALUES, key=lambda v: (v.real, v.imag))
        np.testing.assert_array_equal(values, expected)

    def test_smallest_modulus_tap(self):
        ch = fixed_channel_figure_demo()
        mags = np.abs(ch.taps[list(ch.support)])
        assert mags.min() == pytest.approx(abs(-0.1 + 0.15j))
        assert mags.min() == pytest.approx(0.18027756377319946)

    def test_sparsity_five_on_length_sixty(self):
        ch = fixed_channel_figure_demo(seed=2)
        assert ch.length == 60
        assert np.count_nonzero(ch.taps) == 5

    def test_seed_moves_placement(self):
        assert fixed_channel_figure_demo(0).support != fixed_channel_figure_demo(1).support


class TestToeplitzTraining:
    def test_structure_two_by_two(self):
        X = build_toeplitz_training(2, 2, "gaussian", seed=4)
        a, b, c = np.random.default_rng(4).standard_normal(3) * (1 / math.sqrt(2))  # the probe
        assert len({a, b, c}) == 3
        np.testing.assert_array_equal(X.matrix, [[b, a], [c, b]])

    def test_constant_diagonals(self):
        X = build_toeplitz_training(30, 60, "gaussian", seed=5)
        m = X.matrix
        assert np.array_equal(m[:-1, :-1], m[1:, 1:])

    def test_expected_column_norm_is_one(self):
        total = 0.0
        draws = 1000
        for seed in range(draws):
            X = build_toeplitz_training(16, 8, "gaussian", seed=seed)
            total += float(np.mean(np.sum(X.matrix**2, axis=0)))
        assert total / draws == pytest.approx(1.0, abs=0.05)

    def test_rademacher_values(self):
        X = build_toeplitz_training(4, 3, "rademacher", seed=6)
        probe = np.concatenate([X.matrix[0, ::-1], X.matrix[1:, 0]])
        assert probe.size == 4 + 3 - 1
        np.testing.assert_allclose(np.abs(probe), 1 / math.sqrt(4))

    def test_complex_gaussian_option(self):
        X = build_toeplitz_training(8, 5, "complex_gaussian", seed=7)
        assert np.iscomplexobj(X.matrix)
        assert X.matrix.imag.any()

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError):
            build_toeplitz_training(4, 4, "uniform", seed=0)

    def test_deterministic(self):
        a = build_toeplitz_training(10, 20, "gaussian", seed=8)
        b = build_toeplitz_training(10, 20, "gaussian", seed=8)
        np.testing.assert_array_equal(a.matrix, b.matrix)


class TestObserve:
    def test_noiseless_limit(self):
        ch = generate_sparse_channel(12, 2, seed=1)
        X = build_toeplitz_training(8, 12, "gaussian", seed=2)
        obs = observe(X, ch, float("inf"), seed=3)
        np.testing.assert_array_equal(obs.y, X.matrix @ ch.taps)
        assert obs.noise_variance == 0.0

    def test_ten_db_with_unit_sample_power(self):
        # Identity training and unit-modulus taps give per-sample power 1.
        X = identity_training(2)
        taps = np.array([1.0 + 0.0j, 1.0j])
        ch = SparseChannel(taps=taps, support=(0, 1))
        obs = observe(X, ch, 10.0, seed=4)
        assert obs.noise_variance == pytest.approx(0.1)

    def test_empirical_noise_variance(self):
        ch = generate_sparse_channel(12, 2, seed=5)
        X = build_toeplitz_training(30, 12, "gaussian", seed=6)
        signal = X.matrix @ ch.taps
        sigma2 = float(np.linalg.norm(signal) ** 2) / (30 * 10.0)
        acc = 0.0
        trials = 1000
        for seed in range(trials):
            obs = observe(X, ch, 10.0, seed=seed)
            acc += float(np.linalg.norm(obs.y - signal) ** 2) / 30
        assert acc / trials == pytest.approx(sigma2, rel=0.05)

    def test_dimension_mismatch_rejected(self):
        ch = generate_sparse_channel(12, 2, seed=7)
        X = build_toeplitz_training(8, 10, "gaussian", seed=8)
        with pytest.raises(ValueError):
            observe(X, ch, 10.0, seed=9)

    def test_nan_and_minus_inf_snr_rejected(self):
        ch = generate_sparse_channel(12, 2, seed=7)
        X = build_toeplitz_training(8, 12, "gaussian", seed=8)
        for snr_db in (float("nan"), float("-inf")):
            with pytest.raises(ValueError, match="snr_db"):
                observe(X, ch, snr_db, seed=9)


class TestMeasurementBudget:
    def test_reference_case(self):
        assert measurement_budget(4, 60, 2.0) == 22

    def test_near_unit_case(self):
        assert measurement_budget(1, 3, 1.0) == 2

    def test_linear_in_c_before_ceiling(self):
        raw = lambda T, p, c: c * T * math.log(p / T)
        assert raw(4, 60, 4.0) == pytest.approx(2 * raw(4, 60, 2.0))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            measurement_budget(60, 60, 2.0)
        with pytest.raises(ValueError):
            measurement_budget(2, 60, 0.0)


class TestRestrictedIsometryConstant:
    def test_orthonormal_columns_give_zero(self):
        est = restricted_isometry_constant(identity_training(5), 2)
        assert est.delta == pytest.approx(0.0, abs=1e-12)
        assert not est.rip_violated
        assert est.exact

    def test_duplicate_columns_violate_rip(self):
        # A constant probe makes every column identical.
        probe = np.ones(5)
        rows = np.arange(3)[:, None]
        cols = np.arange(3)[None, :]
        X = ToeplitzTraining(matrix=probe[rows - cols + 2])
        est = restricted_isometry_constant(X, 2)
        assert est.delta >= 1.0
        assert est.rip_violated
        min_eigs = [lo for _, lo, _ in est.per_support_extremes]
        assert min(min_eigs) == pytest.approx(0.0, abs=1e-12)

    def test_sampled_mode_is_lower_bound(self):
        X = build_toeplitz_training(8, 12, "gaussian", seed=11)
        exact = restricted_isometry_constant(X, 2)
        sampled = restricted_isometry_constant(X, 2, max_supports=20, seed=1)
        assert not sampled.exact
        assert sampled.supports_checked == 20
        assert sampled.delta <= exact.delta + 1e-12

    def test_nonpositive_max_supports_rejected(self):
        X = build_toeplitz_training(8, 12, "gaussian", seed=11)
        with pytest.raises(ValueError, match="max_supports"):
            restricted_isometry_constant(X, 2, max_supports=0)

    def test_monotone_in_order(self):
        X = build_toeplitz_training(8, 12, "gaussian", seed=12)
        deltas = [restricted_isometry_constant(X, t).delta for t in (1, 2, 3)]
        assert deltas[0] <= deltas[1] <= deltas[2]


class TestCsvRoundTrip:
    def test_taps_round_trip(self, tmp_path):
        taps = generate_sparse_channel(15, 3, seed=13).taps
        path = tmp_path / "taps.csv"
        save_taps_csv(path, taps)
        np.testing.assert_array_equal(read_taps_csv(path), taps)
        header = path.read_text().splitlines()[0]
        assert header == "index,real,imag"
