"""Unit tests for the dense complex linear algebra helpers."""

import numpy as np
import pytest

from sparsechan.numerics import (
    DimensionMismatchError,
    NotHermitianError,
    SingularMatrixError,
    hermitian_eig_extremes,
    least_squares_solve,
)


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
        with pytest.raises(DimensionMismatchError):
            least_squares_solve(np.ones((2, 3)), np.ones(2))


class TestHermitianEigExtremes:
    def test_identity(self):
        assert hermitian_eig_extremes(np.eye(4)) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_diagonal(self):
        lo, hi = hermitian_eig_extremes(np.diag([0.25, 2.0]))
        assert lo == pytest.approx(0.25)
        assert hi == pytest.approx(2.0)

    def test_two_by_two_characteristic_roots(self):
        lo, hi = hermitian_eig_extremes(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert lo == pytest.approx(1.0, rel=1e-9)
        assert hi == pytest.approx(3.0, rel=1e-9)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            hermitian_eig_extremes(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_brackets_rayleigh_quotients(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        G = np.conj(A.T) @ A
        lo, hi = hermitian_eig_extremes(G)
        for _ in range(100):
            u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            u /= np.linalg.norm(u)
            q = np.real(np.vdot(u, G @ u))
            assert lo - 1e-9 <= q <= hi + 1e-9
