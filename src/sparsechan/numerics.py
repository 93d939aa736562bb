"""Dense complex linear algebra helpers shared by the rest of the package.

Everything here operates on plain numpy arrays (complex128 or float64) and
validates inputs up front: no NaN/Inf entries, explicit dimension checks.
Storage is dense throughout; channel lengths in this project stay in the
low hundreds, so there is no need for sparse machinery.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# A pivot counts as zero when it falls below this fraction of the largest one.
PIVOT_RTOL = 1e-12

# Maximum entrywise asymmetry |G - G^H| tolerated before an input is
# rejected as non-Hermitian.
HERMITIAN_ATOL = 1e-12


class DimensionMismatchError(ValueError):
    """Operand shapes do not conform."""


class SingularMatrixError(ValueError):
    """A factorization hit a pivot that is zero within tolerance."""

    def __init__(self, pivot_index: int, message: str | None = None):
        self.pivot_index = pivot_index
        super().__init__(message or f"matrix is singular within tolerance at pivot {pivot_index}")


class NotHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


def as_vector(v) -> np.ndarray:
    """Coerce to a finite 1-d complex vector, rejecting NaN/Inf."""
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector contains NaN or Inf entries")
    return arr


def as_matrix(M) -> np.ndarray:
    """Coerce to a finite 2-d complex matrix, rejecting NaN/Inf."""
    arr = np.asarray(M, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains NaN or Inf entries")
    return arr


def hermitian(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(M.T)


def least_squares_solve(M, b) -> np.ndarray:
    """Solve argmin_x ||Mx - b||_2 for a tall (rows >= cols) matrix M.

    Uses a QR factorization and rejects rank-deficient systems: any diagonal
    entry of R below PIVOT_RTOL times the largest one raises
    SingularMatrixError carrying the failing pivot index.
    """
    M = as_matrix(M)
    b = as_vector(b)
    rows, cols = M.shape
    if rows < cols:
        raise DimensionMismatchError(f"need rows >= cols, got {rows}x{cols}")
    if b.shape[0] != rows:
        raise DimensionMismatchError(
            f"matrix has {rows} rows but right-hand side has dimension {b.shape[0]}"
        )
    if cols == 0:
        return np.zeros(0, dtype=np.complex128)
    Q, R = np.linalg.qr(M, mode="reduced")
    pivots = np.abs(np.diag(R))
    largest = pivots.max()
    if largest == 0.0:
        raise SingularMatrixError(0)
    bad = np.flatnonzero(pivots < PIVOT_RTOL * largest)
    if bad.size:
        raise SingularMatrixError(int(bad[0]))
    return scipy.linalg.solve_triangular(R, hermitian(Q) @ b)


def hermitian_eig_extremes(G) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a Hermitian matrix.

    The input must be square and Hermitian to within HERMITIAN_ATOL on the
    maximum entrywise asymmetry; it is symmetrized before the eigenvalue
    computation so the result is exactly real.
    """
    G = as_matrix(G)
    if G.shape[0] != G.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got {G.shape}")
    asymmetry = np.abs(G - hermitian(G)).max() if G.size else 0.0
    if asymmetry > HERMITIAN_ATOL:
        raise NotHermitianError(f"max asymmetry {asymmetry:.3e} exceeds {HERMITIAN_ATOL:.0e}")
    w = np.linalg.eigvalsh(0.5 * (G + hermitian(G)))
    return float(w[0]), float(w[-1])
