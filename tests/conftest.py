"""Shared test helpers: tiny constructions and brute-force oracles.

The oracles here deliberately avoid the library's interior-point path so
they can vouch for it independently: selector programs are minimized by
exhaustive support enumeration with restricted solves, relying on the LP
fact that some optimal point has at most rank-many nonzeros and is pinned
by as many active constraint rows.
"""

import itertools
import os

# One BLAS thread unless the environment says otherwise: the suite's
# matrices are small, and BLAS threads only contend for the cores. OpenBLAS
# reads these when numpy first loads it, so they take effect as long as no
# pytest plugin imports numpy before this conftest.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from sparsechan.lp import LinearProgram  # noqa: E402
from sparsechan.model import ToeplitzTraining  # noqa: E402


def enumerate_lp_vertices(c, A, b, feas_tol=1e-9):
    """Exhaustive basic-solution search for min c.x, A x <= b, x >= 0.

    Stacks the non-negativity rows onto A, tries every n-subset of rows as
    an active set, and keeps feasible intersection points. Only valid as an
    oracle for feasible bounded problems.
    """
    m, n = A.shape
    G = np.vstack([A, -np.eye(n)])
    h = np.concatenate([b, np.zeros(n)])
    best_val = None
    best_x = None
    for rows in itertools.combinations(range(m + n), n):
        sub = G[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, h[list(rows)])
        if np.all(G @ x <= h + feas_tol):
            val = float(c @ x)
            if best_val is None or val < best_val:
                best_val, best_x = val, x
    return best_val, best_x


def random_bounded_lp(rng, rows=5, cols=4) -> LinearProgram:
    """Feasible bounded instance: `rows` Gaussian rows + a simplex cap over
    `cols` variables, rhs from a random interior point."""
    A_rand = rng.standard_normal((rows, cols))
    x0 = rng.uniform(0.2, 1.0, cols)
    b = np.concatenate([A_rand @ x0 + rng.uniform(0.1, 1.0, rows), [x0.sum() + 1.0]])
    A = np.vstack([A_rand, np.ones(cols)])
    c = rng.standard_normal(cols)
    return LinearProgram(c=c, A=A, b=b)


def read_taps_csv(path) -> np.ndarray:
    """Tap vector from a CSV of (index, real, imag) rows after a header."""
    index, real, imag = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True, ndmin=2)
    np.testing.assert_array_equal(index, np.arange(index.size))
    return real + 1j * imag


def identity_training(n: int) -> ToeplitzTraining:
    """Training object whose matrix is exactly the n x n identity."""
    probe = np.zeros(2 * n - 1)
    probe[n - 1] = 1.0
    rows = np.arange(n)[:, None]
    cols = np.arange(n)[None, :]
    return ToeplitzTraining(matrix=probe[rows - cols + n - 1])


def composite_l1(h: np.ndarray) -> float:
    """Sum of |Re| + |Im| over all entries."""
    return float(np.sum(np.abs(h.real)) + np.sum(np.abs(h.imag)))


def min_l1_interpolator_bruteforce(X: np.ndarray, y: np.ndarray, feas_tol: float = 1e-8):
    """Minimum L1 norm over real g with X g = y, by support enumeration.

    Requires X (N x L, N <= L) of full row rank; a basic optimal solution
    then has at most N nonzeros, so checking every support up to size N
    with a consistency-tested least-squares solve is exhaustive.
    """
    N, L = X.shape
    scale = max(1.0, float(np.linalg.norm(y)))
    best = None
    if np.linalg.norm(y, np.inf) <= feas_tol:
        best = 0.0
    for k in range(1, N + 1):
        for support in itertools.combinations(range(L), k):
            cols = X[:, list(support)]
            w, _res, rank, _sv = np.linalg.lstsq(cols, y, rcond=None)
            if rank < k:
                continue
            if np.linalg.norm(cols @ w - y, np.inf) <= feas_tol * scale:
                cand = float(np.abs(w).sum())
                if best is None or cand < best:
                    best = cand
    return best


def min_l1_corr_bound_bruteforce(B: np.ndarray, d: np.ndarray, lam: float, k_max: int,
                                 feas_tol: float = 1e-9):
    """Minimum L1 over real w with ||d - B w||_inf <= lam, by enumeration.

    Candidates are intersections of |support| active constraint rows (with
    either sign of the bound) with the support's coordinate subspace; a
    basic optimal solution of the underlying LP is among them when
    k_max >= rank(B).
    """
    n = B.shape[0]
    best = None
    if np.linalg.norm(d, np.inf) <= lam + feas_tol:
        best = 0.0
    for k in range(1, k_max + 1):
        for support in itertools.combinations(range(n), k):
            B_support = B[:, list(support)]
            for rows in itertools.combinations(range(n), k):
                sub = B_support[list(rows)]
                for signs in itertools.product((-1.0, 1.0), repeat=k):
                    rhs = d[list(rows)] - lam * np.asarray(signs)
                    try:
                        w = np.linalg.solve(sub, rhs)
                    except np.linalg.LinAlgError:
                        continue
                    if not np.all(np.isfinite(w)):
                        continue
                    if np.linalg.norm(d - B_support @ w, np.inf) <= lam + feas_tol:
                        cand = float(np.abs(w).sum())
                        if best is None or cand < best:
                            best = cand
    return best


def selector_objective_bruteforce(X: np.ndarray, y: np.ndarray, lam: float):
    """Brute-force composite-L1 selector optimum for a real training matrix.

    The composite program decouples over the real and imaginary parts of y;
    lam == 0 reduces the correlation bound to interpolation (full row rank).
    """
    assert not np.iscomplexobj(X) or not X.imag.any()
    A = X.real if np.iscomplexobj(X) else X
    if lam == 0.0:
        return (min_l1_interpolator_bruteforce(A, np.asarray(y).real)
                + min_l1_interpolator_bruteforce(A, np.asarray(y).imag))
    B = A.T @ A
    k_max = min(A.shape)
    return (min_l1_corr_bound_bruteforce(B, A.T @ np.asarray(y).real, lam, k_max)
            + min_l1_corr_bound_bruteforce(B, A.T @ np.asarray(y).imag, lam, k_max))


def composite_correlation_excess(sense_matrix, Xm, y, h_hat, lam) -> float:
    """How far the componentwise correlation bound is exceeded (<= 0 is
    feasible): max(|Re|, |Im|) of sense^H (y - X h_hat), minus lam."""
    corr = np.conj(np.asarray(sense_matrix).T) @ (y - Xm @ h_hat)
    return float(max(np.abs(corr.real).max(), np.abs(corr.imag).max()) - lam)
