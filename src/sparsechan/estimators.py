"""Channel estimators behind a uniform interface.

Implements least squares (works in both the overdetermined and the
minimum-norm underdetermined regime), orthogonal matching pursuit (stopped
at an atom budget or at the noise-level residual), Lasso by working-set
coordinate descent on the Gram matrix X^H X with complex soft-thresholding
(each coordinate update one BLAS zaxpy), a Newton finish on a stable
support (solved by LAPACK dgesv) and a stop that certifies the optimality
conditions, the Dantzig selector realized as a linear program
(solved at its optimal vertex by `lp.solve_selectors`' dual simplex, with
the interior-point method as fallback), its residual-reweighted "sensing"
variant, and the genie-aided oracle (least squares on the true support).
The two selectors are one routine, `_selector_estimates`, that bounds
S^H (y - X h) and differs only in the sensing matrix S: X for `ds`; for
`sds` the columns R^{-1} x_i / (x_i^H R^{-1} x_i), R = X W^2 X^H, where
W = diag|X^H r| and r is the residual that `ds` leaves.
Each returns an `Estimate`, the tap vector and a diagnostics dict; the
reported support is derived from the taps when read. The tall
least-squares solve shared by `ls`, `omp` and `oracle` is a complex QR
that rejects rank-deficient systems with SingularMatrixError; `ls` then
falls back to a small ridge, the other two fail the instance.

Complex data is handled in a real-composite convention for the Dantzig
selector: each complex coefficient contributes |Re| + |Im| to the L1
objective and the residual-correlation bound is enforced on real and
imaginary parts separately. That keeps the program an exact LP. For a
real-valued training matrix the composite program decouples into two
independent real programs (one for each part of the data), which is how it
is solved. Lasso uses the modulus-based L1 (shrink modulus, keep phase).

`run_estimators` is the one boundary of this layer, and `run_estimator` is
its batch of one. It takes instances of one shape, fails each instance
whose X, y or noise variance is not finite (or the variance negative)
before any method sees it, stacks the rest once, resolves sigma and each
level once for the stack and runs every method once through its stack
function, which takes arrays and returns per instance an `Estimate` or the
EstimationError it raised; an instance's estimate has the same bits in a
batch of any size.
EstimationError is the one type of an expected failure: non-finite data, a
Gram product or selector program that overflows on finite data, a singular
or rank-deficient system (SingularMatrixError), an OMP budget that is not
an integer in [0, min(N, L)], an oracle support that does not fit and a
failed selector LP (SelectorLpError). Any other exception is a programming
error and propagates. `ls_estimates`, `omp_estimates` and
`oracle_estimates` take the stacks into numpy's batched QR and solve (OMP
runs its rounds over the instances still going; the minimum-norm `ls` forms
its Gram matrices as one stack and factors them one at a time);
`ds_estimates`, which runs once per call, and `sds_estimates`, which starts
from its outcomes, hand the selector programs of all instances to one call,
which solves them one at a time. The selector diagnostics count the simplex
pivots as `lp_iterations` (IPM iterations for a program that fell back) and
the programs that fell back to the IPM as `lp_fallbacks`.
`lasso_estimates` loops: coordinate descent takes a data-dependent number
of passes, so a stack would wait for its slowest member.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.blas import zaxpy
from scipy.linalg.lapack import dgesv

from .lp import (
    STATUS_INFEASIBLE,
    STATUS_ITERATION_LIMIT,
    STATUS_UNBOUNDED,
    solve_lp,  # noqa: F401  (part of this module's surface: bench/tracing.py wraps it)
    solve_selectors,
)
from .model import Observation, ToeplitzTraining, l2_norm

METHOD_LS = "ls"
METHOD_OMP = "omp"
METHOD_LASSO = "lasso"
METHOD_DS = "ds"
METHOD_SDS = "sds"
METHOD_ORACLE = "oracle"
ALL_METHODS = (METHOD_LS, METHOD_OMP, METHOD_LASSO, METHOD_DS, METHOD_SDS, METHOD_ORACLE)

# Entries count as part of the reported support when their modulus exceeds
# this fraction of the largest one (with an absolute floor under it).
SUPPORT_RELATIVE_THRESHOLD = 1e-4
SUPPORT_ABSOLUTE_FLOOR = 1e-8

LASSO_CONVERGENCE_TOL = 1e-9
LASSO_KKT_TOL = 1e-7
LASSO_KKT_FLOOR = 1e-12
LASSO_NEWTON_PASSES = 25
LASSO_MAX_SWEEPS = 10_000

RIDGE_REGULARIZATION = 1e-10

# A QR pivot counts as zero when it falls below this fraction of the largest one.
PIVOT_RTOL = 1e-12

# Auto-level calibration for the selector's componentwise program: each of
# the 2L real correlation coordinates carries noise std sigma/sqrt(2), and
# the bound shrinks real and imaginary parts independently, so the level is
# half the modulus-based rule to keep its shrinkage comparable.
COMPOSITE_LAMBDA_CALIBRATION = 0.5


class EstimationError(ValueError):
    """An estimator's expected failure on one instance, which
    `run_estimators` returns as that instance's outcome."""


class SingularMatrixError(EstimationError):
    """A QR factorization hit a pivot that is zero within tolerance."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"matrix is singular within tolerance at pivot {pivot_index}")


class SelectorLpError(EstimationError):
    """The selector LP ended infeasible or unbounded, which its construction
    rules out."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Shared estimator settings; "auto" entries resolve deterministically
    from the instance (noise level, training matrix) before any solve."""

    lambda_ds: float | str = "auto"
    lambda_lasso: float | str = "auto"

    def __post_init__(self):
        for name in ("lambda_ds", "lambda_lasso"):
            value = getattr(self, name)
            if value == "auto":
                continue
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not 0 <= value < math.inf):
                raise ValueError(
                    f"{name} must be 'auto' or a finite non-negative real, got {value!r}")


@dataclass(frozen=True)
class Estimate:
    h_hat: np.ndarray
    diagnostics: dict = field(repr=False)

    @property
    def support_hat(self) -> tuple[int, ...]:
        """Indices whose modulus clears the relative reporting threshold."""
        mags = np.abs(self.h_hat)
        peak = float(mags.max()) if mags.size else 0.0
        threshold = max(SUPPORT_RELATIVE_THRESHOLD * peak, SUPPORT_ABSOLUTE_FLOOR)
        return tuple(int(i) for i in np.flatnonzero(mags > threshold))


def resolve_lambda(sigma, Xm: np.ndarray, rule):
    """Constraint level of an N x L training matrix Xm, or one per matrix of
    a (P, N, L) stack Xm with one sigma each: sigma * sqrt(2 ln L) * max
    column norm for "auto", otherwise the given non-negative value."""
    if rule == "auto":
        if np.min(sigma) < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        max_col = np.linalg.norm(Xm, axis=-2).max(axis=-1)
        return sigma * math.sqrt(2.0 * math.log(Xm.shape[-1])) * max_col
    value = float(rule)
    if value < 0:
        raise ValueError(f"fixed lambda must be >= 0, got {value}")
    return np.full(np.shape(sigma), value)


def _check_finite(X: ToeplitzTraining, obs: Observation) -> None:
    """Reject non-finite data, or a noise variance that is not finite and
    non-negative, before any factorization sees it."""
    if not (np.isfinite(X.matrix).all() and np.isfinite(obs.y).all()):
        raise EstimationError("training matrix or observation contains NaN or Inf entries")
    if not 0.0 <= obs.noise_variance < math.inf:
        raise EstimationError(
            f"noise variance must be finite and >= 0, got {obs.noise_variance!r}")


def _check_gram(*arrays, level=0.0) -> None:
    """Reject Gram products or correlations that overflowed on finite data,
    and a scalar `level` that did (tested by `math.isfinite`)."""
    if not (math.isfinite(level) and all(np.isfinite(a).all() for a in arrays)):
        raise EstimationError("Gram product or correlation of the training matrix is not finite")


def _ridge_solve(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (G + RIDGE_REGULARIZATION I) x = rhs; raises EstimationError
    when the ridge is lost to rounding and the matrix stays singular."""
    G = G.copy()
    G[np.diag_indices_from(G)] += RIDGE_REGULARIZATION
    try:
        return np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError as exc:
        raise EstimationError(str(exc)) from exc


def _solve_psd(G: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Solve G_p x_p = rhs_p for each p of a stack of Hermitian PSD matrices
    G (P, n, n) with finite rhs, one upper Cholesky factor (LAPACK
    potrf/potrs) at a time. A singular G_p gets a small diagonal ridge.
    Returns x, per system whether the ridge was needed, and per system None
    or the EstimationError of a G_p that is not finite (a Gram product that
    overflowed) or of a ridge solve that failed too (in either case its row
    of x is 0)."""
    potrf, = scipy.linalg.get_lapack_funcs(("potrf",), (G,))
    potrs, = scipy.linalg.get_lapack_funcs(("potrs",), (G, rhs))
    # potrs returns each solution in Fortran order, and x keeps that layout,
    # so that products with it run as the same BLAS calls as with np.stack.
    x = np.zeros(rhs.shape[:1] + rhs.shape[:0:-1], dtype=potrs.dtype)
    x = x.transpose(0, *range(rhs.ndim - 1, 0, -1))
    regularized, errors = np.zeros(len(G), dtype=bool), [None] * len(G)
    for p, Gp in enumerate(G):
        try:
            _check_gram(Gp)
            U, info = potrf(Gp, lower=0, clean=0)
            if info == 0:
                x[p] = potrs(U, rhs[p], lower=0)[0]
                continue
            regularized[p] = True
            x[p] = _ridge_solve(Gp, rhs[p])
        except EstimationError as exc:
            errors[p] = exc
    return x, regularized, errors


def _least_squares(M: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, list]:
    """Solve argmin_x ||M_p x - b_p||_2 for each p of a stack of finite tall
    matrices M (P, N, r), r <= N, and right-hand sides b (P, N).

    Each system is factored by its own complex QR, and one whose R has a
    diagonal entry below PIVOT_RTOL times the largest one is rank deficient.
    Returns the solutions (P, r) and per system None, or the
    SingularMatrixError carrying its first failing pivot index (its row of
    solutions is then meaningless). numpy's QR and solve work matrix by
    matrix, so a solution has the same bits in a stack of any size.
    """
    Q, R = np.linalg.qr(np.asarray(M, dtype=np.complex128), mode="reduced")
    pivots = np.abs(R.diagonal(0, 1, 2))
    largest = pivots.max(axis=1, keepdims=True)
    bad = (pivots < PIVOT_RTOL * largest) | (largest == 0.0)
    singular = bad.any(axis=1).nonzero()[0].tolist()
    errors = [None] * len(R)
    for p in singular:
        R[p] = np.eye(R.shape[1])  # keeps the stacked solve from raising
        errors[p] = SingularMatrixError(int(bad[p].argmax()))
    x = np.linalg.solve(R, np.conj(Q).swapaxes(1, 2) @ b[..., None])[..., 0]
    return x, errors


def least_squares_solve(M, b) -> np.ndarray:
    """Solve argmin_x ||Mx - b||_2 for a tall (rows >= cols) matrix M: the
    stack of one of the solve that `ls`, `omp` and `oracle` share.

    Rejects rank-deficient systems: any diagonal entry of M's QR factor R
    below PIVOT_RTOL times the largest one raises SingularMatrixError
    carrying the failing pivot index. A wide M or non-finite entries raise
    ValueError.
    """
    M, b = np.asarray(M), np.asarray(b)
    if M.ndim != 2 or M.shape[0] < M.shape[1]:
        raise ValueError(f"least squares needs a tall matrix, got shape {M.shape}")
    if not (np.isfinite(M).all() and np.isfinite(b).all()):
        raise ValueError("least-squares system contains NaN or Inf entries")
    x, (error,) = _least_squares(M[None], b[None])
    if error is not None:
        raise error
    return x[0]


def ls_estimates(Xm: np.ndarray, y: np.ndarray) -> list:
    """Plain least squares on each instance of the finite stacks Xm (P, N, L)
    and y (P, N); the minimum-L2-norm solution when N < L, through a
    Cholesky factor of X X^H.

    A rank-deficient tall system falls back to a small ridge on X^H X, as a
    singular X X^H does to one on X X^H, and reports "regularized". Returns
    per instance its Estimate, or the EstimationError of a Gram product
    (X X^H, or X^H X and X^H y for the ridge) that overflowed or of a ridge
    solve that stayed singular.
    """
    N, L = Xm.shape[1:]
    # np.conj copies Xm, so on real Xm the Gram products below run as gemm
    # rather than as syrk on a transposed view of Xm itself.
    Xh = np.conj(Xm).swapaxes(1, 2)
    if N >= L:
        h, singular = _least_squares(Xm, y)
        regularized = [error is not None for error in singular]
        errors = [None] * len(Xm)
        for p in np.flatnonzero(regularized):
            gram, rhs = Xh[p] @ Xm[p], Xh[p] @ y[p]
            try:
                _check_gram(gram, rhs)
                h[p] = _ridge_solve(gram, rhs)
            except EstimationError as exc:
                errors[p] = exc
    else:
        w, regularized, errors = _solve_psd(Xm @ Xh, y)
        h = (Xh @ w[..., None])[..., 0]
    return [error if error is not None else Estimate(h_p, {"regularized": bool(ridge)})
            for h_p, ridge, error in zip(h, regularized, errors)]


def omp_estimates(Xm: np.ndarray, y: np.ndarray, noise_variances, max_atoms=None) -> list:
    """Orthogonal matching pursuit on each instance of the finite stacks Xm
    (P, N, L) and y (P, N): greedy atom selection with a full least-squares
    refit each round, for at most `max_atoms[p]` atoms (min(N, L) when that
    or `max_atoms` is None) and until the residual norm falls to the noise
    level sqrt(N noise_variances[p]).

    The instances run their rounds together: in round k each instance still
    running picks its k-th atom, and they are refitted as one stack. Returns
    per instance its Estimate, or the EstimationError of a budget that is
    not an integer (a bool is not one), is negative or exceeds min(N, L), or
    of a rank-deficient refit (SingularMatrixError).
    """
    P, N, L = Xm.shape
    limit = min(N, L)
    budgets = [limit] * P if max_atoms is None else [limit if budget is None else budget
                                                     for budget in max_atoms]
    tols = np.array([math.sqrt(N * variance) for variance in noise_variances])
    results = [_omp_budget_error(budget, limit) for budget in budgets]
    running = np.array([p for p, error in enumerate(results) if error is None], dtype=np.intp)
    caps = np.array([int(budget) if error is None else 0
                     for budget, error in zip(budgets, results)], dtype=np.intp)
    Xh = np.conj(Xm).swapaxes(1, 2).astype(np.complex128, copy=False)
    residual = y.astype(np.complex128)
    atoms = np.zeros((P, limit), dtype=np.intp)
    coeffs = np.zeros((P, limit), dtype=np.complex128)
    count = np.zeros(P, dtype=np.intp)
    degenerate = np.zeros(P, dtype=bool)
    for k in range(limit):
        # The norms of the rows of the residual, as np.linalg.norm(axis=1)
        # forms them.
        active = residual[running]
        norms = np.sqrt((active.conj() * active).real.sum(axis=1))
        keep = (k < caps[running]) & (norms > tols[running])
        running, norms = running[keep], norms[keep]
        if not running.size:
            break
        corr = np.abs((Xh @ residual[..., None])[running, :, 0])
        best = corr.argmax(axis=1)
        keep = corr.max(axis=1) > 1e-14 * np.maximum(1.0, norms)
        running, best = running[keep], best[keep]
        repeated = (atoms[running, :k] == best[:, None]).any(axis=1)
        degenerate[running[repeated]] = True
        running, best = running[~repeated], best[~repeated]
        if not running.size:
            break
        atoms[running, k] = best
        count[running] = k + 1
        M = Xm[running[:, None], :, atoms[running, :k + 1]].swapaxes(1, 2)
        x, errors = _least_squares(M, y[running])
        residual[running] = y[running] - (M @ x[..., None])[..., 0]
        coeffs[running, :k + 1] = x
        if any(errors):
            for p, error in zip(running.tolist(), errors):
                if error is not None:
                    results[p] = error
            running = running[[error is None for error in errors]]
    chosen = np.arange(limit) < count[:, None]
    h = np.zeros((P, L), dtype=np.complex128)
    h[chosen.nonzero()[0], atoms[chosen]] = coeffs[chosen]
    for p, outcome in enumerate(results):
        if outcome is None:
            results[p] = Estimate(h[p], {
                "atoms": atoms[p, :count[p]].tolist(),
                "residual_norm": float(l2_norm(residual[p])),
                "residual_tol": float(tols[p]),
                "degenerate_reselection": bool(degenerate[p]),
            })
    return results


def _omp_budget_error(budget, limit: int):
    """None for an OMP atom budget in [0, limit], else its EstimationError."""
    if isinstance(budget, bool) or not isinstance(budget, numbers.Integral) or budget < 0:
        return EstimationError(f"OMP atom budget must be an integer >= 0, got {budget!r}")
    if budget > limit:
        return EstimationError(f"OMP atom budget {budget} exceeds min(N, L)={limit}")
    return None


def _lasso_estimate(Xm: np.ndarray, y: np.ndarray, lam: float) -> Estimate:
    """L1-penalized least squares, (1/2)||y - Xm h||^2 + lam * sum |h_i|,
    on the Gram form G = X^H X, c = X^H y; the threshold shrinks the modulus
    and keeps the phase.

    Coordinate descent passes over a working set: the nonzero taps plus the
    zero taps that violate the optimality conditions, |c_j - q_j| > lambda
    with q = G h. The first set holds the taps with |c_j| > lambda, visited
    strongest first, in decreasing order of |c_j| (as the Gauss-Southwell
    rule would pick them from h = 0; Nutini et al., ICML 2015): in index
    order, many leakage taps take a nonzero value before the dominant taps
    take up the correlation, and later passes must undo them. Tap j's
    statistic is rho_j = c_j - q_j + G_jj h_j, and each change updates q by one
    column of G: one in-place BLAS zaxpy on a contiguous complex copy of
    G's columns, made once per call and read at the column's offset. When a
    pass changes no tap by LASSO_CONVERGENCE_TOL, one vectorized screen
    recomputes q, adds the violators to the working set and measures the
    largest subgradient residual over all taps: |c_j - q_j - lambda
    h_j/|h_j|| on the nonzero taps, max(|c_j - q_j| - lambda, 0) on the
    others. The call has converged, a certified stop, when the screen finds
    no violator and that residual is at most LASSO_KKT_TOL * lambda. Both
    tests allow LASSO_KKT_FLOOR * max |c_j| where that is larger, the
    rounding level of c - G h, which matters only for a lambda near 0.

    A slow call, past LASSO_NEWTON_PASSES passes with a support that no
    longer changes, takes Newton steps on that support, where the objective
    is smooth: each step solves the real 2|S| x 2|S| system of
    [[Re G_SS, -Im G_SS], [Im G_SS, Re G_SS]] plus lambda/|h_j| (I - u_j
    u_j^T) per tap, u_j its unit phase, by LAPACK dgesv. A step that takes
    a tap across zero is cut at the first crossing, and the crossing taps
    leave the support (see `_lasso_newton`); a step is kept only if it
    lowers the objective. When a step is rejected or the system is singular
    the passes resume, and Newton is tried again after LASSO_NEWTON_PASSES
    more passes on the same support, or at once when the support changes.
    The steps end when the largest change falls below
    LASSO_CONVERGENCE_TOL, and the screen follows. At L=60 and 20 dB a call
    takes a median of 35 sweeps at N=10 and 11 at N=55; calls that settle
    within LASSO_NEWTON_PASSES passes take no Newton step.

    diagnostics["sweeps"] counts passes plus Newton steps, capped at
    LASSO_MAX_SWEEPS (the last pass is always screened), and
    diagnostics["kkt_residual"] is the screened residual of the returned
    taps. Taps with G_jj <= 0 (all-zero columns) stay at zero. Xm and y
    must be finite; a level, Gram matrix or X^H y that is not raises
    EstimationError."""
    L = Xm.shape[1]
    Xh = Xm.conj().T
    G = Xh @ Xm
    c = Xh @ y
    _check_gram(G, c, level=lam)
    # Per-coordinate scalars live in Python lists, and zaxpy reads column j
    # of G at offset j * L of `cols`: indexing a numpy array element by
    # element, or slicing it, costs more than the arithmetic done on it.
    c_list = c.tolist()
    g_diag = G.diagonal().real
    live = g_diag > 0.0
    g_list = g_diag.tolist()
    cols = G.T.astype(np.complex128, order="C").reshape(-1)
    # zaxpy updates q in place and returns it, so q.item stays bound to q.
    q = np.zeros(L, dtype=np.complex128)
    q_item = q.item
    h = [0j] * L
    # Below this the residual c - G h is not resolved: at lambda = 0 the
    # certificate would otherwise ask for an exact zero.
    abs_c = np.abs(c)
    floor = LASSO_KKT_FLOOR * float(abs_c.max(initial=0.0))
    order = (-abs_c).argsort(kind="stable")
    work = order[(live & (abs_c > lam + floor))[order]].tolist()
    support, retry = None, 0
    converged, sweeps = False, 0
    while sweeps < LASSO_MAX_SWEEPS:
        sweeps += 1
        max_change = 0.0
        for j in work:
            d, old = g_list[j], h[j]
            rho = c_list[j] - q_item(j) + d * old
            mag = abs(rho)
            new = (1.0 - lam / mag) * rho / d if mag > lam else 0j
            change = new - old
            if change:
                q = zaxpy(cols, q, L, change, j * L)
                h[j] = new
                size = abs(change)
                if size > max_change:
                    max_change = size
        nonzero = [j for j in work if h[j]]
        taps = sorted(nonzero)
        if taps != support:
            support, retry = taps, 0
        elif sweeps > LASSO_NEWTON_PASSES and sweeps >= retry and support:
            steps, settled = _lasso_newton(G, c, h, support, lam, LASSO_MAX_SWEEPS - sweeps)
            sweeps += steps
            retry = sweeps + LASSO_NEWTON_PASSES
            q[:] = G @ np.array(h, dtype=np.complex128)
            if settled:
                max_change = 0.0
        if max_change >= LASSO_CONVERGENCE_TOL and sweeps < LASSO_MAX_SWEEPS:
            work = nonzero
            continue
        h_arr = np.array(h, dtype=np.complex128)
        q[:] = G @ h_arr
        r = c - q
        abs_r = np.abs(r)
        mag = np.abs(h_arr)
        on = mag > 0.0
        off = ~on
        violators = live & off & (abs_r > lam + floor)
        # mag + off is mag on the support and 1 off it, where the quotient
        # is not taken.
        residual = np.where(on, np.abs(r - lam * h_arr / (mag + off)),
                            np.maximum(abs_r - lam, 0.0))
        kkt = float(residual.max(initial=0.0))
        if not violators.any() and kkt <= max(LASSO_KKT_TOL * lam, floor):
            converged = True
            break
        work = (on | violators).nonzero()[0].tolist()

    diagnostics = {"lambda": lam, "sweeps": sweeps, "converged": converged,
                   "kkt_residual": kkt, "l1_convention": "complex_modulus"}
    return Estimate(np.array(h, dtype=np.complex128), diagnostics)


def _lasso_newton(G, c, h, support, lam, budget) -> tuple[int, bool]:
    """Newton steps of `_lasso_estimate` on the nonzero taps `support`, at
    most `budget` of them, updating the tap list `h` in place. Returns the
    steps taken and whether the last one was a whole step that changed no
    tap by LASSO_CONVERGENCE_TOL.

    Tap j crosses zero on a step d when Re(conj(h_j)(h_j + d_j)) <= 0. Such
    a step is cut at the first crossing along h + t d: the crossing taps are
    set to exactly 0 and leave the support, and the steps go on over the taps
    left. A step is kept only if the objective falls at the point kept;
    otherwise the run ends with `h` as it was before that step, as it does
    when dgesv reports a singular system (info > 0). The system is assembled
    in buffers made once per support."""
    S = np.array(support)
    hs = np.array([h[j] for j in support], dtype=np.complex128)
    steps, settled, assemble = 0, False, True
    while steps < budget and S.size:
        if assemble:
            assemble, s = False, S.size
            Gs = G[S[:, None], S]
            H0 = np.empty((2 * s, 2 * s), order="F")
            H0[:s, :s] = H0[s:, s:] = Gs.real
            np.negative(Gs.imag, out=H0[:s, s:])
            H0[s:, :s] = Gs.imag
            # Flat (column-major) indices of the diagonals of H's four s x s
            # blocks: re-re, im-im, then the two off-diagonal ones, and H0's
            # entries there. dgesv overwrites H, so each step refills it from
            # H0.
            diag = np.arange(s) * (2 * s + 1)
            blocks = np.concatenate([diag, diag + s * (2 * s + 1), diag + s, diag + 2 * s * s])
            base = H0.reshape(-1, order="F")[blocks]
            H = np.empty((2 * s, 2 * s), order="F")
            flat = H.reshape(-1, order="F")
            cs = c[S]
        steps += 1
        mag = np.abs(hs)
        u = hs / mag
        w = lam / mag
        re, im = u.real, u.imag
        cross = -(w * re * im)
        np.copyto(H, H0)
        flat[blocks] = base + np.concatenate([w * im**2, w * re**2, cross, cross])
        r = cs - Gs @ hs
        g = r - lam * u
        dx, info = dgesv(H, np.concatenate([g.real, g.imag]), 1, 1)[2:]
        if info:
            break
        step = dx[:s] + 1j * dx[s:]
        along = (np.conj(hs) * step).real
        crossing = (mag**2 + along <= 0.0).nonzero()[0]
        if crossing.size:
            times = mag[crossing] ** 2 / -along[crossing]
            first = times.min()
            hit = crossing[times == first]
            step *= first
            step[hit] = -hs[hit]
            along = (np.conj(hs) * step).real
        new = hs + step
        abs_step = np.abs(step)
        # The decrease of the objective, formed so that rounding does not
        # swamp it near the minimum: |h + d| - |h| is taken as
        # (2 Re(conj(h) d) + |d|^2) / (|h + d| + |h|).
        decrease = (np.vdot(step, r).real - 0.5 * np.vdot(step, Gs @ step).real
                    - lam * ((2.0 * along + abs_step**2) / (np.abs(new) + mag)).sum())
        size = float(abs_step.max())
        if not decrease > 0.0:
            settled = not crossing.size and size < LASSO_CONVERGENCE_TOL
            break
        hs = new
        if crossing.size:
            for j in S[hit].tolist():
                h[j] = 0j
            S, hs, assemble = np.delete(S, hit), np.delete(hs, hit), True
        elif size < LASSO_CONVERGENCE_TOL:
            settled = True
            break
    for j, value in zip(S.tolist(), hs.tolist()):
        h[j] = value
    return steps, settled


def lasso_estimates(Xm: np.ndarray, y: np.ndarray, levels) -> list:
    """`_lasso_estimate` on each instance of the finite stacks Xm (P, N, L)
    and y (P, N) at its level `levels[p]`, one after another.

    The Lasso is not stacked: its pass count depends on the data (at L=60 and
    20 dB, a median of 11 at N=55 and 35 at N=10, and up to about 90), so a
    stack would wait for its slowest member. Each call also forms its own G
    and column copy, which its passes then find in cache. Returns per
    instance its Estimate, or the EstimationError it raised.
    """
    results = []
    for X_p, y_p, lam in zip(Xm, y, levels):
        try:
            results.append(_lasso_estimate(X_p, y_p, lam))
        except EstimationError as exc:
            results.append(exc)
    return results


def _composite_programs(S, Xm, y, lam):
    """The selector programs (B, d, lam) of one instance, with correlation
    operator S^H (y - Xm g) over the real-composite coordinates, and
    whether they are decoupled.

    The sensing matrix `S` is Xm itself for the plain selector and the
    reweighted matrix for the sensing variant. With S and C = S^H Xm real
    (real training), the program decouples into independent programs for
    the real and imaginary parts of y, which share B; otherwise one program
    runs over the stacked operator [[Re C, -Im C], [Im C, Re C]]. Each
    program minimizes ||g||_1 subject to ||d - B g||_inf <= lam, an LP over
    the positive/negative parts of g (see `lp.solve_selectors`).
    """
    # Conjugate before transposing: the product then runs as the same
    # transposed BLAS call as S.T @ Xm, bit for bit, on real inputs.
    C = S.conj().T @ Xm
    # B is finite exactly when C is: its entries are those of C.real and C.imag.
    if not (np.isfinite(C).all() and math.isfinite(lam)):
        raise EstimationError("selector program contains NaN or Inf entries")
    decoupled = not S.imag.any() and not C.imag.any()
    if decoupled:
        B = np.ascontiguousarray(C.real)
        programs = [(B, S.real.T @ y.real, lam), (B, S.real.T @ y.imag, lam)]
    else:
        d = S.conj().T @ y
        k = C.shape[0]
        B = np.empty((2 * k, 2 * k))
        B[:k, :k] = B[k:, k:] = C.real
        np.negative(C.imag, out=B[:k, k:])
        B[k:, :k] = C.imag
        programs = [(B, np.concatenate([d.real, d.imag]), lam)]
    for _B, d, _level in programs:
        if not np.isfinite(d).all():
            raise EstimationError("selector program contains NaN or Inf entries")
    return programs, decoupled


def _selector_estimates(S, Xm, y, levels, extras) -> list:
    """The selector estimate of each instance p: the programs of
    `_composite_programs(S[p], Xm[p], y[p], levels[p])`, with the programs of
    all instances solved in one call to `solve_selectors`. Returns per
    instance its Estimate, whose diagnostics are lambda, the l1 convention,
    `extras[p]` and the LP's, or the EstimationError of its program build or
    the SelectorLpError of a program that ended infeasible or unbounded."""
    results = []
    for S_p, X_p, y_p, lam in zip(S, Xm, y, levels):
        try:
            results.append(_composite_programs(S_p, X_p, y_p, lam))
        except EstimationError as exc:
            results.append(exc)
    built = [(p, *result) for p, result in enumerate(results) if isinstance(result, tuple)]
    solutions = iter(solve_selectors([program for _, programs, _ in built for program in programs]))
    for p, programs, decoupled in built:
        sols = [next(solutions) for _ in programs]
        statuses = [sol.status for sol in sols]
        failed = [s for s in statuses if s in (STATUS_INFEASIBLE, STATUS_UNBOUNDED)]
        if failed:
            # The constraint set always contains a point with zero correlation
            # residual and the objective is bounded below, so either report
            # indicates a solver malfunction.
            results[p] = SelectorLpError(
                f"selector LP reported {failed[0]}; this indicates a solver bug")
            continue
        n = programs[0][0].shape[0]
        g = np.concatenate([sol.x[:n] - sol.x[n:] for sol in sols])
        L = g.size // 2
        results[p] = Estimate(g[:L] + 1j * g[L:], {
            "lambda": levels[p],
            "l1_convention": "real_composite",
            **extras[p],
            "lp_iterations": sum(sol.iterations for sol in sols),
            "lp_statuses": statuses,
            "lp_fallbacks": sum(sol.fallback for sol in sols),
            "decoupled": decoupled,
            "converged": STATUS_ITERATION_LIMIT not in statuses,
        })
    return results


def ds_estimates(Xm: np.ndarray, y: np.ndarray, levels) -> list:
    """The Dantzig selector on each instance of the finite stacks Xm (P, N, L)
    and y (P, N) at its level `levels[p]`: minimize the (real-composite) L1
    norm subject to a componentwise bound on the residual correlations
    X^H (y - X h), the selector whose sensing matrix is X itself.

    Each estimate is bit for bit the one its instance gets alone. Returns
    per instance its Estimate, or the EstimationError it raised.
    """
    return _selector_estimates(Xm, Xm, y, levels, [{}] * len(Xm))


def sds_estimates(Xm: np.ndarray, y: np.ndarray, bases) -> list:
    """Reweighted ("sensing") selector on each instance of the finite stacks
    Xm (P, N, L) and y (P, N), from `bases[p]`, the plain selector's outcome
    there: weight each column by the magnitude w of its residual
    correlation, and re-solve at the plain level with the sensing matrix
    whose columns are R^{-1} x_i / (x_i^H R^{-1} x_i), R = X W^2 X^H (a
    singular R gets a small diagonal ridge, flagged
    `weighting_regularized`). An instance whose weights all vanish next to
    X^H y keeps its plain estimate, flagged `degenerate_weighting`. Returns
    per instance its Estimate, or the EstimationError it (or its plain
    selector) raised, an R that is not finite among them.
    """
    results, rows, sensing, extras = list(bases), [], [], []
    for i, (X_i, y_i, base) in enumerate(zip(Xm, y, bases)):
        if isinstance(base, Exception):
            continue
        residual = y_i - X_i @ base.h_hat
        w = np.abs(X_i.conj().T @ residual)
        # The weights vanish relative to the correlations of y itself, a
        # threshold in their units, so the test does not change with scale.
        if w.max(initial=0.0) <= 1e-12 * np.abs(X_i.conj().T @ y_i).max(initial=0.0):
            results[i] = Estimate(base.h_hat, {**base.diagnostics, "degenerate_weighting": True})
            continue
        Z, regularized, (error,) = _solve_psd(((X_i * (w**2)[None, :]) @ X_i.conj().T)[None],
                                              X_i[None])
        if error is not None:
            results[i] = error
            continue
        rows.append(i)
        sensing.append(Z[0] / np.einsum("ij,ij->j", np.conj(X_i), Z[0]).real[None, :])
        extras.append({
            "degenerate_weighting": False,
            "weighting_regularized": bool(regularized[0]),
            "weights": w,
            "normalization": "columnwise x_alt_i = R^-1 x_i / (x_i^H R^-1 x_i)",
            "base_lp_iterations": base.diagnostics["lp_iterations"],
        })
    outcomes = _selector_estimates(sensing, [Xm[i] for i in rows], [y[i] for i in rows],
                                   [bases[i].diagnostics["lambda"] for i in rows], extras)
    for i, outcome in zip(rows, outcomes):
        results[i] = outcome
    return results


def oracle_estimates(Xm: np.ndarray, y: np.ndarray, true_supports) -> list:
    """Least squares on each instance of the finite stacks Xm (P, N, L) and
    y (P, N) restricted to the columns of its true support
    `true_supports[p]`, zero elsewhere.

    The instances with supports of one size are solved as one stack.
    Returns per instance its Estimate, or the EstimationError of a support
    larger than N or out of range or of rank-deficient support columns
    (SingularMatrixError).
    """
    N, L = Xm.shape[1:]
    supports = [sorted(int(j) for j in set(support)) for support in true_supports]
    results, sizes = [None] * len(supports), {}
    for p, support in enumerate(supports):
        if len(support) > N:
            results[p] = EstimationError(f"support size {len(support)} exceeds N={N}")
        elif support and (support[0] < 0 or support[-1] >= L):
            results[p] = EstimationError("support indices out of range")
        else:
            sizes.setdefault(len(support), []).append(p)
    for size, rows in sizes.items():
        columns = np.array([supports[p] for p in rows], dtype=np.intp).reshape(len(rows), size)
        h = np.zeros((len(rows), L), dtype=np.complex128)
        errors = [None] * len(rows)
        if size:
            x, errors = _least_squares(np.take_along_axis(Xm[rows], columns[:, None, :], axis=2),
                                       y[rows])
            np.put_along_axis(h, columns, x, axis=1)
        for p, h_p, error in zip(rows, h, errors):
            results[p] = error if error is not None else Estimate(h_p, {"support": supports[p]})
    return results


def run_estimators(methods, instances, cfg: EstimatorConfig, true_supports=None,
                   true_sparsities=None) -> list:
    """Run `methods` in order, each once through its stack function, on the
    (X, obs) of `instances`, which share one shape and dtypes.

    Each instance whose X or y is not finite, or whose noise variance is not
    finite and non-negative, fails every method with that EstimationError.
    The others are stacked once, with sigma and, where a method needs one,
    each level from `cfg` resolved once for the stack; the stacks go to
    every stack function, and `ds_estimates` runs at most once, its
    outcomes serving `ds` and the bases of `sds` in either order. Returns
    per instance {method: its Estimate, or the EstimationError it raised},
    in method order; any other exception propagates. OMP takes at most
    `true_sparsities[i]` atoms (genie-aided stopping for comparison runs),
    an integer in [0, min(N, L)], or min(N, L) when that or
    `true_sparsities` is None; the oracle solves on
    `true_supports[i]`. An unknown method, the oracle without
    `true_supports`, or instances of more than one shape or dtype raise
    ValueError before any method runs.
    """
    for method in methods:
        if method not in ALL_METHODS:
            raise ValueError(f"unknown estimator {method!r}; choose from {ALL_METHODS}")
    if METHOD_ORACLE in methods and true_supports is None:
        raise ValueError("oracle estimator needs the true support")
    kinds = {(X.matrix.shape, X.matrix.dtype, obs.y.dtype) for X, obs in instances}
    if len(kinds) > 1:
        raise ValueError(f"instances differ in shape or dtype: {sorted(map(str, kinds))}")
    results, passed = [{} for _ in instances], []
    for i, (X, obs) in enumerate(instances):
        try:
            _check_finite(X, obs)
            passed.append(i)
        except EstimationError as exc:
            results[i] = dict.fromkeys(methods, exc)
    if not passed:
        return results
    Xm = np.stack([instances[i][0].matrix for i in passed])
    y = np.stack([instances[i][1].y for i in passed])
    variances = [instances[i][1].noise_variance for i in passed]
    sigma = np.sqrt(variances)
    selector = None
    for method in methods:
        if method == METHOD_LS:
            outcomes = ls_estimates(Xm, y)
        elif method == METHOD_OMP:
            outcomes = omp_estimates(Xm, y, variances, None if true_sparsities is None else
                                     [true_sparsities[i] for i in passed])
        elif method == METHOD_LASSO:
            outcomes = lasso_estimates(Xm, y, resolve_lambda(sigma, Xm, cfg.lambda_lasso).tolist())
        elif method == METHOD_ORACLE:
            outcomes = oracle_estimates(Xm, y, [true_supports[i] for i in passed])
        else:  # METHOD_DS or METHOD_SDS
            if selector is None:
                scale = COMPOSITE_LAMBDA_CALIBRATION if cfg.lambda_ds == "auto" else 1.0
                levels = scale * resolve_lambda(sigma, Xm, cfg.lambda_ds)
                selector = ds_estimates(Xm, y, levels.tolist())
            outcomes = selector if method == METHOD_DS else sds_estimates(Xm, y, selector)
        for i, outcome in zip(passed, outcomes):
            results[i][method] = outcome
    return results


def run_estimator(method: str, X: ToeplitzTraining, obs: Observation, cfg: EstimatorConfig,
                  true_support=None, true_sparsity: int | None = None) -> Estimate:
    """Run a named estimator on one instance: the batch of one of
    `run_estimators`, with the failure raised. The oracle requires
    `true_support`; OMP takes at most `true_sparsity` atoms, min(N, L) if it
    is None."""
    supports = None if true_support is None else [true_support]
    outcome = run_estimators([method], [(X, obs)], cfg, supports, [true_sparsity])[0][method]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
