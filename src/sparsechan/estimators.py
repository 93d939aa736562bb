"""Channel estimators behind a uniform interface.

Implements least squares (works in both the overdetermined and the
minimum-norm underdetermined regime), orthogonal matching pursuit (stopped
at an atom budget or at the noise-level residual), Lasso by coordinate
descent on the Gram matrix X^H X with active-set passes and complex
soft-thresholding, the Dantzig selector realized as a linear program, its
residual-reweighted "sensing" variant, and the genie-aided oracle (least
squares on the true support).
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

`ds_estimates` and `sds_estimates` run the selectors over many instances
and solve the selector programs of all of them in one call; `ds_estimate`
and `sds_estimate` are their batch of one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .lp import (
    STATUS_INFEASIBLE,
    STATUS_ITERATION_LIMIT,
    STATUS_UNBOUNDED,
    solve_lp,  # noqa: F401  (part of this module's surface: bench/tracing.py wraps it)
    solve_selectors,
)
from .model import Observation, ToeplitzTraining

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
LASSO_MAX_SWEEPS = 10_000

RIDGE_REGULARIZATION = 1e-10

# A QR pivot counts as zero when it falls below this fraction of the largest one.
PIVOT_RTOL = 1e-12

# Auto-level calibration for the selector's componentwise program: each of
# the 2L real correlation coordinates carries noise std sigma/sqrt(2), and
# the bound shrinks real and imaginary parts independently, so the level is
# half the modulus-based rule to keep its shrinkage comparable.
COMPOSITE_LAMBDA_CALIBRATION = 0.5


class SingularMatrixError(ValueError):
    """A QR factorization hit a pivot that is zero within tolerance."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"matrix is singular within tolerance at pivot {pivot_index}")


class SelectorLpError(RuntimeError):
    """The selector LP ended infeasible or unbounded, which its construction
    rules out."""


# The failures an estimator is expected to raise on a bad instance: singular
# or rank-deficient systems (SingularMatrixError is a ValueError), an OMP
# atom budget the instance cannot meet (more than min(N, L)) and a failed
# selector LP. Anything else is a programming error and propagates.
ESTIMATOR_FAILURES = (ValueError, np.linalg.LinAlgError, SelectorLpError)


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


def resolve_lambda(sigma: float, X: ToeplitzTraining, rule) -> float:
    """Constraint level: sigma * sqrt(2 ln L) * max column norm for "auto",
    otherwise the given non-negative value."""
    if rule == "auto":
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        max_col = float(np.linalg.norm(X.matrix, axis=0).max())
        return sigma * math.sqrt(2.0 * math.log(X.L)) * max_col
    value = float(rule)
    if value < 0:
        raise ValueError(f"fixed lambda must be >= 0, got {value}")
    return value


def _solve_psd(G: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Solve G x = rhs for Hermitian PSD G by Cholesky. A singular G gets a
    small diagonal ridge; returns (x, whether the ridge was needed)."""
    try:
        return scipy.linalg.cho_solve(scipy.linalg.cho_factor(G), rhs), False
    except scipy.linalg.LinAlgError:
        G = G.copy()
        G[np.diag_indices_from(G)] += RIDGE_REGULARIZATION
        return np.linalg.solve(G, rhs), True


def least_squares_solve(M, b) -> np.ndarray:
    """Solve argmin_x ||Mx - b||_2 for a tall (rows >= cols) matrix M.

    Uses a complex QR factorization and rejects rank-deficient systems: any
    diagonal entry of R below PIVOT_RTOL times the largest one raises
    SingularMatrixError carrying the failing pivot index. A wide M or
    non-finite entries raise ValueError from the triangular solve.
    """
    Q, R = np.linalg.qr(np.asarray(M, dtype=np.complex128), mode="reduced")
    pivots = np.abs(np.diag(R))
    largest = pivots.max()
    if largest == 0.0:
        raise SingularMatrixError(0)
    bad = np.flatnonzero(pivots < PIVOT_RTOL * largest)
    if bad.size:
        raise SingularMatrixError(int(bad[0]))
    return scipy.linalg.solve_triangular(R, Q.conj().T @ b)


def ls_estimate(X: ToeplitzTraining, obs: Observation) -> Estimate:
    """Plain least squares; minimum-L2-norm solution when N < L."""
    Xm, y = X.matrix, obs.y
    N, L = Xm.shape
    # np.conj copies Xm, so on real Xm the Gram products below run as gemm
    # rather than as syrk on a transposed view of Xm itself.
    Xh = np.conj(Xm).T
    diagnostics = {"regularized": False}
    if N >= L:
        try:
            h = least_squares_solve(Xm, y)
        except SingularMatrixError:
            gram = Xh @ Xm
            gram[np.diag_indices_from(gram)] += RIDGE_REGULARIZATION
            h = np.linalg.solve(gram, Xh @ y)
            diagnostics["regularized"] = True
    else:
        w, diagnostics["regularized"] = _solve_psd(Xm @ Xh, y)
        h = Xh @ w
    return Estimate(h, diagnostics)


def omp_estimate(X: ToeplitzTraining, obs: Observation, max_atoms: int | None = None) -> Estimate:
    """Orthogonal matching pursuit: greedy atom selection with a full least-
    squares refit each round, for at most `max_atoms` atoms (min(N, L) when
    None) and until the residual norm falls to the noise level sqrt(N sigma^2)."""
    Xm, y = X.matrix, obs.y
    N, L = Xm.shape
    limit = min(N, L)
    if max_atoms is None:
        max_atoms = limit
    elif max_atoms > limit:
        raise ValueError(f"OMP atom budget {max_atoms} exceeds min(N, L)={limit}")
    residual_tol = math.sqrt(N * obs.noise_variance)

    residual = y.copy()
    selected: list[int] = []
    coeffs = np.zeros(0, dtype=np.complex128)
    degenerate = False
    while len(selected) < max_atoms:
        if np.linalg.norm(residual) <= residual_tol:
            break
        corr = np.abs(Xm.conj().T @ residual)
        best = int(np.argmax(corr))
        if corr[best] <= 1e-14 * max(1.0, float(np.linalg.norm(residual))):
            break
        if best in selected:
            degenerate = True
            break
        selected.append(best)
        coeffs = least_squares_solve(Xm[:, selected], y)
        residual = y - Xm[:, selected] @ coeffs

    h = np.zeros(L, dtype=np.complex128)
    if selected:
        h[selected] = coeffs
    diagnostics = {
        "atoms": list(selected),
        "residual_norm": float(np.linalg.norm(residual)),
        "residual_tol": residual_tol,
        "degenerate_reselection": degenerate,
    }
    return Estimate(h, diagnostics)


def lasso_estimate(X: ToeplitzTraining, obs: Observation, cfg: EstimatorConfig) -> Estimate:
    """L1-penalized least squares, (1/2)||y - Xh||^2 + lambda * sum |h_i|,
    by coordinate descent on the Gram form G = X^H X, c = X^H y; the
    threshold shrinks the modulus and keeps the phase.

    Coordinate j's statistic is rho_j = c_j - q_j + G_jj h_j with q = G h,
    which each change updates by one column of G. One full sweep over all
    coordinates is followed by passes over the nonzero ones until their
    largest change falls below LASSO_CONVERGENCE_TOL, then by another full
    sweep. The call has converged when a full sweep changes no coordinate by
    that much; LASSO_MAX_SWEEPS caps the passes of either kind, and
    diagnostics["sweeps"] counts them. Coordinates with G_jj <= 0 (all-zero
    columns) stay at zero."""
    Xm, y = X.matrix, obs.y
    L = Xm.shape[1]
    sigma = math.sqrt(obs.noise_variance)
    lam = resolve_lambda(sigma, X, cfg.lambda_lasso)

    Xh = Xm.conj().T
    G = Xh @ Xm
    # Per-coordinate scalars live in Python lists: indexing a numpy array
    # element by element costs more than the arithmetic done on it.
    c = (Xh @ y).tolist()
    g_diag = np.real(np.diag(G)).tolist()
    q = np.zeros(L, dtype=np.complex128)
    h = [0j] * L
    coords = [j for j in range(L) if g_diag[j] > 0.0]
    full = True
    converged = False
    sweeps = 0
    while sweeps < LASSO_MAX_SWEEPS:
        sweeps += 1
        max_change = 0.0
        for j in coords if full else [j for j in coords if h[j]]:
            d, old = g_diag[j], h[j]
            rho = c[j] - q.item(j) + d * old
            mag = abs(rho)
            new = (1.0 - lam / mag) * rho / d if mag > lam else 0j
            change = new - old
            if change:
                q += G[:, j] * change
                h[j] = new
                max_change = max(max_change, abs(change))
        if max_change < LASSO_CONVERGENCE_TOL:
            if full:
                converged = True
                break
            full = True
        else:
            full = False

    diagnostics = {"lambda": lam, "sweeps": sweeps, "converged": converged,
                   "l1_convention": "complex_modulus"}
    return Estimate(np.array(h, dtype=np.complex128), diagnostics)


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
    decoupled = not S.imag.any() and not C.imag.any()
    if decoupled:
        B = np.ascontiguousarray(C.real)
        programs = [(B, S.real.T @ y.real, lam), (B, S.real.T @ y.imag, lam)]
    else:
        d = S.conj().T @ y
        programs = [(np.block([[C.real, -C.imag], [C.imag, C.real]]),
                     np.concatenate([d.real, d.imag]), lam)]
    for B, d, level in programs:
        if not (np.all(np.isfinite(B)) and np.all(np.isfinite(d)) and math.isfinite(level)):
            raise ValueError("selector program contains NaN or Inf entries")
    return programs, decoupled


def _solve_composite_selectors(jobs) -> list:
    """Solve the programs of every job, each a `_composite_programs` result,
    in one call to `solve_selectors`. Returns per job the composite
    estimate and its LP diagnostics, or the SelectorLpError of a program
    that ended infeasible or unbounded."""
    solutions = iter(solve_selectors([p for programs, _ in jobs for p in programs]))
    results = []
    for programs, decoupled in jobs:
        sols = [next(solutions) for _ in programs]
        statuses = [sol.status for sol in sols]
        failed = [s for s in statuses if s in (STATUS_INFEASIBLE, STATUS_UNBOUNDED)]
        if failed:
            # The constraint set always contains a point with zero correlation
            # residual and the objective is bounded below, so either report
            # indicates a solver malfunction.
            results.append(SelectorLpError(
                f"selector LP reported {failed[0]}; this indicates a solver bug"))
            continue
        n = programs[0][0].shape[0]
        g = np.concatenate([sol.x[:n] - sol.x[n:] for sol in sols])
        L = g.size // 2
        results.append((g[:L] + 1j * g[L:], {
            "lp_iterations": sum(sol.iterations for sol in sols),
            "lp_statuses": statuses,
            "decoupled": decoupled,
            "converged": STATUS_ITERATION_LIMIT not in statuses,
        }))
    return results


def _only(outcomes):
    """The one outcome of a batch of one: its Estimate, or its failure raised."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def ds_estimates(instances, cfg: EstimatorConfig) -> list:
    """The Dantzig selector on each (X, obs) of `instances`: minimize the
    (real-composite) L1 norm subject to a componentwise bound on the
    residual correlations X^H (y - X h).

    The selector programs of all instances are solved in one call, and each
    estimate is bit for bit the one its instance gets alone. Returns per
    instance its Estimate, or the ESTIMATOR_FAILURES exception it raised.
    """
    results, pending, jobs = [None] * len(instances), [], []
    for i, (X, obs) in enumerate(instances):
        try:
            sigma = math.sqrt(obs.noise_variance)
            if cfg.lambda_ds == "auto":
                lam = COMPOSITE_LAMBDA_CALIBRATION * resolve_lambda(sigma, X, "auto")
            else:
                lam = resolve_lambda(sigma, X, cfg.lambda_ds)
            jobs.append(_composite_programs(X.matrix, X.matrix, obs.y, lam))
        except ESTIMATOR_FAILURES as exc:
            results[i] = exc
            continue
        pending.append((i, lam))
    for (i, lam), solved in zip(pending, _solve_composite_selectors(jobs)):
        if isinstance(solved, Exception):
            results[i] = solved
            continue
        h, lp_info = solved
        results[i] = Estimate(h, {"lambda": lam, "l1_convention": "real_composite", **lp_info})
    return results


def ds_estimate(X: ToeplitzTraining, obs: Observation, cfg: EstimatorConfig) -> Estimate:
    """Dantzig selector on one instance (see `ds_estimates`)."""
    return _only(ds_estimates([(X, obs)], cfg))


def sds_weighting(Xm: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, bool]:
    """Build the reweighted sensing matrix from per-column weights.

    R = X W^2 X^H; columns of the reweighted matrix are R^{-1} x_i scaled
    by 1 / (x_i^H R^{-1} x_i). A singular R gets a small diagonal ridge.
    Returns (reweighted matrix, whether the ridge was needed)."""
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    Z, regularized = _solve_psd((Xm * (weights**2)[None, :]) @ Xm.conj().T, Xm)
    col_scale = np.real(np.einsum("ij,ij->j", np.conj(Xm), Z))
    return Z / col_scale[None, :], regularized


def sds_estimates(instances, cfg: EstimatorConfig, bases=None) -> list:
    """Reweighted ("sensing") selector on each (X, obs) of `instances`: run
    the plain selector, weight each column by the magnitude of its residual
    correlation, rebuild the sensing matrix through R = X W^2 X^H, and
    re-solve with the new constraint.

    `bases[i]`, when given and not None, is the plain selector's estimate
    of instance i with this `cfg`, used instead of solving it again; the
    other instances' plain selectors run as one call of `ds_estimates`, and
    the reweighted programs of all instances as another. Returns per
    instance its Estimate, or the ESTIMATOR_FAILURES exception it raised.
    """
    bases = list(bases) if bases is not None else [None] * len(instances)
    missing = [i for i, base in enumerate(bases) if base is None]
    for i, base in zip(missing, ds_estimates([instances[i] for i in missing], cfg)):
        bases[i] = base
    results, pending, jobs = [None] * len(instances), [], []
    for i, ((X, obs), base) in enumerate(zip(instances, bases)):
        if isinstance(base, Exception):
            results[i] = base
            continue
        Xm, y = X.matrix, obs.y
        residual = y - Xm @ base.h_hat
        w = np.abs(Xm.conj().T @ residual)
        if w.max(initial=0.0) <= 1e-12 * max(1.0, float(np.linalg.norm(y))):
            results[i] = Estimate(base.h_hat, {**base.diagnostics, "degenerate_weighting": True})
            continue
        lam = base.diagnostics["lambda"]
        try:
            X_alt, regularized = sds_weighting(Xm, w)
            jobs.append(_composite_programs(X_alt, Xm, y, lam))
        except ESTIMATOR_FAILURES as exc:
            results[i] = exc
            continue
        pending.append((i, base, w, regularized))
    for (i, base, w, regularized), solved in zip(pending, _solve_composite_selectors(jobs)):
        if isinstance(solved, Exception):
            results[i] = solved
            continue
        h, lp_info = solved
        results[i] = Estimate(h, {
            "lambda": base.diagnostics["lambda"],
            "l1_convention": "real_composite",
            "degenerate_weighting": False,
            "weighting_regularized": regularized,
            "weights": w,
            "normalization": "columnwise x_alt_i = R^-1 x_i / (x_i^H R^-1 x_i)",
            "base_lp_iterations": base.diagnostics["lp_iterations"],
            **lp_info,
        })
    return results


def sds_estimate(X: ToeplitzTraining, obs: Observation, cfg: EstimatorConfig,
                 base: Estimate | None = None) -> Estimate:
    """Reweighted selector on one instance (see `sds_estimates`); `base` is
    the plain selector's estimate when it was already computed on this
    instance with this `cfg`."""
    return _only(sds_estimates([(X, obs)], cfg, [base]))


def oracle_estimate(X: ToeplitzTraining, obs: Observation, true_support) -> Estimate:
    """Least squares restricted to the true support columns, zero elsewhere."""
    support = sorted(int(i) for i in set(true_support))
    Xm, y = X.matrix, obs.y
    N, L = Xm.shape
    if len(support) > N:
        raise ValueError(f"support size {len(support)} exceeds N={N}")
    if support and (support[0] < 0 or support[-1] >= L):
        raise ValueError("support indices out of range")
    h = np.zeros(L, dtype=np.complex128)
    if support:
        h[support] = least_squares_solve(Xm[:, support], y)
    return Estimate(h, {"support": support})


def run_estimator(
    method: str,
    X: ToeplitzTraining,
    obs: Observation,
    cfg: EstimatorConfig,
    true_support=None,
    true_sparsity: int | None = None,
) -> Estimate:
    """Dispatch a named estimator on one instance.

    The oracle requires `true_support`. OMP takes at most `true_sparsity`
    atoms (genie-aided stopping for comparison runs), min(N, L) if it is
    None. Runs over many instances, which let `sds` reuse a `ds` estimate,
    go through `ds_estimates` and `sds_estimates`.
    """
    if method == METHOD_LS:
        return ls_estimate(X, obs)
    if method == METHOD_OMP:
        return omp_estimate(X, obs, true_sparsity)
    if method == METHOD_LASSO:
        return lasso_estimate(X, obs, cfg)
    if method == METHOD_DS:
        return ds_estimate(X, obs, cfg)
    if method == METHOD_SDS:
        return sds_estimate(X, obs, cfg)
    if method == METHOD_ORACLE:
        if true_support is None:
            raise ValueError("oracle estimator needs the true support")
        return oracle_estimate(X, obs, true_support)
    raise ValueError(f"unknown estimator {method!r}; choose from {ALL_METHODS}")
