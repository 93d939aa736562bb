"""Self-contained linear-program solvers: a dense interior-point method and
a dual simplex for Dantzig-selector programs.

`solve_lp` solves   minimize c.x   subject to   A x <= b,  x >= 0

with a primal-dual path-following interior-point method (Mehrotra
predictor-corrector) on the homogeneous self-dual embedding. The embedding
gives clean certificates when the problem is infeasible or unbounded
instead of relying on divergence heuristics. Inequalities are converted
internally to equality form [A I] with slack variables; the normal equations
get a small diagonal regularization so redundant or degenerate constraints
do not need presolving. A program needs at least one row. The tolerance and
the iteration cap are the module constants TOLERANCE and MAX_ITERATIONS,
read at each call.

Each iteration factors the normal equations once, as in Andersen &
Andersen, "The MOSEK interior point optimizer for linear programming"
(2000), and solves with the factor twice: once with two columns, for the
(c, b) system and the predictor, which do not depend on each other, and
once for the corrector. One product each with [A I] and its transpose per
iterate gives both its residuals and its KKT report.

`solve_selectors` is the one way to solve Dantzig-selector programs, with
A = [[B, -B], [-B, B]] for a k x k block B. Their optimal vertex is small:
at the sweeps' sizes 6-19 active rows at k = 60 and 14-29 at k = 120. So
each program runs, one at a time, through a revised dual simplex whose
state is its active rows and basic columns (`_solve_vertex`), as the
parametric simplex of Pang et al., "Parametric simplex method for sparse
learning" (NeurIPS 2017), and the homotopy of Asif & Romberg, "Dantzig
selector homotopy with dynamic measurements" (SPIE 2009), follow the
selector's active set. That state lives in buffers kept in basis order,
made once per call for each size k, which a pivot updates by one write or
one shift each; the basis matrix is still factored from scratch at every
pivot. A pivot is a few dozen calls on vectors of a few hundred entries,
so the number of calls, not the arithmetic, sets its time, and the loop
and its KKT report keep that number down: ufuncs with `out=` into views
taken once per program, signs applied by a copy or a negation, `math` and
Python's `max` on scalars, and extremes read by `argmax`/`argmin` and
`.item`. They call neither numpy's Python-level function forms such as
`np.argmin` nor the ndarray methods `.max()`, `.min()` and `.sum()`,
which forward to numpy's Python module `_methods`. The pivot cap and
tolerances are the VERTEX_* constants. A program the simplex cannot
certify goes to `solve_lp` on its dense A. Sweeps hand it the programs of
one chunk of trials at a time (see `experiments`), which `estimators`
builds by one stacked product per quantity.

No external optimization library is used; linear algebra is numpy/scipy
factorizations only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgesv, dgetrs, dpotrf, dpotrs

TOLERANCE = 1e-8
MAX_ITERATIONS = 200

# The selector vertex solver (see `_solve_vertex`) gives up after this many
# pivots per constraint row. Its pivots grow with the program: at level 0 on
# noisy data they reach 1.2 per row at k = 120 and 2.5 per row at k = 512.
VERTEX_PIVOTS_PER_ROW = 5

# Its relative tolerances: how far below zero a basic variable may sit, how
# small a tableau entry may be and still pivot, and how far below zero a
# reduced cost may go in the ratio test.
VERTEX_FEASIBILITY = 1e-9
VERTEX_PIVOT = 1e-9
VERTEX_HARRIS = 1e-12

# Added to the diagonal of the normal equations each iteration; large enough
# to survive duplicated/degenerate rows, small enough not to perturb optima
# at the 1e-8 tolerance scale.
NORMAL_EQ_REGULARIZATION = 1e-10

# Fraction of the distance to the positivity boundary taken per step.
STEP_SCALE = 0.99995

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_ITERATION_LIMIT = "iteration_limit"


@dataclass(frozen=True)
class LinearProgram:
    """Standard-form LP with at least one row: minimize c.x, A x <= b, x >= 0."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=np.float64))
        A = np.asarray(self.A, dtype=np.float64)
        b = np.atleast_1d(np.asarray(self.b, dtype=np.float64))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("objective must be a non-empty 1-d vector")
        if A.shape != (b.shape[0], c.shape[0]):
            raise ValueError(
                f"shape mismatch: A is {A.shape}, expected ({b.shape[0]}, {c.shape[0]})"
            )
        if b.size == 0:
            raise ValueError("a linear program needs at least one constraint row, got none")
        for name, arr in (("c", c), ("A", A), ("b", b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains NaN or Inf entries")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class KktReport:
    """Scaled residuals of the returned point; NaN if the iterate went non-finite.

    For an optimal solution all three are at most the solver tolerance.
    For an infeasible or unbounded status they hold the certificate
    residuals of the homogeneous iterate instead: `primal_infeasibility`
    is the unbounded-ray residual ||A x - b tau|| and `dual_infeasibility`
    the Farkas residual ||c tau - A'y - z||, both scaled;
    `complementarity_gap` is the final barrier parameter.
    """

    primal_infeasibility: float
    dual_infeasibility: float
    complementarity_gap: float

    def max_residual(self) -> float:
        """The largest residual, or NaN if any residual is NaN."""
        residuals = (self.primal_infeasibility, self.dual_infeasibility, self.complementarity_gap)
        return math.nan if any(map(math.isnan, residuals)) else max(residuals)


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    objective_value: float
    status: str
    kkt_report: KktReport
    # IPM iterations, or simplex pivots for a selector program solved at its vertex.
    iterations: int
    # Multipliers of A x <= b, >= 0 up to the report's dual residual; meaningful if optimal.
    dual_values: np.ndarray | None = None
    # Whether a selector program went from the vertex solver to the dense IPM.
    fallback: bool = False


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve an inequality-form LP to TOLERANCE within MAX_ITERATIONS.

    `status == "optimal"` guarantees primal feasibility (A x <= b and
    x >= 0 up to tolerance), dual feasibility, and a relative duality gap
    at most TOLERANCE. `iteration_limit` is a non-error outcome: the last
    iterate is returned and the caller decides what to do with it. A is
    applied densely, whatever its structure, and never written to.
    """
    A, b = lp.A, lp.b
    m, n = A.shape
    # Equality form: [A I] [x; s] = b with x, s >= 0.
    c = np.concatenate([lp.c, np.zeros(m)])

    x = np.ones(n + m)
    y = np.zeros(m)
    z = np.ones(n + m)
    tau = kappa = 1.0

    r_p, r_d, r_g, mu, report = _residuals(A, b, c, x, y, z, tau, kappa)
    mu0 = mu
    norm_rp0 = max(1.0, np.linalg.norm(r_p))
    norm_rd0 = max(1.0, np.linalg.norm(r_d))
    norm_rg0 = max(1.0, abs(r_g))

    status = STATUS_ITERATION_LIMIT
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        d_x, d_y, d_z, d_tau, d_kappa = _search_direction(
            A, b, c, x, y, z, tau, kappa, r_p, r_d, r_g, mu
        )
        alpha = _step_to_boundary(x, d_x, z, d_z, tau, d_tau, kappa, d_kappa, STEP_SCALE)
        x = x + alpha * d_x
        y = y + alpha * d_y
        z = z + alpha * d_z
        tau = tau + alpha * d_tau
        kappa = kappa + alpha * d_kappa

        r_p, r_d, r_g, mu, report = _residuals(A, b, c, x, y, z, tau, kappa)
        if not (np.isfinite(x).all() and np.isfinite(z).all() and np.isfinite(tau) and tau > 0):
            report[:] = np.nan
            break
        if report.max() <= TOLERANCE:
            status = STATUS_OPTIMAL
            break
        small_homogeneous = (np.linalg.norm(r_p) / norm_rp0 < TOLERANCE
                             and np.linalg.norm(r_d) / norm_rd0 < TOLERANCE
                             and abs(r_g) / norm_rg0 < TOLERANCE)
        tau_collapsed = tau < TOLERANCE * np.maximum(1.0, kappa)
        tau_collapsed_strict = mu / mu0 < TOLERANCE and tau < TOLERANCE * np.minimum(1.0, kappa)
        if (small_homogeneous and tau_collapsed) or tau_collapsed_strict:
            status = STATUS_INFEASIBLE if b @ y > TOLERANCE else STATUS_UNBOUNDED
            break

    if status in (STATUS_OPTIMAL, STATUS_ITERATION_LIMIT):
        tau_safe = max(tau, np.finfo(float).tiny)
        x_out = x[:n] / tau_safe
        duals = -y / tau_safe
        kkt = KktReport(*(float(v) for v in report))
    else:
        # Certificate residuals of the homogeneous iterate.
        x_out = np.full(n, np.nan)
        duals = None
        kkt = KktReport(
            primal_infeasibility=float(np.linalg.norm(r_p, np.inf)
                                       / (1.0 + np.linalg.norm(b, np.inf))),
            dual_infeasibility=float(np.linalg.norm(r_d, np.inf)
                                     / (1.0 + np.linalg.norm(lp.c, np.inf))),
            complementarity_gap=float(mu),
        )
    objective = float(lp.c @ x_out) if np.all(np.isfinite(x_out)) else np.nan
    return LpSolution(x=x_out, objective_value=objective, status=status, kkt_report=kkt,
                      iterations=iterations, dual_values=duals)


def solve_selectors(programs) -> list[LpSolution]:
    """Solve Dantzig-selector programs, each a triple (B, d, lam) with B
    square: minimize ||g||_1 subject to ||d - B g||_inf <= lam.

    Each is the LP minimize 1.x, A x <= b, x >= 0 over x = [u; v], g = u - v,
    with A = [[B, -B], [-B, B]] and b = [lam + d; lam - d]. The programs
    run one at a time, each by the dual simplex of `_solve_vertex`, in
    buffers made once per call for each size k; a program it gives up on
    goes to `solve_lp` on the dense A, and its solution is marked
    `fallback`. The solutions come back in the order of `programs`.
    """
    solutions, buffers = [], {}
    for B, d, lam in programs:
        B, d = np.asarray(B, dtype=np.float64), np.asarray(d, dtype=np.float64)
        k = B.shape[0]
        b = np.concatenate([lam + d, lam - d])
        if k not in buffers:
            buffers[k] = _vertex_buffers(k)
        solution = _solve_vertex(B, b, buffers[k])
        if solution is None:
            A = np.empty((2 * k, 2 * k))
            A[:k, :k] = A[k:, k:] = B
            np.negative(B, out=A[:k, k:])
            A[k:, :k] = A[:k, k:]
            solution = replace(solve_lp(LinearProgram(c=[1.0] * (2 * k), A=A, b=b)),
                               fallback=True)
        solutions.append(solution)
    return solutions


def _vertex_buffers(k):
    """The buffers `_solve_vertex` works in for a k x k block B: R, S and
    S mod k; A_R = A[R, :k], A_S = A[:, S]', M = A[R, S] and b_R = b[R];
    the rows of the ratio test; and the right-hand sides of the tableau-row
    solve, whose first column stays 1. A solve uses no entry before it
    writes it, so programs of the same size can share them."""
    rhs = np.zeros((k + 1, 2))
    rhs[:, 0] = 1.0
    return (*np.zeros((3, k + 1), dtype=np.intp), np.zeros((k + 1, k)),
            np.zeros((k + 1, 2 * k)), np.zeros((k + 1, k + 1)), np.zeros(k + 1),
            np.zeros((2, 2 * k + 1)), rhs)


# The tableau row (multipliers and leaving row) of a basis with no active rows.
_NO_ROWS = np.zeros((2, 0))


def _abs_max(a):
    """max |a| as a float, NaN if a holds one: |a| peaks at a's largest or
    smallest entry, and argmax and argmin both point at the first NaN."""
    return max(abs(a.item(a.argmax())), abs(a.item(a.argmin())))


def _solve_vertex(B, b, buffers):
    """The optimal vertex of the selector program min 1.x, A x <= b, x >= 0,
    A = [[B, -B], [-B, B]], by a revised dual simplex, or None if it gives
    up: at VERTEX_PIVOTS_PER_ROW pivots per row, on an empty ratio test, on
    a singular basis or a basic solution that is not finite, or when the
    vertex's KktReport is above TOLERANCE.

    A[r, j] = sign[r] sign[j] B[r mod k, j mod k] with sign = +1 on the
    first half and -1 on the second, so A is never formed. The basis is the
    active rows R and the basic columns S, |R| = |S|, with the slacks of
    the other rows; it starts from the slack basis, which is dual feasible
    because c = 1. The basis lives in buffers kept in basis order, and a
    row or column that joins or leaves it costs one write or one
    order-keeping shift per buffer. Each pivot still factors M = A[R, S]
    from scratch for x_S and the multipliers y_R, so no error builds up.
    The leaving variable is the most negative basic slack or x_S; its row of
    the tableau comes from one solve with M', and Harris's two-pass ratio
    test picks the entering one among the nonbasic columns and the slacks
    of the active rows. The slack columns count as scale * I, scale the
    largest |B|, so that a slack's value, tableau entry and reduced cost
    have the units of a column's. Every tolerance is relative: to the
    largest |b| for slacks, to the largest basic |x| for columns, to the
    largest entry of the tableau row for pivots, and to c = 1 for reduced
    costs. So the pivots, and the vertex, do not change when B or
    (d, lam) is scaled. The loop makes as few numpy calls as it can (see
    the module docstring).

    A strided column is negated into a strided destination by multiplying
    it by -1, never by np.negative: numpy 2.4.6's float64 negative reads an
    input of byte stride 64 as contiguous when its output is strided, which
    a column of A_S (k = 4) or A_R (k = 8) has.
    """
    k = B.shape[0]
    scale = _abs_max(B)
    b_max = _abs_max(b)
    slack_tol = VERTEX_FEASIBILITY * b_max
    # The buffers (see `_vertex_buffers`) have k + 1 rows; column j of A is
    # sign[j] [B[:, j mod k]; -B[:, j mod k]]. A basis of k + 1 rows holds
    # both rows of some pair, so M is exactly singular and dgesv ends the
    # solve.
    R, S, S_k, A_R, A_S, M, b_R, ratio, rhs = buffers
    cost_k, step_k = ratio[:, :k]
    n = 0
    max_pivots = VERTEX_PIVOTS_PER_ROW * 2 * k
    for pivots in range(max_pivots + 1):
        slack, leave_col = b, False
        if n:
            lu, piv, x_S, info = dgesv(M[:n, :n], b_R[:n])
            p = x_S.argmin()
            x_p = x_S.item(p)
            # max |x_S|, NaN if x_S holds one (see `_abs_max`).
            x_max = max(x_S.item(x_S.argmax()), -x_p)
            if info or not math.isfinite(x_max):
                return None
            slack = b - x_S @ A_S[:n]
            slack[R[:n]] = 0.0
            leave_col = x_p < -VERTEX_FEASIBILITY * x_max
        q = slack.argmin()
        slack_q = slack.item(q)
        leave_row = slack_q < -slack_tol
        if leave_row and leave_col:
            leave_row = slack_q < scale * x_p
        elif not (leave_row or leave_col):
            break
        if pivots == max_pivots:
            return None
        # The leaving variable's row of the tableau (the basis inverse times
        # [A I]) is rho'A[R, :] (plus A[q, :] for a slack) on the columns and
        # rho on the slacks of R, with M' rho = -A[q, S]' for a slack and
        # M' rho = e_p for x_S[p]; the reduced costs are 1 - y_R'A[R, :] and
        # -y_R, with M' y_R = 1. The slacks' entries go to ratio[:, k:].
        solved = _NO_ROWS
        if n:
            if leave_row:
                np.multiply(A_S[:n, q], -1.0, out=rhs[:n, 1])
            else:
                rhs[:n, 1] = 0.0
                rhs[p, 1] = 1.0
            solved = dgetrs(lu, piv, rhs[:n], 1)[0].T
        corr, beta = solved @ A_R[:n]
        np.multiply(solved, -scale, out=ratio[:, k:k + n])
        if leave_row:
            if q < k:
                A_R[n] = B[q]
            else:
                np.negative(B[q - k], out=A_R[n])
            beta += A_R[n]
        # A leaving column goes from the basis buffers now: the ratio test
        # reads none of them but S mod k.
        cols = n
        if not leave_row:
            for buf in (S, S_k, A_S):
                buf[p:n - 1] = buf[p + 1:n]
            M[:n, p:n - 1] = M[:n, p + 1:n]
            cols -= 1
        # Column j of A carries sign[j] (corr, beta)[j mod k], so of the pair
        # x_i, x_(i+k) only the one with tableau entry -|beta_i| can enter,
        # at reduced cost 1 + sign(beta_i) corr_i. A basic column's entry is
        # 0, and so is its partner's, bar the leaving column's partner.
        np.abs(beta, out=step_k)
        np.sign(beta, out=cost_k)
        cost_k *= corr
        cost_k += 1.0
        step_k[S_k[:cols]] = 0.0
        cost, step = ratio[:, :k + n]
        magnitude = np.abs(step)
        limit = VERTEX_PIVOT * magnitude.item(magnitude.argmax())
        candidates = (step > limit).nonzero()[0]
        if not candidates.size:
            return None
        reduced, step = np.maximum(cost[candidates], 0.0), step[candidates]
        bounds = reduced + VERTEX_HARRIS
        bounds /= step
        bound = bounds.item(bounds.argmin())
        enter = candidates.item(((reduced / step <= bound) * step).argmax())
        # The entering variable comes in basis order.
        rows = n
        if leave_row:
            R[n], b_R[n], M[n, :n] = q, b[q], A_S[:n, q]
            rows += 1
        if enter < k:
            # x_enter enters when beta is negative, x_(enter+k) otherwise.
            column = B[:, enter]
            S_k[cols] = enter
            if beta[enter] < 0:
                S[cols] = enter
                A_S[cols, :k] = column
                np.negative(column, out=A_S[cols, k:])
                M[:rows, cols] = A_R[:rows, enter]
            else:
                S[cols] = enter + k
                np.negative(column, out=A_S[cols, :k])
                A_S[cols, k:] = column
                np.multiply(A_R[:rows, enter], -1.0, out=M[:rows, cols])
            n = cols + 1
        else:
            i = enter - k
            for buf in (R, b_R, A_R):
                buf[i:rows - 1] = buf[i + 1:rows]
            M[i:rows - 1, :cols] = M[i + 1:rows, :cols]
            n = rows - 1

    x, w = np.zeros(2 * k), np.zeros(2 * k)
    if n:
        x[S[:n]] = x_S
        w[R[:n]] = -dgetrs(lu, piv, rhs[:n, 0], 1)[0]
    # x.sum() without its `_methods` layer.
    objective = np.add.reduce(x)
    report = _selector_report(B, b, x, w, scale, b_max, objective)
    if not report.max_residual() <= TOLERANCE:
        return None
    return LpSolution(x=x, objective_value=float(objective), status=STATUS_OPTIMAL,
                      kkt_report=report, iterations=pivots, dual_values=w)


def _selector_report(B, b, x, w, scale, b_max, objective):
    """The IPM's scaled KKT residuals (see `_residuals`) of a selector
    program at the point x with multipliers w: the largest violation of
    A x <= b and x >= 0 over 1 + ||b||_inf, the largest negative reduced
    cost over 1 + ||c||_inf = 2, of a column, 1 + (A'w)_j, or of a slack
    column scale * e_i, scale * w_i, and the gap |1.x + b.w| over
    1 + |1.x|; b_max is ||b||_inf and objective is 1.x."""
    k = B.shape[0]
    t = B @ (x[:k] - x[k:])
    u = (w[:k] - w[k:]) @ B
    excess = np.concatenate([t, -t])
    excess -= b
    primal = max(excess.item(excess.argmax()), -x.item(x.argmin()), 0.0)
    dual = max(_abs_max(u) - 1.0, -scale * w.item(w.argmin()), 0.0)
    return KktReport(
        primal_infeasibility=float(primal / (1.0 + b_max)),
        dual_infeasibility=float(dual / 2.0),
        complementarity_gap=float(abs(objective + b @ w) / (1.0 + abs(objective))),
    )


def _residuals(A, b, c, x, y, z, tau, kappa):
    """Primal, dual and gap residuals and the barrier parameter mu of the
    homogeneous iterate, and the KKT report of its de-homogenized point as
    an array (primal, dual, gap), from one product each with [A I] and its
    transpose. With s the slack part of x, A x/tau - b = -(r_p + s)/tau;
    r_d/tau is the stationarity residual of the equality form, covering the
    reduced costs and the sign of the inequality multipliers. Iterates are
    interior, so x/tau >= 0 holds."""
    n = A.shape[1]
    cx, by = c @ x, b @ y
    r_p = b * tau - (A @ x[:n] + x[n:])
    r_d = c * tau - np.concatenate([y @ A, y]) - z
    primal = -(r_p + x[n:]) / tau
    report = np.array([
        np.max(primal, initial=0.0) / (1.0 + np.linalg.norm(b, np.inf)),
        np.linalg.norm(r_d, np.inf) / (tau * (1.0 + np.linalg.norm(c, np.inf))),
        abs(cx - by) / (tau + abs(cx)),
    ])
    mu = (x @ z + tau * kappa) / (x.size + 1)
    return r_p, r_d, cx - by + kappa, mu, report


def _normal_solver(A, d_inv):
    """solve(r) for the regularized normal equations
    [A I] D [A I]' v + eps v = (A D_x A' + D_s + eps I) v = r, with
    D = diag(d_inv) = diag(D_x, D_s); r and v are one column (m,) or rows
    of columns (j, m), all solved with one factor.

    If the Cholesky factor fails, the columns go to least squares one by
    one, so that a column's solution does not depend on the others. A
    factor fails when LAPACK reports it or its diagonal is not finite
    (OpenBLAS reports success on NaN and inf input); a matrix or right-hand
    side that is not finite gets a NaN solution, which ends the solve as
    non-finite, and never reaches least squares, which can spin without end
    on NaN.
    """
    n = A.shape[1]
    M = (A * d_inv[:n]) @ A.T
    M[np.diag_indices_from(M)] += d_inv[n:] + NORMAL_EQ_REGULARIZATION
    factor, info = dpotrf(M, lower=1, clean=0)
    if info or not np.isfinite(factor.diagonal()).all():
        factor = None

    def solve(r):
        if factor is not None:
            return dpotrs(factor, r.T, lower=1)[0].T
        if not (np.isfinite(M).all() and np.isfinite(r).all()):
            return np.full(r.shape, np.nan)
        return np.reshape([np.linalg.lstsq(M, col, rcond=None)[0]
                           for col in np.atleast_2d(r)], r.shape)

    return solve


def _search_direction(A, b, c, x, y, z, tau, kappa, r_p, r_d, r_g, mu):
    """Mehrotra predictor-corrector directions for the homogeneous systems.
    The (c, b) system and the predictor do not depend on each other and
    share one two-column solve; the corrector is a second, one-column one."""
    n = A.shape[1]
    d_inv = x / z
    solve = _normal_solver(A, d_inv)

    def sym_solve(r1, r2):
        # One column, or rows of columns: r1 is (n + m,) or (j, n + m).
        w = d_inv * r1
        v = solve(r2 + w[..., :n] @ A.T + w[..., n:])
        u = d_inv * (np.concatenate([v @ A, v], axis=-1) - r1)
        return u, v

    gamma = 0.0
    d_x = d_z = np.zeros_like(x)
    d_tau = d_kappa = 0.0
    for stage in range(2):
        eta = 1.0 - gamma
        rhat_p = eta * r_p
        rhat_d = eta * r_d
        rhat_g = eta * r_g
        # The predictor's direction is zero, so its products drop out there.
        rhat_xz = gamma * mu - x * z - d_x * d_z
        rhat_tk = gamma * mu - tau * kappa - d_tau * d_kappa

        if stage == 0:
            (p, u), (q, v) = sym_solve(np.stack([c, rhat_d - rhat_xz / x]),
                                       np.stack([b, rhat_p]))
            denom_tau = kappa / tau + (-c @ p + b @ q)
        else:
            u, v = sym_solve(rhat_d - rhat_xz / x, rhat_p)
        d_tau = (rhat_g + rhat_tk / tau - (-c @ u + b @ v)) / denom_tau
        d_x = u + p * d_tau
        d_y = v + q * d_tau
        d_z = (rhat_xz - z * d_x) / x
        d_kappa = (rhat_tk - kappa * d_tau) / tau

        if stage == 0:
            alpha = float(_step_to_boundary(x, d_x, z, d_z, tau, d_tau, kappa, d_kappa, 1.0))
            # In Python floats: C pow, which sets the published outputs, can
            # differ in the last bit from numpy's exact array square.
            gamma = (1.0 - alpha) ** 2 * min(0.1, 1.0 - alpha)

    return d_x, d_y, d_z, d_tau, d_kappa


def _step_to_boundary(x, d_x, z, d_z, tau, d_tau, kappa, d_kappa, scale):
    """Largest step in [0, 1] keeping (x, z, tau, kappa) positive."""
    v = np.concatenate([x, z, [tau, kappa]])
    d = np.concatenate([d_x, d_z, [d_tau, d_kappa]])
    ratio = np.divide(v, -d, out=np.full(v.shape, np.inf), where=d < 0)
    return np.minimum(1.0, scale * ratio.min())
