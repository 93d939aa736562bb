"""Self-contained dense linear-program solver, run on stacks of programs.

Solves   minimize c.x   subject to   A x <= b,  x >= 0

with a primal-dual path-following interior-point method (Mehrotra
predictor-corrector) on the homogeneous self-dual embedding. The embedding
gives clean certificates when the problem is infeasible or unbounded
instead of relying on divergence heuristics. Inequalities are converted
internally to equality form [A I] with slack variables; the normal equations
get a small diagonal regularization so redundant or degenerate constraints
do not need presolving.

A program needs at least one row. The tolerance, the iteration cap and the
batch cap are the module constants TOLERANCE, MAX_ITERATIONS and
BATCH_BYTES, read at each call.

One loop runs a whole stack of programs of the same shape, as OptNet (Amos
& Kolter, 2017) batches its primal-dual method: each program is one row of
the stacked iterates, residuals, step lengths and stopping tests, has its
own normal-equation factor, and leaves the stack as soon as it is optimal,
infeasible, unbounded or non-finite. All arithmetic is row by row, so a
program's result does not depend, to the bit, on the stack it ran in. Each
iteration factors every program's normal equations once, as in Andersen &
Andersen, "The MOSEK interior point optimizer for linear programming"
(2000), and solves with the factor twice: once with two columns, for the
(c, b) system and the predictor, which do not depend on each other, and
once for the corrector.

The loop reaches the constraint matrices only through an operator: products
with [A I] and its transpose, and the normal-equation solve. `solve_lp`
applies its A densely, as a stack of one. `solve_selectors` is the one way
to the Dantzig-selector operator: for matrices [[B, -B], [-B, B]] (k x k
blocks) it holds the stacked B alone and solves the 2k x 2k normal
equations through one k x k Cholesky factor per program by block
elimination, as l1-magic's `l1dantzig_pd` does. The k x k matrix
B diag(d) B' is formed as a symmetric rank-k update (BLAS syrk) of
B diag(sqrt(d)) and factored as L L' with L lower triangular. Sweeps hand
it the programs of one chunk of trials at a time (see `experiments`). One
product with [A I] and one with its transpose per iterate give both its
residuals and its KKT report.

No external optimization library is used; linear algebra is numpy/scipy
factorizations only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

TOLERANCE = 1e-8
MAX_ITERATIONS = 200

# Bytes of k x k matrices (each program's block B and its normal matrix)
# that one stack of selector programs may hold; larger calls run as several
# stacks of near-equal size. At 2 MiB the 8 complex programs (k = 120) of a
# sweep chunk make one stack.
BATCH_BYTES = 2 << 20

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
        return max(self.primal_infeasibility, self.dual_infeasibility, self.complementarity_gap)


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    objective_value: float
    status: str
    kkt_report: KktReport
    iterations: int
    # Multipliers of A x <= b, >= 0 up to the report's dual residual; meaningful if optimal.
    dual_values: np.ndarray | None = None


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve an inequality-form LP to TOLERANCE within MAX_ITERATIONS.

    `status == "optimal"` guarantees primal feasibility (A x <= b and
    x >= 0 up to tolerance), dual feasibility, and a relative duality gap
    at most TOLERANCE. `iteration_limit` is a non-error outcome: the last
    iterate is returned and the caller decides what to do with it. A is
    applied densely, whatever its structure.
    """
    return _solve_stack(_Operator(A=lp.A[None].copy()), lp.b[None], lp.c[None])[0]


def solve_selectors(programs) -> list[LpSolution]:
    """Solve Dantzig-selector programs, each a triple (B, d, lam) with B
    square: minimize ||g||_1 subject to ||d - B g||_inf <= lam.

    Each is the LP minimize 1.x, A x <= b, x >= 0 over x = [u; v], g = u - v,
    with A = [[B, -B], [-B, B]] and b = [lam + d; lam - d], solved as by
    `solve_lp` but through the k x k normal equations of B: both meet the
    same stopping test, not the same bits. Programs with the same size of B
    run as stacks (see BATCH_BYTES); the solutions come back in the order
    of `programs`.
    """
    solutions = [None] * len(programs)
    by_size = {}
    for i, (B, _d, _lam) in enumerate(programs):
        by_size.setdefault(np.shape(B)[0], []).append(i)
    for k, members in by_size.items():
        per_stack = max(1, BATCH_BYTES // (2 * 8 * k * k))
        for batch in np.array_split(members, -(-len(members) // per_stack)):
            B = np.array([programs[i][0] for i in batch], dtype=np.float64)
            d = np.array([programs[i][1] for i in batch], dtype=np.float64)
            lam = np.array([programs[i][2] for i in batch], dtype=np.float64)[:, None]
            b = np.concatenate([lam + d, lam - d], axis=1)
            stack = _solve_stack(_Operator(B=B), b, np.ones((len(batch), 2 * k)))
            for i, solution in zip(batch, stack):
                solutions[i] = solution
    return solutions


def _dot(a, b):
    """Row-wise inner products of two stacks of vectors, each as the BLAS
    dot product of its two rows."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _norm(a):
    """Row-wise 2-norms, each as np.linalg.norm of its row alone."""
    return np.sqrt(_dot(a, a))


def _solve_stack(op, b, c) -> list[LpSolution]:
    """Run the iteration on the stack of programs with constraint operator
    `op`, right-hand sides b (P, m) and objectives c (P, n); one solution
    per program, in order. A program leaves the stack when it stops, and
    `op` with it."""
    P, m = b.shape
    n = c.shape[1]
    # Equality form: [A I] [x; s] = b with x, s >= 0.
    c = np.concatenate([c, np.zeros((P, m))], axis=1)

    x = np.ones((P, n + m))
    y = np.zeros((P, m))
    z = np.ones((P, n + m))
    tau = np.ones(P)
    kappa = np.ones(P)

    r_p, r_d, r_g, mu, report = _residuals(op, b, c, x, y, z, tau, kappa)
    mu0 = mu
    norm_rp0 = np.maximum(1.0, _norm(r_p))
    norm_rd0 = np.maximum(1.0, _norm(r_d))
    norm_rg0 = np.maximum(1.0, np.abs(r_g))

    rows = np.arange(P)  # the program in each row of the stack
    status = np.full(P, STATUS_ITERATION_LIMIT, dtype=object)
    solutions = [None] * P

    def finish(done, iterations):
        for row in np.flatnonzero(done):
            if status[row] in (STATUS_OPTIMAL, STATUS_ITERATION_LIMIT):
                tau_safe = max(tau[row], np.finfo(float).tiny)
                x_out = x[row, :n] / tau_safe
                duals = -y[row] / tau_safe
                kkt = KktReport(*(float(v) for v in report[:, row]))
            else:
                # Certificate residuals of the homogeneous iterate.
                x_out = np.full(n, np.nan)
                duals = None
                kkt = KktReport(
                    primal_infeasibility=float(np.linalg.norm(r_p[row], np.inf)
                                               / (1.0 + np.linalg.norm(b[row], np.inf))),
                    dual_infeasibility=float(np.linalg.norm(r_d[row], np.inf)
                                             / (1.0 + np.linalg.norm(c[row, :n], np.inf))),
                    complementarity_gap=float(mu[row]),
                )
            objective = float(c[row, :n] @ x_out) if np.all(np.isfinite(x_out)) else np.nan
            solutions[rows[row]] = LpSolution(
                x=x_out, objective_value=objective, status=status[row], kkt_report=kkt,
                iterations=iterations, dual_values=duals)

    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        d_x, d_y, d_z, d_tau, d_kappa = _search_direction(
            op, b, c, x, y, z, tau, kappa, r_p, r_d, r_g, mu
        )
        alpha = _step_to_boundary(x, d_x, z, d_z, tau, d_tau, kappa, d_kappa, STEP_SCALE)
        x = x + alpha[:, None] * d_x
        y = y + alpha[:, None] * d_y
        z = z + alpha[:, None] * d_z
        tau = tau + alpha * d_tau
        kappa = kappa + alpha * d_kappa

        finite = (np.isfinite(x).all(axis=1) & np.isfinite(z).all(axis=1)
                  & np.isfinite(tau) & (tau > 0))
        r_p, r_d, r_g, mu, report = _residuals(op, b, c, x, y, z, tau, kappa)
        report[:, ~finite] = np.nan
        rho_p = _norm(r_p) / norm_rp0
        rho_d = _norm(r_d) / norm_rd0
        rho_g = np.abs(r_g) / norm_rg0
        rho_mu = mu / mu0

        optimal = finite & (report.max(axis=0) <= TOLERANCE)
        small_homogeneous = (rho_p < TOLERANCE) & (rho_d < TOLERANCE) & (rho_g < TOLERANCE)
        tau_collapsed = tau < TOLERANCE * np.maximum(1.0, kappa)
        tau_collapsed_strict = (rho_mu < TOLERANCE) & (tau < TOLERANCE * np.minimum(1.0, kappa))
        certified = finite & ~optimal & ((small_homogeneous & tau_collapsed) | tau_collapsed_strict)
        status[optimal] = STATUS_OPTIMAL
        status[certified] = np.where(_dot(b, y) > TOLERANCE, STATUS_INFEASIBLE,
                                     STATUS_UNBOUNDED)[certified]
        done = ~finite | optimal | certified
        if not done.any():
            continue
        finish(done, iterations)
        if done.all():
            return solutions
        keep = ~done
        op.keep(keep)
        rows, status = rows[keep], status[keep]
        b, c, x, y, z, r_p, r_d = (a[keep] for a in (b, c, x, y, z, r_p, r_d))
        tau, kappa, r_g, mu, mu0 = (a[keep] for a in (tau, kappa, r_g, mu, mu0))
        norm_rp0, norm_rd0, norm_rg0 = (a[keep] for a in (norm_rp0, norm_rd0, norm_rg0))
        report = report[:, keep]

    finish(np.ones(rows.size, dtype=bool), iterations)
    return solutions


def _residuals(op, b, c, x, y, z, tau, kappa):
    """Primal, dual and gap residuals and the barrier parameter mu of the
    homogeneous iterates, and the KKT report of their de-homogenized points
    as rows (primal, dual, gap) of one array, from one product each with
    [A I] and its transpose. With s the slack part of x, A x/tau - b =
    -(r_p + s)/tau; r_d/tau is the stationarity residual of the equality
    form, covering the reduced costs and the sign of the inequality
    multipliers. Iterates are interior, so x/tau >= 0 holds."""
    m = b.shape[1]
    cx, by = _dot(c, x), _dot(b, y)
    r_p = b * tau[:, None] - op(x)
    r_d = c * tau[:, None] - op.T(y) - z
    primal = -(r_p + x[:, x.shape[1] - m:]) / tau[:, None]
    report = np.stack([
        np.max(primal, axis=1, initial=0.0) / (1.0 + np.linalg.norm(b, np.inf, axis=1)),
        np.linalg.norm(r_d, np.inf, axis=1) / (tau * (1.0 + np.linalg.norm(c, np.inf, axis=1))),
        np.abs(cx - by) / (tau + np.abs(cx)),
    ])
    mu = (_dot(x, z) + tau * kappa) / (x.shape[1] + 1)
    return r_p, r_d, cx - by + kappa, mu, report


class _Operator:
    """The equality-form matrices [A_p I] of a stack of programs, never
    formed: op(x) stacks the [A_p I] x_p and op.T(y) the [A_p I]' y_p.

    It holds either A, a (P, m, n) stack applied as it is, or B, a
    (P, k, k) stack of selector blocks with A_p = [[B_p, -B_p], [-B_p, B_p]],
    applied through B alone: A_p [u; v] = [B_p (u - v); -B_p (u - v)]. The
    stack is the operator's own; `keep` compacts it in place.
    """

    def __init__(self, A=None, B=None):
        self.A, self.B = A, B
        if B is None:
            self.n = A.shape[2]
        else:
            self.n = 2 * B.shape[2]
            self._scaled = np.empty_like(B[0])
            self._normal = np.empty_like(B)

    def keep(self, mask):
        """Drop the programs where `mask` is False, moving the others
        forward in the same buffer."""
        stack = self.A if self.B is None else self.B
        kept = np.flatnonzero(mask)
        for j, i in enumerate(kept):
            if i != j:
                stack[j] = stack[i]
        if self.B is None:
            self.A = stack[:kept.size]
        else:
            self.B = stack[:kept.size]

    def __call__(self, x):
        if x.ndim == 2:
            return self(x[:, None])[:, 0]
        n = self.n
        if self.B is None:
            return np.matmul(x[..., :n], self.A.transpose(0, 2, 1)) + x[..., n:]
        t = np.matmul(x[..., :n // 2] - x[..., n // 2:n], self.B.transpose(0, 2, 1))
        return np.concatenate([t, -t], axis=2) + x[..., n:]

    def T(self, y):
        if y.ndim == 2:
            return self.T(y[:, None])[:, 0]
        if self.B is None:
            return np.concatenate([np.matmul(y, self.A), y], axis=2)
        k = y.shape[2] // 2
        t = np.matmul(y[..., :k] - y[..., k:], self.B)
        return np.concatenate([t, -t, y], axis=2)

    def solver(self, d_inv):
        """solve(r) for the regularized normal equations of every program,
        [A I] D [A I]' v + eps v = (A D_x A' + D_s + eps I) v = r, with
        D = diag(d_inv) = diag(D_x, D_s); rows of d_inv belong to the
        programs of the stack, and r and v are (P, m) or stacks of columns
        (P, j, m), all j columns solved with one factor per program.

        With A = [[B, -B], [-B, B]] the matrix is [[K + S1, -K], [-K, K + S2]]
        with K = B diag(d_u + d_v) B' and S1, S2 the slack scalings plus eps.
        For w = v1 - v2 it reduces to the k x k system
        (K + S1 S2 / (S1 + S2)) w = (S2 r1 - S1 r2) / (S1 + S2), and then
        v1 = (r1 + r2 + S2 w) / (S1 + S2), v2 = v1 - w. This recovery never
        divides by S1 or S2 alone: those go to 0 on active rows while B = X'X
        is rank-deficient, and v1 = S1^-1 (r1 - K w) stalls the iteration
        there. K is formed as C C' with C = B diag(sqrt(d_u + d_v)), which
        numpy computes as a symmetric rank-k update (BLAS syrk), and factored
        as L L' with L lower triangular. In exact arithmetic the dense matrix
        is positive definite exactly when the k x k one is, so a program whose
        k x k factor fails goes straight to least squares on its dense
        matrix; any other program tries a dense Cholesky factor first. A
        negative scaling has no square root, so its program fails the k x k
        factor. A factor fails when LAPACK reports it or its diagonal is not
        finite (OpenBLAS reports success on NaN and inf input); a program
        whose dense matrix or right-hand side is not finite gets a NaN
        solution, which ends it as non-finite. Each program's failure stays
        its own.
        """
        P = d_inv.shape[0]
        n = self.n
        s = d_inv[:, n:] + NORMAL_EQ_REGULARIZATION
        factors = [None] * P
        dense = {}
        if self.B is not None:
            k = n // 2
            s1, s2 = s[:, None, :k], s[:, None, k:]
            s_sum = s1 + s2
            shift = (s1 * s2 / s_sum)[:, 0]
            with np.errstate(invalid="ignore"):
                root = np.sqrt(d_inv[:, :k] + d_inv[:, k:n])
            for i in range(P):
                # The syrk product fills both triangles, so K is symmetric to
                # the bit and its buffer read in Fortran order is K itself,
                # factored in place.
                np.multiply(self.B[i], root[i], out=self._scaled)
                K = np.matmul(self._scaled, self._scaled.T, out=self._normal[i])
                K.reshape(-1)[::k + 1] += shift[i]
                factors[i] = _cholesky(K.T, overwrite=True)
                if factors[i] is None:
                    A = np.block([[self.B[i], -self.B[i]], [-self.B[i], self.B[i]]])
                    M = (A * d_inv[i, :n]) @ A.T
                    M[np.diag_indices_from(M)] += s[i]
                    dense[i] = M
        else:
            M = np.matmul(self.A * d_inv[:, None, :n], self.A.transpose(0, 2, 1))
            M.reshape(P, -1)[:, ::M.shape[1] + 1] += s
            for i in range(P):
                factors[i] = _cholesky(M[i])
                if factors[i] is None:
                    dense[i] = M[i]

        selector = self.B is not None

        def solve(r):
            cols = r if r.ndim == 3 else r[:, None]
            if selector:
                r1, r2 = cols[..., :k], cols[..., k:]
                rhs = (s2 * r1 - s1 * r2) / s_sum
            else:
                rhs = cols
            w = np.zeros_like(rhs)
            for i, factor in enumerate(factors):
                if factor is not None:
                    w[i] = dpotrs(factor, rhs[i].T, lower=1)[0].T
            if selector:
                v1 = (r1 + r2 + s2 * w) / s_sum
                v = np.concatenate([v1, v1 - w], axis=2)
            else:
                v = w
            for i, M in dense.items():
                # Column by column: a column's least-squares solution then
                # does not depend on the others.
                if np.isfinite(M).all() and np.isfinite(cols[i]).all():
                    v[i] = [np.linalg.lstsq(M, col, rcond=None)[0] for col in cols[i]]
                else:
                    v[i] = np.nan
            return v if r.ndim == 3 else v[:, 0]

        return solve


def _cholesky(M, overwrite=False):
    """The lower Cholesky factor of symmetric M, or None if it fails."""
    factor, info = dpotrf(M, lower=1, clean=0, overwrite_a=overwrite)
    return factor if info == 0 and np.isfinite(factor.diagonal()).all() else None


def _search_direction(op, b, c, x, y, z, tau, kappa, r_p, r_d, r_g, mu):
    """Mehrotra predictor-corrector directions for the homogeneous systems.
    The (c, b) system and the predictor do not depend on each other and
    share one two-column solve; the corrector is a second, one-column one."""
    d_inv = x / z
    solve = op.solver(d_inv)

    def sym_solve(r1, r2):
        # Stacks of columns: r1 is (P, j, n + m) and r2 is (P, j, m).
        v = solve(r2 + op(d_inv[:, None] * r1))
        u = d_inv[:, None] * (op.T(v) - r1)
        return u, v

    gamma = np.zeros_like(tau)
    d_x = d_z = np.zeros_like(x)
    d_tau = d_kappa = np.zeros_like(tau)
    for stage in range(2):
        eta = 1.0 - gamma
        rhat_p = eta[:, None] * r_p
        rhat_d = eta[:, None] * r_d
        rhat_g = eta * r_g
        # The predictor's direction is zero, so its products drop out there.
        gamma_mu = gamma * mu
        rhat_xz = gamma_mu[:, None] - x * z - d_x * d_z
        rhat_tk = gamma_mu - tau * kappa - d_tau * d_kappa

        if stage == 0:
            u, v = sym_solve(np.stack([c, rhat_d - rhat_xz / x], axis=1),
                             np.stack([b, rhat_p], axis=1))
            p, u, q, v = u[:, 0], u[:, 1], v[:, 0], v[:, 1]
            denom_tau = kappa / tau + (_dot(-c, p) + _dot(b, q))
        else:
            u, v = (a[:, 0] for a in sym_solve((rhat_d - rhat_xz / x)[:, None],
                                                rhat_p[:, None]))
        d_tau = (rhat_g + rhat_tk / tau - (_dot(-c, u) + _dot(b, v))) / denom_tau
        d_x = u + p * d_tau[:, None]
        d_y = v + q * d_tau[:, None]
        d_z = (rhat_xz - z * d_x) / x
        d_kappa = (rhat_tk - kappa * d_tau) / tau

        if stage == 0:
            alpha = _step_to_boundary(x, d_x, z, d_z, tau, d_tau, kappa, d_kappa, 1.0)
            # Per row in floats: C pow, which sets the published outputs,
            # can differ in the last bit from numpy's exact array square.
            gamma = np.array([(1.0 - a) ** 2 * min(0.1, 1.0 - a) for a in alpha.tolist()])

    return d_x, d_y, d_z, d_tau, d_kappa


def _step_to_boundary(x, d_x, z, d_z, tau, d_tau, kappa, d_kappa, scale):
    """Largest step in [0, 1] per program keeping (x, z, tau, kappa) positive."""
    v = np.concatenate([x, z, tau[:, None], kappa[:, None]], axis=1)
    d = np.concatenate([d_x, d_z, d_tau[:, None], d_kappa[:, None]], axis=1)
    neg = d < 0
    ratio = np.divide(v, -d, out=np.full(v.shape, np.inf), where=neg)
    return np.minimum(1.0, scale * ratio.min(axis=1))
