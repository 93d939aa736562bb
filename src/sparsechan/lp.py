"""Self-contained dense linear-program solver.

Solves   minimize c.x   subject to   A x <= b,  x >= 0

with a primal-dual path-following interior-point method (Mehrotra
predictor-corrector) on the homogeneous self-dual embedding. The embedding
gives clean certificates when the problem is infeasible or unbounded
instead of relying on divergence heuristics. Inequalities are converted
internally to equality form [A I] with slack variables; the normal equations
get a small diagonal regularization so redundant or degenerate constraints
do not need presolving.

A program needs at least one row. The tolerance and the iteration cap are
the module constants TOLERANCE and MAX_ITERATIONS, read at each call.

Each solve builds one operator from A, and the iteration reaches A only
through it: products with [A I] and its transpose, and the normal-equation
solve. For a constraint matrix of the Dantzig-selector form
[[B, -B], [-B, B]] (k x k blocks), recognised once per solve, the operator
works through B alone and solves the 2k x 2k normal equations through one
k x k Cholesky factor by block elimination, as l1-magic's `l1dantzig_pd`
does; any other matrix is applied densely. One product with [A I] and one
with its transpose per iterate give both its residuals and its KKT report.

No external optimization library is used; linear algebra is numpy/scipy
factorizations only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

TOLERANCE = 1e-8
MAX_ITERATIONS = 200

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
    iterate is returned and the caller decides what to do with it.
    """
    m, n = lp.A.shape

    # Equality form: [A I] [x; s] = b with x, s >= 0.
    op = _Operator(lp.A)
    b = lp.b
    c = np.concatenate([lp.c, np.zeros(m)])

    x = np.ones(n + m)
    y = np.zeros(m)
    z = np.ones(n + m)
    tau = 1.0
    kappa = 1.0

    r_p, r_d, r_g, mu, report = _residuals(op, b, c, x, y, z, tau, kappa)
    mu0 = mu
    norm_rp0 = max(1.0, np.linalg.norm(r_p))
    norm_rd0 = max(1.0, np.linalg.norm(r_d))
    norm_rg0 = max(1.0, abs(r_g))

    status = STATUS_ITERATION_LIMIT
    iterations = 0

    for iterations in range(1, MAX_ITERATIONS + 1):
        d_x, d_y, d_z, d_tau, d_kappa = _search_direction(
            op, b, c, x, y, z, tau, kappa, r_p, r_d, r_g, mu
        )
        alpha = _step_to_boundary(x, d_x, z, d_z, tau, d_tau, kappa, d_kappa, STEP_SCALE)
        x = x + alpha * d_x
        y = y + alpha * d_y
        z = z + alpha * d_z
        tau = tau + alpha * d_tau
        kappa = kappa + alpha * d_kappa

        if not (
            np.all(np.isfinite(x)) and np.all(np.isfinite(z)) and np.isfinite(tau) and tau > 0
        ):
            report = KktReport(np.nan, np.nan, np.nan)
            break

        r_p, r_d, r_g, mu, report = _residuals(op, b, c, x, y, z, tau, kappa)
        rho_p = np.linalg.norm(r_p) / norm_rp0
        rho_d = np.linalg.norm(r_d) / norm_rd0
        rho_g = abs(r_g) / norm_rg0
        rho_mu = mu / mu0

        if report.max_residual() <= TOLERANCE:
            status = STATUS_OPTIMAL
            break

        small_homogeneous = rho_p < TOLERANCE and rho_d < TOLERANCE and rho_g < TOLERANCE
        tau_collapsed = tau < TOLERANCE * max(1.0, kappa)
        tau_collapsed_strict = rho_mu < TOLERANCE and tau < TOLERANCE * min(1.0, kappa)
        if (small_homogeneous and tau_collapsed) or tau_collapsed_strict:
            status = STATUS_INFEASIBLE if b @ y > TOLERANCE else STATUS_UNBOUNDED
            break

    if status in (STATUS_OPTIMAL, STATUS_ITERATION_LIMIT):
        tau_safe = max(tau, np.finfo(float).tiny)
        x_out = x[:n] / tau_safe
        duals = -y / tau_safe
    else:
        # Certificate residuals of the homogeneous iterate.
        x_out = np.full(n, np.nan)
        duals = None
        report = KktReport(
            primal_infeasibility=float(
                np.linalg.norm(r_p, np.inf) / (1.0 + np.linalg.norm(b, np.inf))
            ),
            dual_infeasibility=float(
                np.linalg.norm(r_d, np.inf) / (1.0 + np.linalg.norm(lp.c, np.inf))
            ),
            complementarity_gap=float(mu),
        )

    objective = float(lp.c @ x_out) if np.all(np.isfinite(x_out)) else np.nan
    return LpSolution(
        x=x_out,
        objective_value=objective,
        status=status,
        kkt_report=report,
        iterations=iterations,
        dual_values=duals,
    )


def _residuals(op, b, c, x, y, z, tau, kappa):
    """Primal, dual and gap residuals and the barrier parameter mu of the
    homogeneous iterate, and the KktReport of its de-homogenized point, from
    one product each with [A I] and its transpose. With s the slack part of
    x, A x/tau - b = -(r_p + s)/tau; r_d/tau is the stationarity residual of
    the equality form, covering the reduced costs and the sign of the
    inequality multipliers. Iterates are interior, so x/tau >= 0 holds."""
    cx, by = c @ x, b @ y
    r_p = b * tau - op(x)
    r_d = c * tau - op.T(y) - z
    primal = -(r_p + x[x.shape[0] - b.shape[0]:]) / tau
    report = KktReport(
        primal_infeasibility=float(np.max(primal, initial=0.0))
        / (1.0 + np.linalg.norm(b, np.inf)),
        dual_infeasibility=float(np.linalg.norm(r_d, np.inf))
        / (tau * (1.0 + np.linalg.norm(c, np.inf))),
        complementarity_gap=float(abs(cx - by) / (tau + abs(cx))),
    )
    mu = (x @ z + tau * kappa) / (x.shape[0] + 1)
    return r_p, r_d, cx - by + kappa, mu, report


def _selector_block(A):
    """B when A is exactly [[B, -B], [-B, B]] with square blocks, else None."""
    m, n = A.shape
    if m != n or m % 2:
        return None
    k = m // 2
    B = A[:k, :k]
    if (np.array_equal(A[:k, k:], -B) and np.array_equal(A[k:, :k], -B)
            and np.array_equal(A[k:, k:], B)):
        return B
    return None


class _Operator:
    """The equality-form matrix [A I] of one program, never formed: op(x) is
    [A I] x and op.T(y) is [A I]' y, applied through A, or through B alone
    when A = [[B, -B], [-B, B]], where A [u; v] = [B (u - v); -B (u - v)]."""

    def __init__(self, A):
        self.A = A
        self.B = _selector_block(A)

    def __call__(self, x):
        n = self.A.shape[1]
        if self.B is None:
            return self.A @ x[:n] + x[n:]
        t = self.B @ (x[:n // 2] - x[n // 2:n])
        return np.concatenate([t, -t]) + x[n:]

    def T(self, y):
        if self.B is None:
            return np.concatenate([self.A.T @ y, y])
        t = self.B.T @ (y[:y.shape[0] // 2] - y[y.shape[0] // 2:])
        return np.concatenate([t, -t, y])

    def solver(self, d_inv):
        """solve(r) for the regularized normal equations
        [A I] D [A I]' v + eps v = (A D_x A' + D_s + eps I) v = r, with
        D = diag(d_inv) = diag(D_x, D_s).

        With A = [[B, -B], [-B, B]] the matrix is [[K + S1, -K], [-K, K + S2]]
        with K = B diag(d_u + d_v) B' and S1, S2 the slack scalings plus eps.
        For w = v1 - v2 it reduces to the k x k system
        (K + S1 S2 / (S1 + S2)) w = (S2 r1 - S1 r2) / (S1 + S2), and then
        v1 = (r1 + r2 + S2 w) / (S1 + S2), v2 = v1 - w. This recovery never
        divides by S1 or S2 alone: those go to 0 on active rows while B = X'X
        is rank-deficient, and v1 = S1^-1 (r1 - K w) stalls the iteration
        there. In exact arithmetic the dense matrix is positive definite
        exactly when the k x k one is, so a failed k x k factor goes straight
        to least squares on the dense matrix; any other program tries a dense
        Cholesky factor first.
        """
        n = self.A.shape[1]
        s = d_inv[n:] + NORMAL_EQ_REGULARIZATION
        if self.B is not None:
            k = n // 2
            s1, s2 = s[:k], s[k:]
            s_sum = s1 + s2
            G = (self.B * (d_inv[:k] + d_inv[k:n])) @ self.B.T
            G[np.diag_indices_from(G)] += s1 * s2 / s_sum
            factor, info = dpotrf(G, lower=0, clean=0)
            if info == 0:

                def solve(r):
                    r1, r2 = r[:k], r[k:]
                    w = dpotrs(factor, (s2 * r1 - s1 * r2) / s_sum, lower=0)[0]
                    v1 = (r1 + r2 + s2 * w) / s_sum
                    return np.concatenate([v1, v1 - w])

                return solve

        M = (self.A * d_inv[:n]) @ self.A.T
        M[np.diag_indices_from(M)] += s
        if self.B is None:
            factor, info = dpotrf(M, lower=0, clean=0)
            if info == 0:
                return lambda r: dpotrs(factor, r, lower=0)[0]
        return lambda r: np.linalg.lstsq(M, r, rcond=None)[0]


def _search_direction(op, b, c, x, y, z, tau, kappa, r_p, r_d, r_g, mu):
    """Mehrotra predictor-corrector direction for the homogeneous system."""
    d_inv = x / z
    solve = op.solver(d_inv)

    def sym_solve(r1, r2):
        v = solve(r2 + op(d_inv * r1))
        u = d_inv * (op.T(v) - r1)
        return u, v

    p, q = sym_solve(c, b)
    denom_tau = kappa / tau + (-c @ p + b @ q)

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

        u, v = sym_solve(rhat_d - rhat_xz / x, rhat_p)
        d_tau = (rhat_g + rhat_tk / tau - (-c @ u + b @ v)) / denom_tau
        d_x = u + p * d_tau
        d_y = v + q * d_tau
        d_z = (rhat_xz - z * d_x) / x
        d_kappa = (rhat_tk - kappa * d_tau) / tau

        if stage == 0:
            alpha = _step_to_boundary(x, d_x, z, d_z, tau, d_tau, kappa, d_kappa, 1.0)
            gamma = (1.0 - alpha) ** 2 * min(0.1, 1.0 - alpha)

    return d_x, d_y, d_z, d_tau, d_kappa


def _step_to_boundary(x, d_x, z, d_z, tau, d_tau, kappa, d_kappa, scale):
    """Largest step in [0, 1] keeping (x, z, tau, kappa) positive."""
    v = np.concatenate([x, z, [tau, kappa]])
    d = np.concatenate([d_x, d_z, [d_tau, d_kappa]])
    neg = d < 0
    return min(1.0, scale * float(np.min(v[neg] / -d[neg], initial=np.inf)))
