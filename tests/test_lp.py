"""Tests for the interior-point LP solver, checked against brute-force
vertex enumeration on small problems."""

import gc
import os
import subprocess
import sys
import weakref
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from conftest import enumerate_lp_vertices, random_bounded_lp
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsechan import lp as lp_module
from sparsechan.estimators import EstimatorConfig, run_estimator
from sparsechan.experiments import ExperimentConfig, make_instance
from sparsechan.lp import LinearProgram, solve_lp


class TestTrivialPrograms:
    def test_single_lower_bound(self):
        sol = solve_lp(LinearProgram(c=[1.0], A=[[-1.0]], b=[-1.0]))
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0, abs=1e-7)
        assert sol.objective_value == pytest.approx(1.0, abs=1e-7)

    def test_box_vertex(self):
        sol = solve_lp(
            LinearProgram(c=[-1.0, -1.0], A=[[1.0, 0.0], [0.0, 1.0]], b=[1.0, 1.0])
        )
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-7)
        assert sol.objective_value == pytest.approx(-2.0, abs=1e-7)

    def test_infeasible_detected(self):
        sol = solve_lp(LinearProgram(c=[1.0], A=[[1.0]], b=[-1.0]))
        assert sol.status == "infeasible"

    def test_unbounded_detected(self):
        sol = solve_lp(LinearProgram(c=[-1.0], A=[[-1.0]], b=[-1.0]))
        assert sol.status == "unbounded"

    def test_no_constraints(self):
        # Every selector program has rows; a program without any is rejected.
        with pytest.raises(ValueError, match="at least one constraint row"):
            LinearProgram(c=[2.0, 0.5], A=np.zeros((0, 2)), b=[])


class TestInputValidation:
    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(c=[np.nan], A=[[1.0]], b=[1.0])

    def test_inf_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(c=[1.0], A=[[np.inf]], b=[1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(c=[1.0, 2.0], A=[[1.0]], b=[1.0])



class TestAgainstVertexEnumeration:
    def test_fifty_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            lp = random_bounded_lp(rng)
            sol = solve_lp(lp)
            ref_val, _ = enumerate_lp_vertices(lp.c, lp.A, lp.b)
            assert sol.status == "optimal"
            assert abs(sol.objective_value - ref_val) <= 1e-7
            assert sol.kkt_report.max_residual() <= 1e-8


class TestSolutionProperties:
    def test_complementary_slackness(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            lp = random_bounded_lp(rng)
            sol = solve_lp(lp)
            assert sol.status == "optimal"
            slack = lp.b - lp.A @ sol.x
            products = np.abs(slack * sol.dual_values)
            assert products.max() <= 1e-6 * max(1.0, abs(sol.objective_value))

    def test_objective_scaling_leaves_argmin(self):
        rng = np.random.default_rng(22)
        for scale in (3.0, 0.25, 117.0):
            lp = random_bounded_lp(rng)
            sol = solve_lp(lp)
            scaled = solve_lp(LinearProgram(c=scale * lp.c, A=lp.A, b=lp.b))
            assert scaled.status == "optimal"
            np.testing.assert_allclose(scaled.x, sol.x, atol=1e-6)
            assert scaled.objective_value == pytest.approx(
                scale * sol.objective_value, abs=1e-6 * scale
            )

    def test_relaxing_rhs_never_raises_objective(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            lp = random_bounded_lp(rng)
            sol = solve_lp(lp)
            relaxed = LinearProgram(c=lp.c, A=lp.A, b=lp.b + rng.uniform(0.0, 0.5, lp.b.shape))
            sol_relaxed = solve_lp(relaxed)
            assert sol_relaxed.status == "optimal"
            assert sol_relaxed.objective_value <= sol.objective_value + 1e-7

    def test_optimal_iterate_near_feasible(self):
        rng = np.random.default_rng(24)
        lp = random_bounded_lp(rng)
        sol = solve_lp(lp)
        assert np.all(sol.x >= -1e-8)
        assert np.all(lp.A @ sol.x <= lp.b + 1e-6)

    def test_iteration_limit_is_reported_not_raised(self, monkeypatch):
        rng = np.random.default_rng(25)
        lp = random_bounded_lp(rng)
        monkeypatch.setattr(lp_module, "MAX_ITERATIONS", 2)
        sol = solve_lp(lp)
        assert sol.status in ("optimal", "iteration_limit")
        assert sol.iterations <= 2

    def test_nonfinite_iterate_reports_nan(self, monkeypatch):
        # A direction that turns the iterate non-finite ends the solve; its
        # report must not be the previous iterate's residuals.
        def nan_direction(op, b, c, x, y, z, tau, *rest):
            return (np.full_like(x, np.nan), np.zeros_like(b), np.ones_like(x),
                    np.zeros_like(tau), np.zeros_like(tau))

        monkeypatch.setattr(lp_module, "_search_direction", nan_direction)
        sol = solve_lp(random_bounded_lp(np.random.default_rng(26)))
        assert sol.status == "iteration_limit"
        assert sol.iterations == 1
        report = sol.kkt_report
        assert np.isnan([report.primal_infeasibility, report.dual_infeasibility,
                         report.complementarity_gap]).all()

    def test_degenerate_duplicate_rows_handled(self):
        # Redundant constraints rely on the regularized normal equations.
        A = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        b = np.array([2.0, 2.0, 1.5])
        sol = solve_lp(LinearProgram(c=[-1.0, -1.0], A=A, b=b))
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(-2.0, abs=1e-6)


def selector_blocks(rng, n=6, L=10):
    """(name, B, d) for the three selector kinds: the real B = X'X (rank
    n < L), a non-symmetric B = S'X as in the reweighted pass, and the
    stacked complex [[Re C, -Im C], [Im C, Re C]] with C = Z^H Z. Each
    d = S'y has an exact solution of S'(y - X g) = 0, so every level
    lam >= 0 is feasible."""
    X = rng.standard_normal((n, L))
    S = rng.standard_normal((n, L))
    Z = X + 1j * rng.standard_normal((n, L))
    y = rng.standard_normal(n)
    yc = y + 1j * rng.standard_normal(n)
    C, dc = Z.conj().T @ Z, Z.conj().T @ yc
    return [
        ("symmetric", X.T @ X, X.T @ y),
        ("non-symmetric", S.T @ X, S.T @ y),
        ("stacked complex", np.block([[C.real, -C.imag], [C.imag, C.real]]),
         np.concatenate([dc.real, dc.imag])),
    ]


def normal_equations(B, d_inv):
    """The inequality matrix A = [[B, -B], [-B, B]] and, built as the solver
    builds its dense fallback, the regularized normal matrix
    A D_x A' + D_s + eps I of its equality form, D = diag(d_inv) =
    diag(D_x, D_s)."""
    A = np.block([[B, -B], [-B, B]])
    n = A.shape[1]
    M = (A * d_inv[:n]) @ A.T
    M[np.diag_indices_from(M)] += d_inv[n:] + lp_module.NORMAL_EQ_REGULARIZATION
    return A, M


def operator_stacks(rng, dense=True):
    """Stacked operators over three draws of `selector_blocks`: the six
    10 x 10 real and non-symmetric blocks, the three 20 x 20 stacked
    complex ones, and, with `dense`, three dense random programs."""
    blocks = [B for _ in range(3) for _name, B, _d in selector_blocks(rng)]
    stacks = [lp_module._Operator(B=np.array([B for B in blocks if B.shape[0] == k]))
              for k in (10, 20)]
    if dense:
        stacks.append(lp_module._Operator(A=np.array([random_bounded_lp(rng).A
                                                      for _ in range(3)])))
    return stacks


def dense_matrices(op):
    """The inequality matrix A of each program of a stacked operator."""
    if op.B is None:
        return list(op.A)
    return [np.block([[B, -B], [-B, B]]) for B in op.B]


def selector_lp(B, d, lam):
    return LinearProgram(c=np.ones(2 * B.shape[0]), A=np.block([[B, -B], [-B, B]]),
                         b=np.concatenate([lam + d, lam - d]))


class TestSelectorStructure:
    """The k x k Newton solve of selector programs A = [[B, -B], [-B, B]]."""

    def test_operator_matches_dense_equality_form(self):
        # Both paths of the stacked operator against each program's formed [A I].
        rng = np.random.default_rng(35)
        for op in operator_stacks(rng):
            matrices = dense_matrices(op)
            P, (m, n) = len(matrices), matrices[0].shape
            assert (op.B is None) == (n != m)
            x, y = rng.standard_normal((P, n + m)), rng.standard_normal((P, m))
            ox, oty = op(x), op.T(y)
            for p, A in enumerate(matrices):
                A_eq = np.hstack([A, np.eye(m)])
                scale = np.abs(A_eq).sum()
                np.testing.assert_allclose(ox[p], A_eq @ x[p], rtol=0, atol=1e-13 * scale)
                np.testing.assert_allclose(oty[p], A_eq.T @ y[p], rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("spread", [False, True])
    def test_solve_matches_dense_normal_equations(self, spread):
        # Scalings over 1e-8..1e8 give the normal matrix condition numbers up
        # to ~1e17, where no double-precision solve, the dense one included,
        # pins v itself. There the check is the normwise backward error, which
        # a stable solve keeps near machine precision at any conditioning.
        rng = np.random.default_rng(32)
        for _ in range(7):
            for op in operator_stacks(rng, dense=False):
                P, k = op.B.shape[:2]
                d_inv = 10.0 ** rng.uniform(-8, 8, (P, 4 * k)) if spread else np.ones((P, 4 * k))
                r = rng.standard_normal((P, 2 * k))
                v = op.solver(d_inv)(r)
                for p, B in enumerate(op.B):
                    _A, M = normal_equations(B, d_inv[p])
                    backward = np.linalg.norm(M @ v[p] - r[p]) / (
                        np.linalg.norm(M, 2) * np.linalg.norm(v[p]) + np.linalg.norm(r[p]))
                    assert backward <= 1e-12
                    if not spread:
                        v_dense = np.linalg.solve(M, r[p])
                        assert np.linalg.norm(v[p] - v_dense) <= 1e-9 * np.linalg.norm(v_dense)

    def test_failed_factor_falls_back_to_least_squares(self, monkeypatch):
        # Negative scalings make both the k x k and the dense matrix
        # indefinite; the dense one is then not factored at all. Only the
        # programs with such scalings leave the Cholesky path.
        factored = []
        dpotrf = lp_module.dpotrf

        def counting_dpotrf(M, **kwargs):
            factored.append(M.shape)
            return dpotrf(M, **kwargs)

        monkeypatch.setattr(lp_module, "dpotrf", counting_dpotrf)
        rng = np.random.default_rng(34)
        for op in operator_stacks(rng, dense=False):
            P, k = op.B.shape[:2]
            d_inv = np.ones((P, 4 * k))
            d_inv[::2] = -1.0
            r = rng.standard_normal((P, 2 * k))
            factored.clear()
            v = op.solver(d_inv)(r)
            assert factored == [(k, k)] * P
            for p in range(0, P, 2):
                _A, M = normal_equations(op.B[p], d_inv[p])
                np.testing.assert_array_equal(v[p], np.linalg.lstsq(M, r[p], rcond=None)[0])

    @pytest.mark.parametrize("spread", [False, True])
    def test_multi_column_solve_matches_one_column_solves(self, spread):
        # Columns share each program's factor and solve as they would alone,
        # to the bit. Every third program has negative scalings and goes to
        # least squares; the others must be backward stable at any scaling.
        rng = np.random.default_rng(36)
        for op in operator_stacks(rng):
            matrices = dense_matrices(op)
            P, (m, n) = len(matrices), matrices[0].shape
            d_inv = (10.0 ** rng.uniform(-8, 8, (P, n + m)) if spread
                     else rng.uniform(0.5, 2.0, (P, n + m)))
            d_inv[::3] *= -1.0
            R = rng.standard_normal((P, 2, m))
            solve = op.solver(d_inv)
            V = solve(R)
            assert V.shape == R.shape
            for j in range(2):
                np.testing.assert_array_equal(V[:, j], solve(R[:, j]))
            for p, A in enumerate(matrices):
                M = (A * d_inv[p, :n]) @ A.T
                M[np.diag_indices_from(M)] += d_inv[p, n:] + lp_module.NORMAL_EQ_REGULARIZATION
                for v, r in zip(V[p], R[p]):
                    if p % 3 == 0:
                        np.testing.assert_array_equal(v, np.linalg.lstsq(M, r, rcond=None)[0])
                        continue
                    backward = np.linalg.norm(M @ v - r) / (
                        np.linalg.norm(M, 2) * np.linalg.norm(v) + np.linalg.norm(r))
                    assert backward <= 1e-12

    def test_selector_programs_match_highs(self):
        # Through the k x k operator of solve_selectors and, as any LP,
        # through solve_lp's dense one.
        rng = np.random.default_rng(33)
        for _ in range(3):
            for name, B, d in selector_blocks(rng):
                for lam in (0.0, 0.1, 1.0):
                    lp = selector_lp(B, d, lam)
                    ref = scipy.optimize.linprog(lp.c, A_ub=lp.A, b_ub=lp.b, bounds=(0, None),
                                                 method="highs")
                    assert ref.status == 0
                    tol = 1e-7 * max(1.0, abs(ref.fun))
                    for sol in (lp_module.solve_selectors([(B, d, lam)])[0], solve_lp(lp)):
                        assert sol.status == "optimal", name
                        assert abs(sol.objective_value - ref.fun) <= tol, name


def assert_same_solution(a, b):
    """Two solutions equal to the bit, NaN entries included."""
    assert (a.status, a.iterations) == (b.status, b.iterations)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.objective_value, b.objective_value)
    np.testing.assert_array_equal(astuple(a.kkt_report), astuple(b.kkt_report))
    assert (a.dual_values is None) == (b.dual_values is None)
    if a.dual_values is not None:
        np.testing.assert_array_equal(a.dual_values, b.dual_values)


class TestStacks:
    """A program's result does not depend, to the bit, on the stack it runs in."""

    @pytest.mark.parametrize("max_iterations", [None, 7])
    def test_selector_results_independent_of_stack(self, monkeypatch, max_iterations):
        # Two sizes of B, three levels each, and one infeasible level; with
        # the iteration cap at 7 some programs stop at it and others do not.
        rng = np.random.default_rng(41)
        programs = [(B, d, lam) for _ in range(2) for _name, B, d in selector_blocks(rng)
                    for lam in (0.0, 0.05, 0.5)]
        programs.append((programs[0][0], programs[0][1], -0.1))
        if max_iterations is not None:
            monkeypatch.setattr(lp_module, "MAX_ITERATIONS", max_iterations)
        alone = [lp_module.solve_selectors([program])[0] for program in programs]
        statuses = {sol.status for sol in alone}
        assert {"optimal", "infeasible"} <= statuses
        assert ("iteration_limit" in statuses) == (max_iterations is not None)
        for batch_bytes in (lp_module.BATCH_BYTES, 2 * 8 * 20 * 20 * 3):
            monkeypatch.setattr(lp_module, "BATCH_BYTES", batch_bytes)
            order = rng.permutation(len(programs))
            for i, sol in zip(order, lp_module.solve_selectors([programs[i] for i in order])):
                assert_same_solution(sol, alone[i])

    def test_dense_results_independent_of_stack(self):
        rng = np.random.default_rng(42)
        programs = [random_bounded_lp(rng) for _ in range(5)]
        programs.append(replace(programs[0], b=np.concatenate([programs[0].b[:-1], [-1.0]])))
        alone = [solve_lp(lp) for lp in programs]
        assert alone[-1].status == "infeasible"
        order = rng.permutation(len(programs))
        stacked = lp_module._solve_stack(
            lp_module._Operator(A=np.array([programs[i].A for i in order])),
            np.array([programs[i].b for i in order]), np.array([programs[i].c for i in order]))
        for i, sol in zip(order, stacked):
            assert_same_solution(sol, alone[i])

    def test_operator_rows_independent_of_stack(self):
        # Every other program has negative scalings, which send its normal
        # equations to the least-squares fallback.
        rng = np.random.default_rng(43)
        for op in operator_stacks(rng):
            P, (m, n) = len(dense_matrices(op)), dense_matrices(op)[0].shape
            d_inv = rng.uniform(0.5, 2.0, (P, n + m))
            d_inv[1::2] *= -1.0
            x, y, r = (rng.standard_normal((P, size)) for size in (n + m, m, m))
            stacked = op(x), op.T(y), op.solver(d_inv)(r)
            for p in range(P):
                one = (lp_module._Operator(A=op.A[p:p + 1].copy()) if op.B is None
                       else lp_module._Operator(B=op.B[p:p + 1].copy()))
                alone = one(x[p:p + 1]), one.T(y[p:p + 1]), one.solver(d_inv[p:p + 1])(r[p:p + 1])
                for a, b in zip(stacked, alone):
                    np.testing.assert_array_equal(a[p], b[0])

    def test_nonfinite_scalings_end_only_their_programs(self):
        # LAPACK's least squares can spin without end on a matrix with NaN
        # entries, so the check runs in a subprocess under a timeout.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(lp_module.__file__).parents[1]), str(Path(__file__).parent)])}
        subprocess.run([sys.executable, "-c", "import test_lp; test_lp.check_nonfinite_scalings()"],
                       env=env, check=True, timeout=120)

    def test_no_reference_cycle_holds_a_stack(self, monkeypatch):
        # A cycle would keep each stack's operator and normal-matrix buffer
        # alive until the cyclic collector runs.
        refs = []

        class Recorded(lp_module._Operator):
            def __init__(self, **stack):
                super().__init__(**stack)
                refs.extend([weakref.ref(self), weakref.ref(self._normal)])

        monkeypatch.setattr(lp_module, "_Operator", Recorded)
        rng = np.random.default_rng(45)
        programs = [(B, d, lam) for _name, B, d in selector_blocks(rng) for lam in (0.0, 0.5)]
        enabled = gc.isenabled()
        gc.disable()
        try:
            lp_module.solve_selectors(programs)
            assert len(refs) == 4
            assert all(ref() is None for ref in refs)
        finally:
            if enabled:
                gc.enable()

    def test_compaction_moves_programs_forward(self):
        rng = np.random.default_rng(44)
        (op, *_rest) = operator_stacks(rng, dense=False)
        blocks = op.B.copy()
        op.keep(np.array([False, True, False, True, True, False]))
        np.testing.assert_array_equal(op.B, blocks[[1, 3, 4]])


def check_nonfinite_scalings():
    """Programs whose scalings hold inf or NaN get NaN solutions, also when
    their factor fails, and a loop that meets such scalings ends those
    programs as non-finite; the finite programs of the same stacks solve as
    they would alone, to the bit."""
    rng = np.random.default_rng(46)
    for op in operator_stacks(rng):
        P, (m, n) = len(dense_matrices(op)), dense_matrices(op)[0].shape
        d_inv = rng.uniform(0.5, 2.0, (P, n + m))
        d_inv[0, 0] = np.inf
        d_inv[1, -1] = np.nan
        d_inv[2] = -1.0
        d_inv[2, 1] = -np.inf
        r = rng.standard_normal((P, m))
        v = op.solver(d_inv)(r)
        assert np.isnan(v[:3]).all()
        for p in range(3, P):
            one = (lp_module._Operator(A=op.A[p:p + 1].copy()) if op.B is None
                   else lp_module._Operator(B=op.B[p:p + 1].copy()))
            np.testing.assert_array_equal(v[p], one.solver(d_inv[p:p + 1])(r[p:p + 1])[0])

    programs = [(B, d, lam) for _name, B, d in selector_blocks(rng) for lam in (0.1, 0.5)]
    alone = [lp_module.solve_selectors([program])[0] for program in programs]
    solver = lp_module._Operator.solver
    calls = []

    def poisoned(self, d_inv):
        # The first iteration's scalings of programs 0 and 1 are not finite.
        if not calls:
            d_inv = d_inv.copy()
            d_inv[0, 0], d_inv[1, -1] = np.inf, np.nan
        calls.append(d_inv.shape[0])
        return solver(self, d_inv)

    lp_module._Operator.solver = poisoned
    try:
        stacked = lp_module.solve_selectors(programs)
    finally:
        lp_module._Operator.solver = solver
    for sol in stacked[:2]:
        assert (sol.status, sol.iterations) == ("iteration_limit", 1)
        assert np.isnan(astuple(sol.kkt_report)).all()
    for sol, ref in zip(stacked[2:], alone[2:]):
        assert_same_solution(sol, ref)


# Hypothesis properties of the KktReport that the solver derives from its
# residuals, on both operator paths: dense random programs and the three
# selector kinds. Derandomized so that a run is reproducible.
PROPERTIES = settings(max_examples=30, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def bounded_lps(draw):
    rng = np.random.default_rng(draw(SEEDS))
    return random_bounded_lp(rng, draw(st.integers(1, 8)), draw(st.integers(1, 6)))


@st.composite
def selector_programs(draw):
    rng = np.random.default_rng(draw(SEEDS))
    L = draw(st.integers(2, 10))
    blocks = selector_blocks(rng, n=draw(st.integers(1, L)), L=L)
    _name, B, d = blocks[draw(st.integers(0, len(blocks) - 1))]
    return B, d, draw(st.floats(0.0, 2.0))


class TestDerivedReport:
    """The report of an optimal solve, recomputed from what it returns."""

    def check_report(self, lp, sol):
        assert sol.status == "optimal"
        report, x, duals = sol.kkt_report, sol.x, sol.dual_values
        primal = max(np.max(lp.A @ x - lp.b, initial=0.0), np.max(-x, initial=0.0))
        primal /= 1.0 + np.linalg.norm(lp.b, np.inf)
        assert abs(primal - report.primal_infeasibility) <= 1e-10
        obj = lp.c @ x
        gap = abs(obj + lp.b @ duals) / (1.0 + abs(obj))
        assert abs(gap - report.complementarity_gap) <= lp_module.TOLERANCE
        assert np.all(lp.c + lp.A.T @ duals >= -1e-6)

    @PROPERTIES
    @given(bounded_lps())
    def test_dense_programs(self, lp):
        self.check_report(lp, solve_lp(lp))

    @PROPERTIES
    @given(selector_programs())
    def test_selector_programs(self, program):
        self.check_report(selector_lp(*program), lp_module.solve_selectors([program])[0])

    # A known defect, kept visible: the stopping test scales its residuals by
    # 1 + |.| floors, which are absolute for data much smaller than 1, so at
    # alpha = 1e-3 the estimate is only good to ~1e-4 relative; and at any
    # scale the 1e-8 tolerance pins the estimate to ~2e-7 relative, not 1e-7.
    @pytest.mark.xfail(strict=True, reason="selector accuracy is not scale-free")
    @PROPERTIES
    @given(SEEDS, st.sampled_from(["gaussian", "complex_gaussian"]),
           st.floats(0.01, 0.9), st.floats(1e-3, 1e3))
    def test_selector_scale_equivariance(self, seed, distribution, level, alpha):
        # y -> alpha y with lambda -> alpha lambda scales the estimate. The
        # level is below max |X^H y|, where the estimate would be 0 and an
        # interior point has no relative accuracy.
        cfg = ExperimentConfig(L=16, T=2, trials=1, fixed_n=8, base_seed=seed,
                               distribution=distribution)
        _channel, X, obs = make_instance(cfg, 20.0, 8, 0)
        correlation = X.matrix.conj().T @ obs.y
        lam = level * max(np.abs(correlation.real).max(), np.abs(correlation.imag).max())
        h = run_estimator("ds", X, obs, EstimatorConfig(lambda_ds=lam)).h_hat
        h_scaled = run_estimator("ds", X, replace(obs, y=alpha * obs.y),
                                 EstimatorConfig(lambda_ds=alpha * lam)).h_hat
        assert np.linalg.norm(h_scaled - alpha * h) <= 1e-7 * np.linalg.norm(alpha * h)
