"""Tests for the LP solvers: the interior-point method, checked against
brute-force vertex enumeration on small problems, and the selector vertex
solver, checked against HiGHS."""

import os
import subprocess
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from conftest import enumerate_lp_vertices, random_bounded_lp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsechan import lp as lp_module
from sparsechan.estimators import (
    COMPOSITE_LAMBDA_CALIBRATION,
    EstimatorConfig,
    _composite_programs,
    resolve_lambda,
    run_estimator,
)
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
        def nan_direction(A, b, c, x, y, z, tau, *rest):
            return (np.full_like(x, np.nan), np.zeros_like(b), np.ones_like(x),
                    np.zeros_like(tau), np.zeros_like(tau))

        monkeypatch.setattr(lp_module, "_search_direction", nan_direction)
        sol = solve_lp(random_bounded_lp(np.random.default_rng(26)))
        assert sol.status == "iteration_limit"
        assert sol.iterations == 1
        report = sol.kkt_report
        assert np.isnan([report.primal_infeasibility, report.dual_infeasibility,
                         report.complementarity_gap]).all()

    def test_inputs_left_unchanged(self, monkeypatch):
        # Neither solver writes to the caller's arrays: not the vertex solver,
        # whose buffers are built from B, and not the IPM, where every
        # selector program goes with the pivot cap at 0. Level 0 takes the
        # longest paths.
        lp = random_bounded_lp(np.random.default_rng(27))
        programs = [(B, d, lam) for _name, B, d in selector_blocks(np.random.default_rng(28))
                    for lam in (0.0, 0.1)]
        arrays = [lp.A, lp.b, lp.c] + [array for B, d, _lam in programs for array in (B, d)]
        copies = [array.copy() for array in arrays]
        assert solve_lp(lp).status == "optimal"
        for cap, fallback in ((lp_module.VERTEX_PIVOTS_PER_ROW, False), (0, True)):
            monkeypatch.setattr(lp_module, "VERTEX_PIVOTS_PER_ROW", cap)
            sols = lp_module.solve_selectors(programs)
            assert [(sol.status, sol.fallback) for sol in sols] == [("optimal", fallback)] * 6
            for array, copy in zip(arrays, copies):
                np.testing.assert_array_equal(array, copy)

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


def normal_matrix(A, d_inv):
    """The regularized normal matrix A D_x A' + D_s + eps I of the equality
    form [A I] of A x <= b, D = diag(d_inv) = diag(D_x, D_s), built as the
    solver builds it."""
    n = A.shape[1]
    M = (A * d_inv[:n]) @ A.T
    M[np.diag_indices_from(M)] += d_inv[n:] + lp_module.NORMAL_EQ_REGULARIZATION
    return M


def dense_matrices(rng):
    """The dense selector matrices [[B, -B], [-B, B]] of the six real and
    non-symmetric blocks of three draws of `selector_blocks`, then the
    matrices of three dense random programs."""
    blocks = [B for _ in range(3) for _name, B, _d in selector_blocks(rng)[:2]]
    return ([np.block([[B, -B], [-B, B]]) for B in blocks]
            + [random_bounded_lp(rng).A for _ in range(3)])


def selector_lp(B, d, lam):
    return LinearProgram(c=np.ones(2 * B.shape[0]), A=np.block([[B, -B], [-B, B]]),
                         b=np.concatenate([lam + d, lam - d]))


class TestSelectorStructure:
    """The IPM's normal-equation solve, on selector matrices
    A = [[B, -B], [-B, B]] (the vertex solver's fallback) and random ones."""

    def test_failed_factor_falls_back_to_least_squares(self, monkeypatch):
        # Negative scalings make the normal matrix indefinite, so its
        # Cholesky factor fails. Every other matrix gets such scalings; each
        # is factored once.
        factored = []
        dpotrf = lp_module.dpotrf

        def counting_dpotrf(M, **kwargs):
            factored.append(M.shape)
            return dpotrf(M, **kwargs)

        monkeypatch.setattr(lp_module, "dpotrf", counting_dpotrf)
        rng = np.random.default_rng(34)
        for i, A in enumerate(dense_matrices(rng)):
            m, n = A.shape
            d_inv = np.ones(n + m) if i % 2 else -np.ones(n + m)
            r = rng.standard_normal(m)
            factored.clear()
            v = lp_module._normal_solver(A, d_inv)(r)
            assert factored == [(m, m)]
            if i % 2 == 0:
                M = normal_matrix(A, d_inv)
                np.testing.assert_array_equal(v, np.linalg.lstsq(M, r, rcond=None)[0])

    @pytest.mark.parametrize("spread", [False, True])
    def test_multi_column_solve_matches_one_column_solves(self, spread):
        # Columns share the factor and solve as they would alone, to the
        # bit. Every third matrix has negative scalings and goes to least
        # squares; the others must be backward stable at any scaling.
        rng = np.random.default_rng(36)
        for i, A in enumerate(dense_matrices(rng)):
            m, n = A.shape
            d_inv = (10.0 ** rng.uniform(-8, 8, n + m) if spread
                     else rng.uniform(0.5, 2.0, n + m))
            if i % 3 == 0:
                d_inv *= -1.0
            R = rng.standard_normal((2, m))
            solve = lp_module._normal_solver(A, d_inv)
            V = solve(R)
            assert V.shape == R.shape
            for j in range(2):
                np.testing.assert_array_equal(V[j], solve(R[j]))
            M = normal_matrix(A, d_inv)
            for v, r in zip(V, R):
                if i % 3 == 0:
                    np.testing.assert_array_equal(v, np.linalg.lstsq(M, r, rcond=None)[0])
                    continue
                backward = np.linalg.norm(M @ v - r) / (
                    np.linalg.norm(M, 2) * np.linalg.norm(v) + np.linalg.norm(r))
                assert backward <= 1e-12

    def test_selector_programs_match_highs(self):
        # Through the vertex solver of solve_selectors and, as any LP,
        # through solve_lp on the dense A.
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


def highs_objective(B, d, lam):
    # At its default 1e-7 tolerances HiGHS can end on a vertex that breaks a
    # row by 4e-8, with an objective 1.5e-7 relative off.
    lp = selector_lp(B, d, lam)
    ref = scipy.optimize.linprog(lp.c, A_ub=lp.A, b_ub=lp.b, bounds=(0, None), method="highs",
                                 options={"primal_feasibility_tolerance": 1e-10,
                                          "dual_feasibility_tolerance": 1e-10})
    assert ref.status == 0
    return ref.fun


def instance_programs(distribution, snr_db, seed):
    """The selector programs of one `make_instance` instance (L=60, n=30) at
    the auto level: two real ones with k=60, or one complex one with k=120."""
    cfg = ExperimentConfig(L=60, T=4, trials=1, fixed_n=30, base_seed=seed,
                           distribution=distribution)
    _channel, X, obs = make_instance(cfg, snr_db, 30, 0)
    sigma = np.sqrt(obs.noise_variance)
    lam = COMPOSITE_LAMBDA_CALIBRATION * resolve_lambda(sigma, X.matrix, "auto")
    return _composite_programs(X.matrix, X.matrix, obs.y, lam)[0]


class TestSelectorVertex:
    """`solve_selectors` solves each program at a vertex by a dual simplex,
    and hands what it cannot certify to the dense interior-point method."""

    def test_blocks_match_highs(self):
        rng = np.random.default_rng(37)
        for _ in range(3):
            for name, B, d in selector_blocks(rng):
                for lam in (0.0, 0.1, 1.0):
                    sol = lp_module.solve_selectors([(B, d, lam)])[0]
                    ref = highs_objective(B, d, lam)
                    assert (sol.status, sol.fallback) == ("optimal", False), name
                    assert abs(sol.objective_value - ref) <= 1e-12 * abs(ref), name

    @pytest.mark.parametrize("distribution, k", [("gaussian", 60), ("complex_gaussian", 120)])
    def test_instance_matches_highs(self, distribution, k):
        programs = instance_programs(distribution, 20.0, 3)
        assert {B.shape[0] for B, _d, _lam in programs} == {k}
        sols = lp_module.solve_selectors(programs)
        # Pinned, so that a change to the pivot rule fails here and not only
        # in the sweeps' outputs.
        pivots = {"gaussian": [7, 6], "complex_gaussian": [17]}[distribution]
        assert [sol.iterations for sol in sols] == pivots
        for (B, d, lam), sol in zip(programs, sols):
            ref = highs_objective(B, d, lam)
            assert (sol.status, sol.fallback) == ("optimal", False)
            assert abs(sol.objective_value - ref) <= 1e-12 * abs(ref)

    def test_certificate_recomputed(self):
        # Feasibility, dual feasibility and a zero gap, recomputed on the
        # dense A from x and dual_values alone, and the report they give.
        rng = np.random.default_rng(38)
        programs = [(B, d, lam) for _name, B, d in selector_blocks(rng) for lam in (0.0, 0.1)]
        programs += instance_programs("complex_gaussian", 10.0, 4)
        for program, sol in zip(programs, lp_module.solve_selectors(programs)):
            lp = selector_lp(*program)
            x, w = sol.x, sol.dual_values
            b_scale = np.abs(lp.b).max()
            assert sol.status == "optimal" and not sol.fallback
            assert np.max(lp.A @ x - lp.b) <= 1e-12 * b_scale
            assert x.min() >= 0.0 and w.min() >= 0.0
            reduced = lp.c + lp.A.T @ w
            assert reduced.min() >= -1e-12
            assert abs(lp.c @ x + lp.b @ w) <= 1e-12 * (lp.c @ x)
            # Complementary slackness: a positive x_j has zero reduced cost,
            # a positive multiplier an active row.
            assert np.all(np.abs(reduced[x > 0]) <= 1e-12)
            assert np.all(np.abs((lp.b - lp.A @ x)[w > 0]) <= 1e-12 * b_scale)
            primal = max(np.max(lp.A @ x - lp.b), np.max(-x), 0.0) / (1.0 + b_scale)
            # A slack column counts as max|A| e_i, so its reduced cost is max|A| w_i.
            dual = max(-reduced.min(), -np.abs(lp.A).max() * w.min(), 0.0) / 2.0
            gap = abs(lp.c @ x + lp.b @ w) / (1.0 + abs(lp.c @ x))
            np.testing.assert_allclose(astuple(sol.kkt_report), (primal, dual, gap),
                                       rtol=0, atol=1e-14)

    def test_scaled_programs_keep_their_pivots(self):
        # B -> s B with (d, lam) -> s (d, lam) leaves the program's solution,
        # and (d, lam) -> a (d, lam) scales it; every tolerance is relative,
        # so neither moves a pivot, at any s or a.
        programs = [(B, d, lam) for _name, B, d in selector_blocks(np.random.default_rng(40))
                    for lam in (0.0, 0.1)]
        for (B, d, lam), ref in zip(programs, lp_module.solve_selectors(programs)):
            for s, a in ((1e-30, 1.0), (1e30, 1.0), (1.0, 1e-30), (1.0, 1e30), (1e20, 1e-20)):
                sol = lp_module.solve_selectors([(s * B, s * a * d, s * a * lam)])[0]
                assert (sol.status, sol.fallback, sol.iterations) == ("optimal", False, ref.iterations)
                np.testing.assert_allclose(sol.x, a * ref.x, rtol=0, atol=1e-12 * a * ref.x.max())

    def test_negative_level_infeasible(self):
        rng = np.random.default_rng(39)
        for _name, B, d in selector_blocks(rng):
            sol = lp_module.solve_selectors([(B, d, -0.1)])[0]
            assert (sol.status, sol.fallback) == ("infeasible", True)

    def test_pivot_cap_sends_programs_to_the_ipm(self, monkeypatch):
        # Both programs of this instance need pivots; with the cap at 0 each
        # goes to the dense IPM, which finds the same optimum, and the
        # estimate counts the fallbacks.
        cfg = ExperimentConfig(L=16, T=2, trials=1, fixed_n=8, base_seed=5)
        _channel, X, obs = make_instance(cfg, 20.0, 8, 0)
        estimate = run_estimator("ds", X, obs, cfg.estimator)
        assert estimate.diagnostics["lp_fallbacks"] == 0
        programs = _composite_programs(X.matrix, X.matrix, obs.y,
                                       estimate.diagnostics["lambda"])[0]
        assert all(sol.iterations > 0 for sol in lp_module.solve_selectors(programs))
        monkeypatch.setattr(lp_module, "VERTEX_PIVOTS_PER_ROW", 0)
        capped = run_estimator("ds", X, obs, cfg.estimator)
        assert capped.diagnostics["lp_fallbacks"] == 2
        assert capped.diagnostics["lp_statuses"] == ["optimal"] * 2
        assert np.linalg.norm(capped.h_hat - estimate.h_hat) <= 1e-6 * np.linalg.norm(estimate.h_hat)

    def test_max_residual_keeps_nan(self):
        nan = float("nan")
        assert lp_module.KktReport(1e-9, 3e-9, 2e-9).max_residual() == 3e-9
        for report in (lp_module.KktReport(nan, 0.0, 0.0), lp_module.KktReport(0.0, nan, 0.0),
                       lp_module.KktReport(0.0, 0.0, nan)):
            assert np.isnan(report.max_residual())

    def test_nan_report_sends_programs_to_the_ipm(self, monkeypatch):
        # A vertex whose dual residual is NaN is not certified: each program
        # goes to the IPM, which does not use this report.
        programs = instance_programs("gaussian", 20.0, 3)
        nan = float("nan")
        monkeypatch.setattr(lp_module, "_selector_report",
                            lambda *args: lp_module.KktReport(0.0, nan, 0.0))
        sols = lp_module.solve_selectors(programs)
        assert [(sol.status, sol.fallback) for sol in sols] == [("optimal", True)] * len(programs)

    def test_level_zero_on_noisy_data_stays_at_the_vertex(self):
        # At lam = 0 on noisy data the path to the vertex is long: this
        # complex program needs 310 pivots, more than the IPM's iteration cap.
        programs = instance_programs("complex_gaussian", 20.0, 3)
        B, d, _lam = programs[0]
        sol = lp_module.solve_selectors([(B, d, 0.0)])[0]
        assert (sol.status, sol.fallback) == ("optimal", False)
        assert sol.iterations == 310 > lp_module.MAX_ITERATIONS
        ref = highs_objective(B, d, 0.0)
        assert abs(sol.objective_value - ref) <= 1e-12 * abs(ref)


def assert_same_solution(a, b):
    """Two solutions equal to the bit, NaN entries included."""
    assert (a.status, a.iterations, a.fallback) == (b.status, b.iterations, b.fallback)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.objective_value, b.objective_value)
    np.testing.assert_array_equal(astuple(a.kkt_report), astuple(b.kkt_report))
    assert (a.dual_values is None) == (b.dual_values is None)
    if a.dual_values is not None:
        np.testing.assert_array_equal(a.dual_values, b.dual_values)


class TestStacks:
    """A program's result does not depend, to the bit, on the other programs
    of its `solve_selectors` call, and non-finite scalings end the solve
    they reach."""

    @pytest.mark.parametrize("max_iterations", [None, 7])
    def test_selector_results_independent_of_stack(self, monkeypatch, max_iterations):
        # Two sizes of B, three levels each, and one infeasible level; with
        # the iteration cap at 7 some programs stop at it and others do not.
        rng = np.random.default_rng(41)
        programs = [(B, d, lam) for _ in range(2) for _name, B, d in selector_blocks(rng)
                    for lam in (0.0, 0.05, 0.5)]
        programs.append((programs[0][0], programs[0][1], -0.1))
        if max_iterations is not None:
            # Every program that needs a pivot goes to the IPM, and some of
            # them stop at its iteration cap.
            monkeypatch.setattr(lp_module, "VERTEX_PIVOTS_PER_ROW", 0)
            monkeypatch.setattr(lp_module, "MAX_ITERATIONS", max_iterations)
        alone = [lp_module.solve_selectors([program])[0] for program in programs]
        statuses = {sol.status for sol in alone}
        assert {"optimal", "infeasible"} <= statuses
        assert ("iteration_limit" in statuses) == (max_iterations is not None)
        order = rng.permutation(len(programs))
        for i, sol in zip(order, lp_module.solve_selectors([programs[i] for i in order])):
            assert_same_solution(sol, alone[i])

    def test_nonfinite_scalings_end_only_their_programs(self):
        # LAPACK's least squares can spin without end on a matrix with NaN
        # entries, so the check runs in a subprocess under a timeout.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(lp_module.__file__).parents[1]), str(Path(__file__).parent)])}
        subprocess.run([sys.executable, "-c", "import test_lp; test_lp.check_nonfinite_scalings()"],
                       env=env, check=True, timeout=120)


def check_nonfinite_scalings():
    """Scalings that hold inf or NaN give NaN solutions, also when the
    factor fails, and a solve that meets such scalings ends as non-finite."""
    rng = np.random.default_rng(46)
    for A in dense_matrices(rng):
        m, n = A.shape
        r = rng.standard_normal(m)
        scalings = rng.uniform(0.5, 2.0, (3, n + m))
        scalings[0, 0] = np.inf
        scalings[1, -1] = np.nan
        scalings[2] = -1.0
        scalings[2, 1] = -np.inf
        for d_inv in scalings:
            assert np.isnan(lp_module._normal_solver(A, d_inv)(r)).all()

    _name, B, d = selector_blocks(rng)[0]
    normal_solver = lp_module._normal_solver
    for lam, index, value in ((0.1, 0, np.inf), (0.5, -1, np.nan)):
        calls = []

        def poisoned(A, d_inv):
            # The first iteration's scalings are not finite.
            if not calls:
                d_inv = d_inv.copy()
                d_inv[index] = value
            calls.append(1)
            return normal_solver(A, d_inv)

        lp_module._normal_solver = poisoned
        try:
            sol = solve_lp(selector_lp(B, d, lam))
        finally:
            lp_module._normal_solver = normal_solver
        assert (sol.status, sol.iterations) == ("iteration_limit", 1)
        assert np.isnan(astuple(sol.kkt_report)).all()


# Hypothesis properties of the KktReport that the solvers derive: of
# `solve_lp` on dense random programs and of `solve_selectors` on the three
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


@st.composite
def selector_batches(draw):
    """Programs of the three kinds of `selector_blocks`, with k = 2..12 and
    a level in [0, 1], 0 included, and an order to shuffle them in."""
    programs = []
    for _ in range(draw(st.integers(1, 4))):
        rng = np.random.default_rng(draw(SEEDS))
        kind = draw(st.integers(0, 2))
        # The stacked complex block has k = 2L.
        L = draw(st.integers(2, 12) if kind < 2 else st.integers(1, 6))
        _name, B, d = selector_blocks(rng, n=draw(st.integers(1, L)), L=L)[kind]
        programs.append((B, d, draw(st.just(0.0) | st.floats(0.0, 1.0))))
    return programs, draw(st.permutations(range(len(programs))))


class TestVertexProperties:
    """Level 0 removes rows and columns from the middle of the basis, where
    a basis buffer kept in order is easiest to get wrong."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(selector_batches())
    def test_random_programs(self, batch):
        # Optimal at the vertex, the HiGHS objective, and the same bits alone
        # as in a shuffled batch.
        programs, order = batch
        alone = [lp_module.solve_selectors([program])[0] for program in programs]
        for program, sol in zip(programs, alone):
            assert (sol.status, sol.fallback) == ("optimal", False)
            ref = highs_objective(*program)
            assert abs(sol.objective_value - ref) <= 1e-9 * abs(ref)
        for i, sol in zip(order, lp_module.solve_selectors([programs[i] for i in order])):
            assert_same_solution(sol, alone[i])


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

    @staticmethod
    def scaled_instance(seed, distribution, level):
        # The level is below max |X^H y|, where the estimate would be 0 and
        # an interior point has no relative accuracy.
        cfg = ExperimentConfig(L=16, T=2, trials=1, fixed_n=8, base_seed=seed,
                               distribution=distribution)
        _channel, X, obs = make_instance(cfg, 20.0, 8, 0)
        correlation = X.matrix.conj().T @ obs.y
        lam = level * max(np.abs(correlation.real).max(), np.abs(correlation.imag).max())
        return X, obs, lam

    @PROPERTIES
    @given(SEEDS, st.sampled_from(["gaussian", "complex_gaussian"]),
           st.floats(0.01, 0.9), st.floats(1e-3, 1e3))
    def test_selector_scale_equivariance(self, seed, distribution, level, alpha):
        # y -> alpha y with lambda -> alpha lambda scales the estimate.
        X, obs, lam = self.scaled_instance(seed, distribution, level)
        h = run_estimator("ds", X, obs, EstimatorConfig(lambda_ds=lam)).h_hat
        h_scaled = run_estimator("ds", X, replace(obs, y=alpha * obs.y),
                                 EstimatorConfig(lambda_ds=alpha * lam)).h_hat
        assert np.linalg.norm(h_scaled - alpha * h) <= 1e-7 * np.linalg.norm(alpha * h)

    @PROPERTIES
    @given(SEEDS, st.sampled_from(["gaussian", "complex_gaussian"]),
           st.floats(0.01, 0.9), st.floats(-12.0, 3.0))
    @example(seed=0, distribution="complex_gaussian", level=0.5, exponent=-12.0)
    def test_sensing_selector_scale_equivariance(self, seed, distribution, level, exponent):
        # The same for sds, whose weights scale with y: down to alpha = 1e-12
        # the weighting must not turn degenerate where the unscaled one is not.
        alpha = 10.0**exponent
        X, obs, lam = self.scaled_instance(seed, distribution, level)
        est = run_estimator("sds", X, obs, EstimatorConfig(lambda_ds=lam))
        scaled = run_estimator("sds", X, replace(obs, y=alpha * obs.y),
                               EstimatorConfig(lambda_ds=alpha * lam))
        assert not est.diagnostics["degenerate_weighting"]
        assert not scaled.diagnostics["degenerate_weighting"]
        error = np.linalg.norm(scaled.h_hat - alpha * est.h_hat)
        assert error <= 1e-7 * np.linalg.norm(alpha * est.h_hat)

    # A known defect, kept visible: the IPM's stopping test scales its
    # residuals by 1 + |.| floors, which are absolute for data much smaller
    # than 1, so at alpha = 1e-3 the estimate is only good to ~1e-4
    # relative; and at any scale the 1e-8 tolerance pins the estimate to
    # ~2e-7 relative, not 1e-7. The same property as above, through
    # solve_lp on the dense selector programs.
    @pytest.mark.xfail(strict=True, reason="IPM accuracy is not scale-free")
    @PROPERTIES
    @given(SEEDS, st.sampled_from(["gaussian", "complex_gaussian"]),
           st.floats(0.01, 0.9), st.floats(1e-3, 1e3))
    def test_dense_selector_scale_equivariance(self, seed, distribution, level, alpha):
        X, obs, lam = self.scaled_instance(seed, distribution, level)

        def estimate(y, level):
            programs, _decoupled = _composite_programs(X.matrix, X.matrix, y, level)
            k = programs[0][0].shape[0]
            return np.concatenate([sol.x[:k] - sol.x[k:] for sol in
                                   (solve_lp(selector_lp(*program)) for program in programs)])

        h, h_scaled = estimate(obs.y, lam), estimate(alpha * obs.y, alpha * lam)
        assert np.linalg.norm(h_scaled - alpha * h) <= 1e-7 * np.linalg.norm(alpha * h)
