"""Independent checks of one benchmark round.

Nothing here compares against saved output. A sample of instances is
rebuilt from the documented seed derivation (a splitmix64 fold of
``(base_seed, snr_db float bits, n, trial_index, stream)``, re-implemented
below) and the public ``model`` functions. Each sampled estimate is checked
against a property its method must have, or against an independent solve:

- ``ds``/``sds``: the componentwise correlation bound, and the l1 objective
  against ``scipy.optimize.linprog(method="highs")`` on the same program,
  built here from X, y and lambda (for ``sds`` also the reweighted matrix,
  from the reported weights);
- ``lasso``: the complex subgradient (KKT) conditions;
- ``oracle``: zero off the true support, residual orthogonal to its columns;
- ``ls``: interpolation and minimum norm when N < L;
- ``omp``: at most T atoms, residual orthogonal to them;
- bookkeeping: each sampled cell's MSE in the sweep equals ||h - h_hat||^2
  recomputed here, and the written CSV and metadata agree with the cells.
"""

from __future__ import annotations

import csv
import json
import math
import random
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from sparsechan import estimators, model

_MASK64 = (1 << 64) - 1
STREAM_CHANNEL, STREAM_TRAINING, STREAM_NOISE = 1, 2, 3

# Relative tolerances. The IPM stops at a 1e-8 scaled KKT residual, so its
# l1 objective agrees with HiGHS to about 1e-9 relative at L=60; the bound
# of 1e-7 leaves headroom and still catches a loosened LP tolerance.
TOL_L1_OBJECTIVE = 1e-7
TOL_CORRELATION_BOUND = 1e-7
TOL_LASSO_KKT = 1e-6
TOL_ORTHOGONAL = 1e-9
TOL_LS = 1e-8
TOL_MSE = 1e-12


def splitmix64(state: int) -> int:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def trial_seed(base_seed: int, snr_db: float, n: int, trial: int, stream: int) -> int:
    seed = base_seed & _MASK64
    snr_bits = struct.unpack("<Q", struct.pack("<d", float(snr_db)))[0]
    for word in (snr_bits, n, trial, stream):
        seed = splitmix64(seed ^ (word & _MASK64))
    return seed


def rebuild_instance(cfg, snr_db: float, n: int, trial: int):
    seeds = [trial_seed(cfg.base_seed, snr_db, n, trial, s)
             for s in (STREAM_CHANNEL, STREAM_TRAINING, STREAM_NOISE)]
    channel = model.generate_sparse_channel(cfg.L, cfg.T, seed=seeds[0])
    X = model.build_toeplitz_training(n, cfg.L, cfg.distribution, seed=seeds[1])
    obs = model.observe(X, channel, snr_db, seed=seeds[2])
    return channel, X, obs


def auto_lambda(X: np.ndarray, noise_variance: float) -> float:
    """sigma * sqrt(2 ln L) * max column norm, as documented."""
    return math.sqrt(noise_variance) * math.sqrt(2.0 * math.log(X.shape[1])) * float(
        np.sqrt((np.abs(X) ** 2).sum(axis=0)).max())


def selector_program(S: np.ndarray, X: np.ndarray, y: np.ndarray):
    """Real form of the correlation operator g -> S^H (y - X h(g)).

    g stacks (Re h, Im h); the result stacks (Re, Im) of S^H y and of the
    linear part, so the bound reads |d - B g| <= lambda componentwise.
    """
    C = S.conj().T @ X
    d = S.conj().T @ y
    B = np.block([[C.real, -C.imag], [C.imag, C.real]])
    return B, np.concatenate([d.real, d.imag])


def highs_l1(B: np.ndarray, d: np.ndarray, lam: float) -> float:
    """min sum t  s.t.  -t <= g <= t,  -lam <= d - B g <= lam  (g free)."""
    k = B.shape[1]
    eye = np.eye(k)
    zeros = np.zeros_like(B)
    A_ub = np.block([[eye, -eye], [-eye, -eye], [B, zeros], [-B, zeros]])
    b_ub = np.concatenate([np.zeros(2 * k), d + lam, lam - d])
    bounds = [(None, None)] * k + [(0, None)] * k
    res = scipy.optimize.linprog(np.r_[np.zeros(k), np.ones(k)], A_ub=A_ub, b_ub=b_ub,
                                 bounds=bounds, method="highs")
    if res.status != 0:
        raise CheckFailed(f"HiGHS did not solve the selector program: {res.message}")
    return float(res.fun)


def reweighted_matrix(X: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Columns R^-1 x_i / (x_i^H R^-1 x_i) with R = X diag(w^2) X^H."""
    R = (X * weights**2) @ X.conj().T
    Z = np.linalg.solve(R, X)
    return Z / np.einsum("ij,ij->j", X.conj(), Z).real


class CheckFailed(Exception):
    pass


@dataclass
class CheckReport:
    nmse: float = math.nan
    failed_cells: int = 0
    problems: list = field(default_factory=list)
    passed: dict = field(default_factory=dict)
    worst: dict = field(default_factory=dict)

    def record(self, name: str, error: float, tol: float, what: str) -> None:
        """Record one scaled error; raise when it exceeds the tolerance."""
        self.worst[name] = max(self.worst.get(name, 0.0), float(error))
        if not error <= tol:
            raise CheckFailed(f"{name}: {what} {error:.3e} > {tol:.0e}")
        self.passed[name] = self.passed.get(name, 0) + 1

    def summary(self) -> dict:
        return {"passed": self.passed, "worst": {k: float(f"{v:.3e}") for k, v in self.worst.items()},
                "failed_cells": self.failed_cells}


def check_selector(report, S, X, y, h_hat, lam, name):
    B, d = selector_program(S, X, y)
    g = np.concatenate([h_hat.real, h_hat.imag])
    scale = 1.0 + lam + float(np.abs(d).max())
    violation = max(0.0, float(np.abs(d - B @ g).max()) - lam) / scale
    report.record(f"{name}.correlation_bound", violation, TOL_CORRELATION_BOUND,
                  "bound violation")
    ours = float(np.abs(g).sum())
    ref = highs_l1(B, d, lam)
    report.record(f"{name}.l1_vs_highs", abs(ours - ref) / max(ref, 1e-300),
                  TOL_L1_OBJECTIVE, "relative l1 gap")


def check_method(report, method, est, channel, X, obs, cfg, ds_est):
    Xm, y, h = X.matrix, obs.y, est.h_hat
    N, L = Xm.shape
    r = y - Xm @ h
    if method in ("ds", "sds"):
        lam = 0.5 * auto_lambda(Xm, obs.noise_variance)
        report.record(f"{method}.lambda", abs(est.diagnostics["lambda"] - lam) / lam, 1e-12,
                      "relative lambda error")
        S = Xm
        if method == "sds" and not est.diagnostics["degenerate_weighting"]:
            w = np.abs(Xm.conj().T @ (y - Xm @ ds_est.h_hat))
            report.record("sds.weights", float(np.abs(est.diagnostics["weights"] - w).max())
                          / float(w.max()), 1e-9, "weight error")
            S = reweighted_matrix(Xm, est.diagnostics["weights"])
        check_selector(report, S, Xm, y, h, lam, method)
    elif method == "lasso":
        lam = auto_lambda(Xm, obs.noise_variance)
        report.record("lasso.lambda", abs(est.diagnostics["lambda"] - lam) / lam, 1e-12,
                      "relative lambda error")
        c = Xm.conj().T @ r
        nz = h != 0
        on = np.abs(c[nz] - lam * h[nz] / np.abs(h[nz]))
        off = np.maximum(np.abs(c[~nz]) - lam, 0.0)
        kkt = float(np.concatenate([on, off]).max(initial=0.0)) / lam
        report.record("lasso.kkt", kkt, TOL_LASSO_KKT, "subgradient residual / lambda")
    elif method == "oracle":
        off = np.setdiff1d(np.arange(L), channel.support)
        if np.any(h[off] != 0):
            raise CheckFailed("oracle: nonzero entry off the true support")
        Xs = Xm[:, list(channel.support)]
        report.record("oracle.orthogonal", float(np.abs(Xs.conj().T @ r).max())
                      / float(np.abs(Xs.conj().T @ y).max()), TOL_ORTHOGONAL, "residual correlation")
    elif method == "ls":
        if N >= L:
            raise CheckFailed("ls: the benchmark only checks N < L")
        report.record("ls.interpolates", float(np.linalg.norm(r) / np.linalg.norm(y)), TOL_LS,
                      "relative residual")
        min_norm = np.linalg.lstsq(Xm, y, rcond=None)[0]
        report.record("ls.min_norm", float(np.linalg.norm(h - min_norm) / np.linalg.norm(min_norm)),
                      TOL_LS, "distance to the minimum-norm solution")
    elif method == "omp":
        atoms = est.diagnostics["atoms"]
        if len(atoms) > cfg.T or len(set(atoms)) != len(atoms):
            raise CheckFailed(f"omp: selected atoms {atoms} for T={cfg.T}")
        if np.any(np.delete(h, atoms) != 0):
            raise CheckFailed("omp: nonzero entry off the selected atoms")
        if atoms:
            Xa = Xm[:, atoms]
            report.record("omp.orthogonal", float(np.abs(Xa.conj().T @ r).max())
                          / float(np.abs(Xa.conj().T @ y).max()), TOL_ORTHOGONAL,
                          "residual correlation")
    else:
        raise CheckFailed(f"no check for method {method!r}")


def sample_trials(cfg, point_index: int, count: int) -> list[int]:
    rng = random.Random(cfg.base_seed * 1_000_003 + point_index)
    return sorted(rng.sample(range(cfg.trials), min(count, cfg.trials)))


def check_outputs(report, result, workload, out_dir) -> None:
    """The written CSV and metadata of one sweep agree with its cells."""
    with open(out_dir / "result_normalized.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    label = {(repr(p) if isinstance(p, float) else str(p)): p for p in result.points}
    expected = [(k, m) for k in label for m in result.methods]
    if [(row["axis_value"], row["method"]) for row in rows] != expected:
        report.problems.append(f"{out_dir.name}: CSV rows do not match the sweep points")
        return
    meta = json.loads((out_dir / "meta.json").read_text())
    failed = {f"{p}/{m}": a.failed for (p, m), a in result.cells.items() if a.failed}
    if meta["excluded_failed_cells"] != failed or meta["points"] != list(result.points):
        report.problems.append(f"{out_dir.name}: meta.json disagrees with the sweep's cells")
    for row in rows:
        cells = result.trials[(label[row["axis_value"]], row["method"])]
        used = [c.mse_normalized for c in cells if not c.failed]
        if int(row["trials"]) != len(used):
            report.problems.append(f"{out_dir.name}: CSV trial count wrong for {row['method']}")
        elif used and abs(float(row["mean_mse"]) - math.fsum(used) / len(used)) > \
                1e-12 * abs(float(row["mean_mse"])):
            report.problems.append(f"{out_dir.name}: CSV mean wrong for {row['method']}")


def check_round(results, workload, points) -> CheckReport:
    """Check one round: ``results[i]`` is the sweep over ``points[i]``."""
    report = CheckReport()
    failed = set()
    primary = []
    for result, point in zip(results, points):
        check_outputs(report, result, workload, point.out_dir)
        for (p, m), cells in result.trials.items():
            failed |= {(p, i, m) for i, cell in enumerate(cells) if cell.failed}
        primary += [c.mse_normalized for c in result.trials[(point.value, workload.primary)]
                    if not c.failed]
    if primary:
        report.nmse = math.fsum(primary) / len(primary)
    else:
        report.problems.append(f"every {workload.primary} cell failed")

    for pi, (result, point) in enumerate(zip(results, points)):
        cfg = point.cfg
        snr_db, n = (point.value, cfg.fixed_n) if workload.axis == "snr" else \
            (cfg.fixed_snr_db, point.value)
        for trial in sample_trials(cfg, pi, workload.checks_per_point):
            channel, X, obs = rebuild_instance(cfg, snr_db, n, trial)
            h_norm_sq = float(np.linalg.norm(channel.taps) ** 2)
            ds_est = None
            for method in cfg.methods:  # ds precedes sds, whose check needs it
                cell_key = (point.value, trial, method)
                if cell_key in failed:
                    continue
                try:
                    est = estimators.run_estimator(
                        method, X, obs, cfg.estimator,
                        true_support=channel.support, true_sparsity=channel.sparsity)
                    if method == "ds":
                        ds_est = est
                    check_method(report, method, est, channel, X, obs, cfg, ds_est)
                    cell = result.trials[(point.value, method)][trial]
                    err = float(np.linalg.norm(channel.taps - est.h_hat) ** 2)
                    report.record("bookkeeping.mse", abs(cell.mse - err) / max(err, 1e-300),
                                  TOL_MSE, "sweep MSE against recomputed")
                    report.record("bookkeeping.nmse",
                                  abs(cell.mse_normalized - err / h_norm_sq) / (err / h_norm_sq),
                                  TOL_MSE, "sweep normalized MSE against recomputed")
                except CheckFailed as exc:
                    failed.add(cell_key)
                    report.problems.append(f"{point.value}/{method}/trial {trial}: {exc}")
    report.failed_cells = len(failed)
    return report
