"""Monte Carlo harness: seeded trials and the two MSE sweeps.

Every trial draws a fresh channel, a fresh training matrix, and fresh noise
from seeds derived deterministically from (base seed, sweep point, trial
index), so any subset of trials can run concurrently and still reproduce
the serial results bit for bit. `make_instance` builds a trial's instance
and `estimate_instances` runs each configured method once on a list of
them, through `estimators.run_estimators`. Sweeps work through each point
in chunks of trials and score each chunk into per-trial cells; with
`workers`, threads take chunks in turn. `run_trial` is the chunk of one,
and a trial's cells do not depend on the chunk it ran in. The CLI's
`estimate` and `demo-fig2` write one instance's estimates out. Failed
estimator cells are itemized and excluded from aggregates; non-converged
estimates are included (dropping them would bias the error downward) and
counted.
"""

from __future__ import annotations

import csv
import math
import numbers
import struct
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .estimators import ALL_METHODS, Estimate, EstimatorConfig, run_estimators
from .estimators import run_estimator  # noqa: F401  (bench/tracing.py wraps it here)
from .model import (TRAINING_DISTRIBUTIONS, SparseChannel, build_toeplitz_training,
                    generate_sparse_channel, l2_norm, observe)

DEFAULT_METHODS = ("ls", "omp", "lasso", "ds", "oracle")
DEFAULT_SNR_GRID_DB = tuple(float(s) for s in range(3, 31, 3))
DEFAULT_N_GRID = tuple(range(10, 56, 5))

# Sweeps work through each point in chunks of this many trials: a chunk's
# instances are built, estimated (each method once on all of them) and
# scored before the next chunk starts, and `workers` threads take chunks in
# turn.
TRIALS_PER_CHUNK = 8

AXIS_SNR = "snr_db"
AXIS_TRAINING = "n_training"

_MASK64 = (1 << 64) - 1

# Stream tags keep the channel, training, and noise draws independent.
_STREAM_CHANNEL = 1
_STREAM_TRAINING = 2
_STREAM_NOISE = 3


def _splitmix64(state: int) -> int:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fold(seed: int, words) -> int:
    for word in words:
        seed = _splitmix64(seed ^ (word & _MASK64))
    return seed


def _trial_prefix(base_seed: int, snr_db: float, n: int, trial_index: int) -> int:
    """The fold of `derive_trial_seed` up to its stream word, which a
    trial's three streams share."""
    snr_bits = struct.unpack("<Q", struct.pack("<d", float(snr_db)))[0]
    return _fold(base_seed & _MASK64, (snr_bits, int(n), int(trial_index)))


def derive_trial_seed(base_seed: int, snr_db: float, n: int, trial_index: int, stream: int) -> int:
    """Mix (base_seed, snr_db, n, trial_index, stream) into a 64-bit seed.

    snr_db enters through its IEEE-754 bit pattern; the chain is a splitmix64
    fold, applied left to right. The mixing is stable across runs and
    platforms for identical inputs. `make_instance` folds the prefix before
    the stream once per trial, and its seeds equal this function's.
    """
    return _fold(_trial_prefix(base_seed, snr_db, n, trial_index), (int(stream),))


def _is_number(value, kind=numbers.Integral) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    L: int = 60
    T: int = 4
    trials: int = 1000
    methods: tuple[str, ...] = DEFAULT_METHODS
    snr_grid_db: tuple[float, ...] = DEFAULT_SNR_GRID_DB
    n_grid: tuple[int, ...] = DEFAULT_N_GRID
    fixed_snr_db: float = 20.0
    fixed_n: int = 30
    base_seed: int = 0
    distribution: str = "gaussian"
    workers: int = 1
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)

    def __post_init__(self):
        for name in ("methods", "snr_grid_db", "n_grid"):
            value = getattr(self, name)
            if isinstance(value, str) or not isinstance(value, Iterable):
                raise ValueError(f"{name} must be a list, got {value!r}")
        counts = [("L", self.L), ("T", self.T), ("trials", self.trials), ("fixed_n", self.fixed_n),
                  ("workers", self.workers), *(("n_grid entry", n) for n in self.n_grid)]
        for name, value in counts:
            if not _is_number(value) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        for name, snr in [("fixed_snr_db", self.fixed_snr_db),
                          *(("snr_grid_db entry", s) for s in self.snr_grid_db)]:
            if not _is_number(snr, numbers.Real) or math.isnan(snr) or snr == -math.inf:
                raise ValueError(f"{name} must be a real SNR, finite or +inf dB, got {snr!r}")
        if self.T > self.L:
            raise ValueError(f"need 1 <= T <= L, got T={self.T}, L={self.L}")
        if self.distribution not in TRAINING_DISTRIBUTIONS:
            raise ValueError(f"distribution must be one of {TRAINING_DISTRIBUTIONS}, "
                             f"got {self.distribution!r}")
        for name, grid in (("snr_grid_db", self.snr_grid_db), ("n_grid", self.n_grid)):
            grid = tuple(grid)
            if not grid:
                raise ValueError(f"{name} must be non-empty")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{name} must be sorted strictly ascending")
        unknown = [m for m in self.methods if m not in ALL_METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {ALL_METHODS}")
        if not self.methods:
            raise ValueError("methods must be non-empty")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods must not repeat, got {list(self.methods)}")
        if not (_is_number(self.base_seed) and 0 <= self.base_seed < 2**64):
            raise ValueError(f"base_seed must be an integer in [0, 2**64), got {self.base_seed!r}")
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "fixed_snr_db", float(self.fixed_snr_db))
        for name in ("L", "T", "trials", "fixed_n", "workers", "base_seed"):
            object.__setattr__(self, name, int(getattr(self, name)))


@dataclass(frozen=True)
class TrialCell:
    """One (trial, method) outcome."""

    mse: float
    mse_normalized: float
    converged: bool
    failed: bool
    error: str = ""


@dataclass(frozen=True)
class MethodAggregate:
    mean_mse: float
    median_mse: float
    std_mse: float
    mean_mse_normalized: float
    median_mse_normalized: float
    trials_used: int
    non_converged: int
    failed: int


@dataclass(frozen=True)
class SweepResult:
    axis: str
    points: tuple
    methods: tuple[str, ...]
    config: ExperimentConfig
    # cells[(point, method)] -> MethodAggregate; trials[(point, method)] -> TrialCell list
    cells: dict
    trials: dict


def mse(h_true: SparseChannel, estimate: Estimate) -> float:
    """Squared L2 estimation error for one trial (unnormalized)."""
    h = h_true.taps
    h_hat = estimate.h_hat
    if h.shape != h_hat.shape:
        raise ValueError(f"dimension mismatch: {h.shape} vs {h_hat.shape}")
    return float(l2_norm(h - h_hat) ** 2)


def make_instance(cfg: ExperimentConfig, snr_db: float, n: int, trial_index: int,
                  channel: SparseChannel | None = None):
    """The seeded (channel, training matrix, observation) of one trial.

    A given `channel` replaces the drawn one; the training matrix and the
    noise are still drawn from the trial's own seeds.
    """
    prefix = _trial_prefix(cfg.base_seed, snr_db, n, trial_index)

    def seed(stream):
        return _fold(prefix, (stream,))

    if channel is None:
        channel = generate_sparse_channel(cfg.L, cfg.T, seed=seed(_STREAM_CHANNEL))
    X = build_toeplitz_training(n, channel.length, cfg.distribution, seed=seed(_STREAM_TRAINING))
    return channel, X, observe(X, channel, snr_db, seed=seed(_STREAM_NOISE))


def error_text(error: Exception) -> str:
    """A failed estimate's error text, "Type: message"."""
    return f"{type(error).__name__}: {error}"


def estimate_instances(cfg: ExperimentConfig, instances) -> list:
    """Run the configured methods in order on each (channel, X, obs) of
    `instances` through `estimators.run_estimators`, with each channel's
    support for the oracle and its sparsity as the OMP atom budget.

    Returns per instance {method: Estimate, or the
    `estimators.EstimationError` the method raised there}, in method order;
    the other methods and instances still run, and any other exception
    propagates.
    """
    channels = [channel for channel, _X, _obs in instances]
    return run_estimators(cfg.methods, [(X, obs) for _channel, X, obs in instances],
                          cfg.estimator, [channel.support for channel in channels],
                          [channel.sparsity for channel in channels])


def _run_trials(cfg: ExperimentConfig, snr_db: float, n: int, trial_indices) -> list[dict]:
    """Build the seeded instances of `trial_indices` at one sweep point, run
    every configured method on them and score them: one {method: TrialCell}
    per trial, in order. A method that failed on a trial (see
    `estimate_instances`) is a failed cell of that trial only."""
    for trial_index in trial_indices:
        if not 0 <= trial_index < cfg.trials:
            raise ValueError(f"trial_index {trial_index} out of range for trials={cfg.trials}")
    instances = [make_instance(cfg, snr_db, n, t) for t in trial_indices]
    records = []
    for (channel, _X, _obs), outcomes in zip(instances, estimate_instances(cfg, instances)):
        h_norm_sq = float(l2_norm(channel.taps) ** 2)
        record = {}
        for method, est in outcomes.items():
            if isinstance(est, Exception):
                record[method] = TrialCell(mse=math.nan, mse_normalized=math.nan,
                                           converged=False, failed=True, error=error_text(est))
                continue
            err = mse(channel, est)
            record[method] = TrialCell(
                mse=err, mse_normalized=err / h_norm_sq if h_norm_sq > 0 else math.nan,
                converged=bool(est.diagnostics.get("converged", True)), failed=False)
        records.append(record)
    return records


def run_trial(cfg: ExperimentConfig, snr_db: float, n: int, trial_index: int) -> dict:
    """Run every configured method on one seeded instance and score it.

    Returns {method: TrialCell}, equal to that trial's cells in a sweep; a
    method that failed (see `estimate_instances`) is a failed cell.
    """
    return _run_trials(cfg, snr_db, n, [trial_index])[0]


def _aggregate(cells: list[TrialCell]) -> MethodAggregate:
    used = [c for c in cells if not c.failed]
    failed = len(cells) - len(used)
    values = [c.mse for c in used]
    nvalues = [c.mse_normalized for c in used]

    def _stats(vals):
        if not vals:
            return math.nan, math.nan, math.nan
        mean = math.fsum(vals) / len(vals)
        median = float(np.median(np.asarray(vals)))
        if len(vals) > 1:
            std = math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1))
        else:
            std = 0.0
        return mean, median, std

    mean, median, std = _stats(values)
    nmean, nmedian, _ = _stats(nvalues)
    return MethodAggregate(
        mean_mse=mean,
        median_mse=median,
        std_mse=std,
        mean_mse_normalized=nmean,
        median_mse_normalized=nmedian,
        trials_used=len(used),
        non_converged=sum(1 for c in used if not c.converged),
        failed=failed,
    )


def _run_sweep(cfg: ExperimentConfig, axis: str, points, snr_of, n_of) -> SweepResult:
    chunks = [(point, range(start, min(start + TRIALS_PER_CHUNK, cfg.trials)))
              for point in points for start in range(0, cfg.trials, TRIALS_PER_CHUNK)]

    def work(chunk):
        point, trial_indices = chunk
        return _run_trials(cfg, snr_of(point), n_of(point), trial_indices)

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = list(pool.map(work, chunks))
    else:
        outcomes = map(work, chunks)

    per_cell = {(pt, m): [] for pt in points for m in cfg.methods}
    for (point, _trial_indices), records in zip(chunks, outcomes):
        for record in records:
            for m in cfg.methods:
                per_cell[(point, m)].append(record[m])

    cells = {key: _aggregate(trials) for key, trials in per_cell.items()}
    return SweepResult(
        axis=axis,
        points=tuple(points),
        methods=cfg.methods,
        config=cfg,
        cells=cells,
        trials=per_cell,
    )


def sweep_snr(cfg: ExperimentConfig) -> SweepResult:
    """MSE versus SNR over cfg.snr_grid_db at the fixed training length."""
    return _run_sweep(
        cfg, AXIS_SNR, cfg.snr_grid_db, snr_of=lambda p: p, n_of=lambda p: cfg.fixed_n
    )


def sweep_training_length(cfg: ExperimentConfig) -> SweepResult:
    """MSE versus training length over cfg.n_grid at the fixed SNR."""
    return _run_sweep(
        cfg, AXIS_TRAINING, cfg.n_grid, snr_of=lambda p: cfg.fixed_snr_db, n_of=lambda p: p
    )


def _format_axis_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_sweep_csv(result: SweepResult, path, normalized: bool = False) -> None:
    """One row per (sweep point, method); floats as shortest round-trip."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["axis", "axis_value", "method", "mean_mse", "median_mse", "std_mse",
             "trials", "non_converged"]
        )
        for point in result.points:
            for method in result.methods:
                agg = result.cells[(point, method)]
                mean = agg.mean_mse_normalized if normalized else agg.mean_mse
                median = agg.median_mse_normalized if normalized else agg.median_mse
                std = agg.std_mse if not normalized else math.nan
                writer.writerow(
                    [
                        result.axis,
                        _format_axis_value(point),
                        method,
                        repr(float(mean)),
                        repr(float(median)),
                        repr(float(std)) if not normalized else "",
                        agg.trials_used,
                        agg.non_converged,
                    ]
                )


def sweep_metadata(result: SweepResult) -> dict:
    """Everything needed to reproduce the sweep exactly."""
    cfg = result.config
    failed = {
        f"{point}/{method}": agg.failed
        for (point, method), agg in result.cells.items()
        if agg.failed
    }
    errors = {
        f"{point}/{method}": sorted({c.error for c in cells if c.failed})
        for (point, method), cells in result.trials.items()
        if any(c.failed for c in cells)
    }
    return {
        "axis": result.axis,
        "points": list(result.points),
        "config": asdict(cfg),
        "seed_derivation": (
            "per-trial seeds: splitmix64 fold of (base_seed, snr_db float bits, n, "
            "trial_index, stream) with streams channel=1/training=2/noise=3"
        ),
        "conventions": {
            "snr": "per-sample signal power over total complex noise variance",
            "mse": "unnormalized ||h - h_hat||_2^2; *_normalized divides by ||h||_2^2",
            "selector_l1": "real_composite: |Re|+|Im| objective, componentwise correlation bound",
            "lasso_l1": "complex modulus (shrink modulus, keep phase)",
            "lambda_auto": "sigma*sqrt(2 ln L)*max column norm; selector auto level is "
                           "calibrated by 1/2 for its componentwise geometry",
            "per_trial_regeneration": "channel AND training matrix redrawn every trial",
        },
        "excluded_failed_cells": failed,
        "failed_cell_errors": errors,
    }
