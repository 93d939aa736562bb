"""Sparse multipath channel estimation toolkit.

Sparse channels observed through Toeplitz training matrices, estimated with
least squares, orthogonal matching pursuit, Lasso, the Dantzig selector
(solved as a linear program by a built-in dual simplex, with a built-in
interior-point method as fallback) and its residual-reweighted variant,
plus a seeded Monte Carlo harness for MSE-versus-SNR and
MSE-versus-training-length sweeps.
"""

from .estimators import (
    ALL_METHODS,
    Estimate,
    EstimationError,
    EstimatorConfig,
    resolve_lambda,
    run_estimator,
)
from .experiments import (
    ExperimentConfig,
    SweepResult,
    mse,
    run_trial,
    sweep_snr,
    sweep_training_length,
    write_sweep_csv,
)
from .lp import KktReport, LinearProgram, LpSolution, solve_lp
from .model import (
    Observation,
    RicEstimate,
    SparseChannel,
    ToeplitzTraining,
    build_toeplitz_training,
    fixed_channel_figure_demo,
    generate_sparse_channel,
    measurement_budget,
    observe,
    restricted_isometry_constant,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_METHODS",
    "Estimate",
    "EstimationError",
    "EstimatorConfig",
    "ExperimentConfig",
    "KktReport",
    "LinearProgram",
    "LpSolution",
    "Observation",
    "RicEstimate",
    "SparseChannel",
    "SweepResult",
    "ToeplitzTraining",
    "build_toeplitz_training",
    "fixed_channel_figure_demo",
    "generate_sparse_channel",
    "measurement_budget",
    "mse",
    "observe",
    "resolve_lambda",
    "restricted_isometry_constant",
    "run_estimator",
    "run_trial",
    "solve_lp",
    "sweep_snr",
    "sweep_training_length",
    "write_sweep_csv",
]
